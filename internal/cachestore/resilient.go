package cachestore

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/mix"
)

// errBreakerOpen short-circuits primary attempts while the circuit is
// open; callers inside this file treat it like any other primary failure
// (demote to the fallback tier), it just costs nothing to produce.
var errBreakerOpen = errors.New("cachestore: circuit breaker open")

// Options tunes a Resilient wrapper. The zero value selects production
// defaults; negative values disable where noted.
type Options struct {
	// OpTimeout bounds each primary attempt in wall-clock time
	// (0: 2s; negative: unbounded). The caller's Context still applies
	// on top — the effective deadline is the earlier of the two.
	OpTimeout time.Duration
	// Retries is the number of additional attempts after the first
	// (0: 2; negative: no retries). Misses (ErrNotFound) and caller
	// cancellation are never retried.
	Retries int
	// Backoff is the base delay before the first retry (0: 25ms); each
	// further retry doubles it, capped at MaxBackoff (0: 500ms). Every
	// delay is jittered by a deterministic factor in [0.5, 1.5) drawn
	// from Seed, so a fleet of replicas retrying the same dead store
	// does not stampede in lockstep.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed selects the jitter stream; replicas should differ.
	Seed uint64
	// FailureThreshold is the number of consecutive failed operations
	// (retries exhausted) that opens the circuit breaker (0: 3;
	// negative: breaker disabled).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before a half-open
	// trial operation probes the primary again (0: 5s).
	Cooldown time.Duration
	// Clock and Sleep are test seams (nil: time.Now and a timer-backed
	// sleep that aborts on Context cancellation).
	Clock func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

func (o Options) withDefaults() Options {
	if o.OpTimeout == 0 {
		o.OpTimeout = 2 * time.Second
	}
	switch {
	case o.Retries == 0:
		o.Retries = 2
	case o.Retries < 0:
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 25 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 500 * time.Millisecond
	}
	switch {
	case o.FailureThreshold == 0:
		o.FailureThreshold = 3
	case o.FailureThreshold < 0:
		o.FailureThreshold = 0 // disabled
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Sleep == nil {
		o.Sleep = sleepCtx
	}
	return o
}

// sleepCtx waits for d or until the context is cancelled, whichever
// comes first — a retry loop must never outlive its caller.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Stats is a snapshot of a Resilient wrapper's health counters, surfaced
// through probecache.StoreStats and vrdfserve's /statsz.
type Stats struct {
	// PrimaryOps counts operations that attempted the primary backend.
	PrimaryOps int64 `json:"primaryOps"`
	// PrimaryErrors counts failed attempts (each retry that fails adds
	// one), excluding misses and caller cancellation.
	PrimaryErrors int64 `json:"primaryErrors"`
	// Retries counts backoff-delayed re-attempts.
	Retries int64 `json:"retries"`
	// Demotions counts operations served by the fallback tier because
	// the primary failed (including breaker fast-fails).
	Demotions int64 `json:"demotions"`
	// BreakerOpens counts closed/half-open -> open transitions.
	BreakerOpens int64 `json:"breakerOpens"`
	// BreakerOpen reports whether the circuit is currently open.
	BreakerOpen bool `json:"breakerOpen"`
}

// breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Resilient wraps a primary Backend in the fault-tolerance layer every
// networked verdict store needs: per-attempt deadlines, bounded retries
// with jittered exponential backoff, a half-open circuit breaker, and
// graceful demotion to a local fallback tier. The contract the analysis
// relies on: a slow or dead primary may cost verdicts (extra simulation)
// but may never stall or fail an operation beyond its bounded budget —
// and a cancelled Context aborts immediately, without retry spin, with
// an error satisfying budget.ErrCanceled.
//
// Writes go through to the fallback first, so by the time a primary
// misbehaves the fallback already holds everything this process
// produced; reads fall back on primary failure AND on primary miss (the
// local tier may hold verdicts the remote never saw).
//
// Safe for concurrent use.
type Resilient struct {
	primary  Backend
	fallback Backend // may be nil: retry/breaker layer only
	opt      Options

	mu       sync.Mutex
	state    int
	failures int       // consecutive failed operations
	openedAt time.Time // when the breaker opened
	trial    bool      // a half-open trial is in flight

	jitterSeq     atomic.Uint64
	primaryOps    atomic.Int64
	primaryErrors atomic.Int64
	retries       atomic.Int64
	demotions     atomic.Int64
	breakerOpens  atomic.Int64
}

// NewResilient wraps primary with the fault-tolerance layer, demoting to
// fallback (may be nil) when the primary misbehaves.
func NewResilient(primary, fallback Backend, opt Options) *Resilient {
	return &Resilient{primary: primary, fallback: fallback, opt: opt.withDefaults()}
}

func (r *Resilient) String() string {
	if r.fallback == nil {
		return "resilient(" + r.primary.String() + ")"
	}
	return "resilient(" + r.primary.String() + " -> " + r.fallback.String() + ")"
}

// Stats returns a snapshot of the health counters.
func (r *Resilient) Stats() Stats {
	r.mu.Lock()
	open := r.state == breakerOpen && r.opt.Clock().Sub(r.openedAt) < r.opt.Cooldown
	r.mu.Unlock()
	return Stats{
		PrimaryOps:    r.primaryOps.Load(),
		PrimaryErrors: r.primaryErrors.Load(),
		Retries:       r.retries.Load(),
		Demotions:     r.demotions.Load(),
		BreakerOpens:  r.breakerOpens.Load(),
		BreakerOpen:   open,
	}
}

// admit decides whether an operation may try the primary. While the
// breaker is open (and inside the cooldown) nothing is admitted; after
// the cooldown one trial operation probes the primary and everyone else
// keeps falling back until it reports.
func (r *Resilient) admit() bool {
	if r.opt.FailureThreshold == 0 {
		return true // breaker disabled
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if r.opt.Clock().Sub(r.openedAt) < r.opt.Cooldown {
			return false
		}
		r.state = breakerHalfOpen
		r.trial = true
		return true
	default: // half-open
		if r.trial {
			return false
		}
		r.trial = true
		return true
	}
}

// onSuccess closes the breaker and clears the failure streak.
func (r *Resilient) onSuccess() {
	r.mu.Lock()
	r.state = breakerClosed
	r.failures = 0
	r.trial = false
	r.mu.Unlock()
}

// onFailure records a failed operation (retries exhausted) and opens the
// breaker when the streak reaches the threshold — or immediately when a
// half-open trial fails.
func (r *Resilient) onFailure() {
	if r.opt.FailureThreshold == 0 {
		return
	}
	r.mu.Lock()
	r.failures++
	wasTrial := r.state == breakerHalfOpen
	if wasTrial || r.failures >= r.opt.FailureThreshold {
		if r.state != breakerOpen {
			r.breakerOpens.Add(1)
		}
		r.state = breakerOpen
		r.openedAt = r.opt.Clock()
		r.trial = false
	}
	r.mu.Unlock()
}

// onAbort releases a half-open trial slot without a verdict on the
// primary's health (the caller cancelled mid-trial).
func (r *Resilient) onAbort() {
	r.mu.Lock()
	if r.state == breakerHalfOpen {
		r.trial = false
	}
	r.mu.Unlock()
}

// attemptCtx derives the per-attempt context from the caller's plus the
// configured operation timeout.
func (r *Resilient) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.opt.OpTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.opt.OpTimeout)
}

// backoffFor returns the jittered delay before retry number attempt
// (0-based): Backoff·2^attempt capped at MaxBackoff, scaled by a
// deterministic factor in [0.5, 1.5) drawn from the seeded stream.
func (r *Resilient) backoffFor(attempt int) time.Duration {
	d := r.opt.Backoff
	for i := 0; i < attempt && d < r.opt.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.opt.MaxBackoff {
		d = r.opt.MaxBackoff
	}
	x := mix.SplitMix64(r.opt.Seed ^ r.jitterSeq.Add(1))
	return d/2 + time.Duration(x%uint64(d)) // d/2 + [0, d) = [0.5d, 1.5d)
}

// isBudget reports a caller-attributable abort: cancellation or an
// exhausted caller budget. These are never the backend's fault — no
// retry, no breaker penalty, no demotion.
func isBudget(err error) bool {
	return errors.Is(err, budget.ErrCanceled) || errors.Is(err, budget.ErrBudgetExceeded)
}

// do runs one primary operation under the resilience policy and returns
// nil, ErrNotFound (a clean miss), a budget-classified caller abort, or
// the last failure after retries are exhausted.
func (r *Resilient) do(ctx context.Context, f func(ctx context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return budget.Classify(err)
	}
	if !r.admit() {
		r.primaryOps.Add(1)
		return errBreakerOpen
	}
	r.primaryOps.Add(1)
	var lastErr error
	for attempt := 0; attempt <= r.opt.Retries; attempt++ {
		actx, cancel := r.attemptCtx(ctx)
		err := f(actx)
		cancel()
		if err == nil || errors.Is(err, ErrNotFound) {
			r.onSuccess()
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			// The CALLER's context ended (the attempt deadline is a
			// child, so check the parent): abort immediately — a hung-up
			// caller must never be held for another backoff cycle.
			r.onAbort()
			return budget.Classify(cerr)
		}
		r.primaryErrors.Add(1)
		lastErr = err
		if attempt < r.opt.Retries {
			r.retries.Add(1)
			if serr := r.opt.Sleep(ctx, r.backoffFor(attempt)); serr != nil || ctx.Err() != nil {
				r.onAbort()
				return budget.Classify(ctx.Err())
			}
		}
	}
	r.onFailure()
	return lastErr
}

// demote counts an operation served by the fallback tier because the
// primary failed.
func (r *Resilient) demote() { r.demotions.Add(1) }

// Read implements Backend: primary first, fallback on failure AND on
// miss (the local tier may hold verdicts the remote never saw).
func (r *Resilient) Read(ctx context.Context, fingerprint string) ([]byte, error) {
	var data []byte
	err := r.do(ctx, func(c context.Context) error {
		d, e := r.primary.Read(c, fingerprint)
		data = d
		return e
	})
	switch {
	case err == nil:
		return data, nil
	case errors.Is(err, ErrNotFound):
		if r.fallback == nil {
			return nil, ErrNotFound
		}
		return r.fallback.Read(ctx, fingerprint)
	case isBudget(err):
		return nil, err
	default:
		r.demote()
		if r.fallback == nil {
			return nil, err
		}
		return r.fallback.Read(ctx, fingerprint)
	}
}

// Write implements Backend: write-through to the fallback first (so a
// later demotion loses nothing this process produced), then the primary
// under the resilience policy. A primary failure with the payload safe
// in the fallback is a demotion, not an error.
func (r *Resilient) Write(ctx context.Context, fingerprint string, data []byte) error {
	var fbErr error
	if r.fallback != nil {
		fbErr = r.fallback.Write(ctx, fingerprint, data)
		if isBudget(fbErr) {
			return fbErr
		}
	}
	err := r.do(ctx, func(c context.Context) error {
		return r.primary.Write(c, fingerprint, data)
	})
	switch {
	case err == nil:
		return nil
	case isBudget(err):
		return err
	default:
		r.demote()
		if r.fallback != nil && fbErr == nil {
			return nil
		}
		return err
	}
}

// Delete implements Backend: both tiers; a primary failure with the
// fallback cleaned is a demotion, not an error.
func (r *Resilient) Delete(ctx context.Context, fingerprint string) error {
	var fbErr error
	if r.fallback != nil {
		fbErr = r.fallback.Delete(ctx, fingerprint)
		if isBudget(fbErr) {
			return fbErr
		}
	}
	err := r.do(ctx, func(c context.Context) error {
		return r.primary.Delete(c, fingerprint)
	})
	switch {
	case err == nil:
		return nil
	case isBudget(err):
		return err
	default:
		r.demote()
		if r.fallback != nil && fbErr == nil {
			return nil
		}
		return err
	}
}

// List implements Backend: the union of both tiers, sorted — the
// fallback may hold demoted writes the primary never saw, and the
// primary holds the fleet's.
func (r *Resilient) List(ctx context.Context) ([]string, error) {
	var prim []string
	err := r.do(ctx, func(c context.Context) error {
		l, e := r.primary.List(c)
		prim = l
		return e
	})
	if err != nil {
		if isBudget(err) {
			return nil, err
		}
		r.demote()
		if r.fallback == nil {
			return nil, err
		}
		prim = nil
	}
	if r.fallback == nil {
		return prim, nil
	}
	fb, ferr := r.fallback.List(ctx)
	if ferr != nil {
		if err != nil {
			return nil, ferr // both tiers failed
		}
		fb = nil
	}
	seen := make(map[string]struct{}, len(prim)+len(fb))
	out := make([]string, 0, len(prim)+len(fb))
	for _, fps := range [2][]string{prim, fb} {
		for _, fp := range fps {
			if _, ok := seen[fp]; ok {
				continue
			}
			seen[fp] = struct{}{}
			out = append(out, fp)
		}
	}
	sort.Strings(out)
	return out, nil
}
