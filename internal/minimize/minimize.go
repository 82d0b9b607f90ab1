// Package minimize finds empirically minimal buffer capacities by
// simulation.
//
// The analysis of Wiggers et al. (DATE 2008) computes capacities that are
// sufficient but not necessarily minimal. This package searches for the
// smallest capacities that keep a task graph deadlock-free — reproducing the
// motivating numbers of the paper's Figure 1 (capacity 3 when the consumer
// always takes 3, capacity 4 when it always takes 2) — or that preserve a
// throughput constraint, quantifying the tightness of Equation (4).
//
// Feasibility is monotone in every buffer capacity (more space never hurts,
// by the monotonicity of VRDF execution), so each buffer admits binary
// search; chains are minimised by coordinate-descent passes until a
// fixpoint. The search is serial: one probe at a time, workloads checked in
// order. The same inputs therefore simulate the same probes, and report the
// same effort counters, at every core count.
package minimize

import (
	"context"
	"fmt"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/parallel"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// CheckFunc reports whether a capacity assignment (buffer name → capacity)
// is feasible. Implementations must be monotone: if caps is feasible, any
// pointwise-larger assignment must be too. Search calls it one probe at a
// time; a CheckFunc shared by concurrent searches must be safe for
// concurrent calls (the checks built by this package are).
type CheckFunc func(caps map[string]int64) (bool, error)

// Options tunes the caches and guards of checks and searches.
type Options struct {
	// Deprecated: checks and searches are serial; nothing reads Workers.
	Workers int
	// MaxEvents caps each simulation run as a runaway guard (0 = engine
	// default). Hitting the cap is reported as an error satisfying
	// budget.ErrBudgetExceeded, never as infeasibility.
	MaxEvents int64
	// NoCache disables the monotone feasibility cache in Search, forcing
	// every probe through the CheckFunc. The assignment found is
	// identical either way (the cache only answers probes whose verdict
	// monotonicity already determines); this exists for measurement and
	// for checks that are deliberately non-monotone. NoCache wins over
	// Cache.
	NoCache bool
	// Cache, if non-nil, is a shared probecache.Frontier consulted and
	// extended instead of the search-private cache. Sharing is sound only
	// between searches over the same buffers and the same CheckFunc
	// semantics — obtain one per problem fingerprint from a
	// probecache.Store — and its buffer order must equal the search's
	// buffer list. A warm frontier answers probes monotonicity already
	// decides, so a repeated search can finish without simulating at all;
	// the assignment found is identical either way.
	Cache *probecache.Frontier
	// Checkpoints is the number of run snapshots each probe machine
	// retains for warm-starting (sim.Config.Checkpoints). With it set,
	// consecutive probes that change one capacity resume simulation from
	// the latest checkpoint the change cannot affect instead of replaying
	// from t=0. 0 disables warm starts; the verdicts and the assignment
	// found are bit-identical either way. NewProblem always uses 8.
	Checkpoints int
	// Bounds, if non-nil, decides probes by the conservative linear α̂/α̌
	// bounds before consulting the cache or simulating. Bound-decided
	// verdicts are recorded in the cache (keeping the monotone frontier
	// consistent) and counted in Result.BoundHits. Unsound bounds are
	// surfaced as cache-contradiction or monotonicity errors.
	Bounds *Bounds
	// Stats, if non-nil, accumulates simulation-effort counters
	// (events simulated, events skipped by warm starts, warm/cold reset
	// counts) across all probes of the check.
	Stats *ProbeStats
	// Context, if non-nil, cancels checks and searches cooperatively; the
	// typed error satisfies budget.ErrCanceled (and context.Canceled).
	Context context.Context
	// Deadline, if non-zero, bounds checks and searches in wall-clock
	// time; the typed error satisfies budget.ErrBudgetExceeded.
	Deadline time.Time
}

func optOf(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// ctx returns the option's context, never nil.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// deadlineCtx returns a context enforcing both Context and Deadline, with
// the cancel the caller must run to release the deadline timer.
func (o Options) deadlineCtx() (context.Context, context.CancelFunc) {
	if o.Deadline.IsZero() {
		return o.ctx(), func() {}
	}
	return context.WithDeadline(o.ctx(), o.Deadline)
}

// feasibleOutcome maps a simulation outcome onto feasibility. Only two
// outcomes answer "does this capacity assignment keep the graph live":
// Completed (feasible) and Deadlocked (infeasible). Anything else — an
// Underrun from a misconfigured periodic actor, a LimitExceeded runaway
// guard — carries no evidence about capacities, and treating it as
// "infeasible" would silently poison the monotone search; it is an error.
// A LimitExceeded run exhausted its event budget, so its error satisfies
// budget.ErrBudgetExceeded, like sim.Verifier.Feasible's.
func feasibleOutcome(res *sim.Result) (bool, error) {
	switch res.Outcome {
	case sim.Completed:
		return true, nil
	case sim.Deadlocked:
		return false, nil
	}
	err := fmt.Errorf("minimize: simulation ended with outcome %v, which says nothing about capacity feasibility (expected completed or deadlocked)", res.Outcome)
	if res.Outcome == sim.LimitExceeded {
		err = budget.Exhausted(err)
	}
	return false, err
}

// DeadlockFreeCheck returns a CheckFunc that accepts an assignment when the
// self-timed execution of the sized graph completes `firings` firings of
// `task` under every given workload without deadlocking. The workloads are
// simulated in order and the first infeasible one decides.
//
// The check reuses a compiled machine per workload across probes: a probe
// only resets token counts (the capacity assignment becomes the space
// edges' initial tokens) instead of cloning the graph and rebuilding the
// engine. With Options.Checkpoints set, the reset is warm: the machine
// retains run snapshots and resumes from the latest checkpoint the capacity
// change cannot affect. The per-workload machine pools are LIFO, so a probe
// gets back the machine the previous probe used — consecutive probes of a
// binary search then differ on one edge and its checkpoints stay valid.
func DeadlockFreeCheck(g *taskgraph.Graph, task string, firings int64, workloads []sim.Workloads, opts ...Options) CheckFunc {
	o := optOf(opts)
	tpl := &probeTemplate{base: g}
	pools := make([]pool[*sim.Machine], len(workloads))
	ctx := o.ctx()
	return func(caps map[string]int64) (bool, error) {
		ov, err := tpl.overrides(caps)
		if err != nil {
			return false, err
		}
		for i := range workloads {
			if err := ctx.Err(); err != nil {
				return false, budget.Classify(err)
			}
			m, ok := pools[i].get()
			if !ok {
				cfg, _, err := sim.TaskGraphConfig(tpl.sized, workloads[i])
				if err != nil {
					return false, err
				}
				cfg.Stop = sim.Stop{Actor: task, Firings: firings}
				cfg.MaxEvents = o.MaxEvents
				cfg.LiteResult = true
				cfg.Checkpoints = o.Checkpoints
				cfg.Context = o.Context
				cfg.Deadline = o.Deadline
				if m, err = sim.Compile(cfg); err != nil {
					return false, err
				}
			}
			resumed, err := m.ResetWarm(ov)
			if err != nil {
				return false, err
			}
			res, err := m.Run()
			if err != nil {
				return false, err
			}
			o.Stats.note(res.Events-resumed, resumed)
			pools[i].put(m)
			if ok, err := feasibleOutcome(res); !ok || err != nil {
				return false, err
			}
		}
		return true, nil
	}
}

// ThroughputCheck returns a CheckFunc that accepts an assignment when
// sim.VerifyThroughput succeeds for every given workload. The workloads are
// verified in order and the first infeasible one decides.
//
// The check reuses a compiled sim.Verifier per workload across probes
// and asks it only for the verdict (sim.Verifier.Feasible): one self-timed
// run and one periodic run at the largest candidate offset, which by
// Definition 1 passes exactly when Verify would. With Options.Checkpoints
// set both runs warm-start between probes; the periodic run always uses
// the same slack, and the LIFO pools give each probe back the verifier the
// previous probe used, so its checkpoints match. A probe that
// Options.MaxEvents cuts short is an error satisfying
// budget.ErrBudgetExceeded, never a verdict.
func ThroughputCheck(g *taskgraph.Graph, c taskgraph.Constraint, firings int64, workloads []sim.Workloads, opts ...Options) CheckFunc {
	o := optOf(opts)
	tpl := &probeTemplate{base: g}
	pools := make([]pool[*sim.Verifier], len(workloads))
	ctx := o.ctx()
	return func(caps map[string]int64) (bool, error) {
		if _, err := tpl.overrides(caps); err != nil {
			return false, err
		}
		for i := range workloads {
			if err := ctx.Err(); err != nil {
				return false, budget.Classify(err)
			}
			vf, ok := pools[i].get()
			if !ok {
				var err error
				vf, err = sim.CompileVerifier(tpl.sized, c, sim.VerifyOptions{
					Firings:     firings,
					Workloads:   workloads[i],
					MaxEvents:   o.MaxEvents,
					LiteResult:  true,
					Checkpoints: o.Checkpoints,
					Context:     o.Context,
					Deadline:    o.Deadline,
				})
				if err != nil {
					return false, err
				}
			}
			feasible, err := vf.Feasible(caps)
			if err != nil {
				return false, err
			}
			if o.Stats != nil {
				simulated, resumed, warm, cold := vf.LastEffort()
				o.Stats.SimEvents.Add(simulated)
				o.Stats.ResumedEvents.Add(resumed)
				o.Stats.WarmResets.Add(int64(warm))
				o.Stats.ColdResets.Add(int64(cold))
			}
			pools[i].put(vf)
			if !feasible {
				return false, nil
			}
		}
		return true, nil
	}
}

// Result reports the outcome of a search.
type Result struct {
	// Caps is the minimal feasible assignment found. It is unaffected by
	// the feasibility cache and the bounds.
	Caps map[string]int64
	// Checks counts simulated feasibility evaluations — CheckFunc
	// invocations, each of which may run one simulation per workload.
	Checks int
	// CacheHits counts probes answered by the monotone feasibility cache
	// without invoking the CheckFunc (zero under Options.NoCache).
	// Checks + CacheHits + BoundHits is the total probe count.
	CacheHits int
	// BoundHits counts probes decided by the conservative α̂/α̌ bounds
	// (Options.Bounds) without simulating (zero when Bounds is nil).
	BoundHits int
	// Passes counts coordinate-descent sweeps.
	Passes int
}

// Total returns the summed capacity of the assignment.
func (r *Result) Total() int64 {
	var t int64
	for _, v := range r.Caps {
		t += v
	}
	return t
}

// Search finds a pointwise-minimal feasible capacity assignment at or below
// upper. It first verifies that upper itself is feasible, then runs
// coordinate-descent passes: for each buffer in order, binary-search the
// smallest feasible capacity with the other buffers held at their current
// values. Because feasibility is monotone, the result of each inner search
// is exact; passes repeat until no capacity changes, yielding an assignment
// where no single buffer can shrink further.
//
// Probes run one at a time, so the probe sequence, and with it every
// counter of the Result, depends only on the inputs. A check whose answers
// violate monotonicity is reported as an error when the feasibility cache
// exposes it. A panicking CheckFunc is recovered into a
// *parallel.PanicError.
func Search(buffers []string, upper map[string]int64, check CheckFunc, opts ...Options) (*Result, error) {
	if len(buffers) == 0 {
		return nil, fmt.Errorf("minimize: no buffers to search")
	}
	o := optOf(opts)
	// The deadline gets its own derived context so the search stops between
	// probes even when the CheckFunc ignores budgets.
	ctx, cancelBudget := o.deadlineCtx()
	defer cancelBudget()
	cur := make(map[string]int64, len(buffers))
	for _, b := range buffers {
		u, ok := upper[b]
		if !ok || u <= 0 {
			return nil, fmt.Errorf("minimize: buffer %q needs a positive upper bound", b)
		}
		cur[b] = u
	}
	var checks, cacheHits, boundHits int
	var cache *probecache.Frontier
	switch {
	case o.NoCache:
		// Forced off: every probe simulates.
	case o.Cache != nil:
		if !o.Cache.SameKeys(buffers) {
			return nil, fmt.Errorf("minimize: shared cache is over buffers %v, search is over %v", o.Cache.Keys(), buffers)
		}
		cache = o.Cache
	default:
		cache = probecache.NewFrontier(buffers)
	}
	// probe answers dominated assignments from the cache (monotonicity
	// decides them without simulating) and records every simulated
	// verdict; cross-pass confirmation probes of the Gauss–Seidel loop —
	// including any re-probe of the already verified upper bound — become
	// cache hits.
	probe := func(caps map[string]int64) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, budget.Classify(err)
		}
		// The α̂/α̌ bounds decide first, so a bound-decided probe costs no
		// simulation even on a cold cache. The verdict is recorded in the
		// cache so the monotone frontier stays consistent with it: a bound
		// contradicting an earlier simulated verdict (or vice versa) is a
		// frontier error, not a silent wrong answer.
		if o.Bounds != nil {
			if feasible, decided := o.Bounds.Decide(caps); decided {
				boundHits++
				if cache != nil {
					if err := cache.Insert(caps, feasible); err != nil {
						return false, err
					}
				}
				return feasible, nil
			}
		}
		if cache != nil {
			if feasible, hit := cache.Lookup(caps); hit {
				cacheHits++
				return feasible, nil
			}
		}
		checks++
		ok, err := parallel.Call(func(int) (bool, error) { return check(caps) }, 0)
		if err != nil {
			return false, budget.Classify(err)
		}
		if cache != nil {
			if err := cache.Insert(caps, ok); err != nil {
				return false, err
			}
		}
		return ok, nil
	}
	ok, err := probe(copyCaps(cur))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("minimize: upper bound %v is not feasible", cur)
	}
	passes := 0
	for {
		passes++
		before := copyCaps(cur)
		for _, b := range buffers {
			// Invariant: hi is feasible, everything below lo is not.
			lo, hi := int64(1), cur[b]
			for lo < hi {
				mid := lo + (hi-lo)/2
				caps := copyCaps(cur)
				caps[b] = mid
				ok, err := probe(caps)
				if err != nil {
					return nil, err
				}
				if ok {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			cur[b] = hi
		}
		shrunk := false
		for k, v := range cur {
			if v < before[k] {
				shrunk = true
				break
			}
		}
		if !shrunk {
			break
		}
	}
	return &Result{Caps: cur, Checks: checks, CacheHits: cacheHits, BoundHits: boundHits, Passes: passes}, nil
}

func copyCaps(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
