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

	"vrdfcap/internal/budget"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// CheckFunc reports whether a capacity assignment (buffer name → capacity)
// is feasible. Implementations must be monotone: if caps is feasible, any
// pointwise-larger assignment must be too. Search calls it one probe at a
// time and hands every probe the same map, rewritten from its working
// assignment, so caps is valid only for the duration of the call: a check
// must copy what it keeps. A CheckFunc shared by concurrent searches must
// be safe for concurrent calls (the checks built by this package are).
type CheckFunc func(caps map[string]int64) (bool, error)

// probeFunc is a check that runs under the context of the search probing
// it. A Problem's check is one: its pooled verifiers take each probe's
// context from the search, so none of them keeps a search's context.
type probeFunc func(ctx context.Context, caps map[string]int64) (bool, error)

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
	// Stats, if non-nil, counts the simulation effort of every probe run
	// of the check (sim.Config.Effort), including runs cut short.
	Stats *ProbeStats
	// Context, if non-nil, cancels or time-bounds checks and searches
	// cooperatively, down to the running simulation; the typed errors
	// satisfy budget.ErrCanceled (and context.Canceled) and
	// budget.ErrBudgetExceeded (and context.DeadlineExceeded).
	Context context.Context
}

func optOf(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
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
// retains run checkpoints and resumes from the latest one the capacity
// change cannot affect. The per-workload machine pools are LIFO, so a probe
// gets back the machine the previous probe used — consecutive probes of a
// binary search then differ on one edge and its checkpoints stay valid.
func DeadlockFreeCheck(g *taskgraph.Graph, task string, firings int64, workloads []sim.Workloads, opts ...Options) CheckFunc {
	o := optOf(opts)
	tpl := &probeTemplate{base: g}
	pools := make([]pool[*sim.Machine], len(workloads))
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return func(caps map[string]int64) (bool, error) {
		ov, err := tpl.spaceTokens(caps)
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
				cfg.Effort = o.Stats
				if m, err = sim.Compile(cfg); err != nil {
					return false, err
				}
			}
			if err := m.Reset(ov); err != nil {
				return false, err
			}
			res, err := m.Run()
			if err != nil {
				return false, err
			}
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
// and asks it only for the verdict (sim.Verifier.Feasible): one periodic
// run whose constrained task starts when the rest of the chain goes quiet,
// which by Definition 1 passes exactly when Verify would. Each verifier
// compiles that one machine. With Options.Checkpoints set the run
// warm-starts between probes; every probe uses the quiet start, and the
// LIFO pools give each probe back the verifier the previous probe used, so
// its checkpoints match. A probe that Options.MaxEvents cuts short is an
// error satisfying budget.ErrBudgetExceeded, never a verdict.
func ThroughputCheck(g *taskgraph.Graph, c taskgraph.Constraint, firings int64, workloads []sim.Workloads, opts ...Options) CheckFunc {
	o := optOf(opts)
	check := throughputCheck(g, c, firings, workloads, o)
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return func(caps map[string]int64) (bool, error) { return check(ctx, caps) }
}

// throughputCheck is ThroughputCheck with the context taken per probe
// instead of from Options.Context, which it ignores.
func throughputCheck(g *taskgraph.Graph, c taskgraph.Constraint, firings int64, workloads []sim.Workloads, o Options) probeFunc {
	pools := make([]pool[*sim.Verifier], len(workloads))
	return func(ctx context.Context, caps map[string]int64) (bool, error) {
		for i := range workloads {
			if err := ctx.Err(); err != nil {
				return false, budget.Classify(err)
			}
			vf, ok := pools[i].get()
			if !ok {
				// The verifier compiles g's unsized buffers as such, and
				// rejects a probe that leaves one out.
				var err error
				vf, err = sim.CompileVerifier(g, c, sim.VerifyOptions{
					Firings:     firings,
					Workloads:   workloads[i],
					MaxEvents:   o.MaxEvents,
					LiteResult:  true,
					Checkpoints: o.Checkpoints,
					Effort:      o.Stats,
				})
				if err != nil {
					return false, err
				}
			}
			feasible, err := vf.Feasible(ctx, caps)
			if err != nil {
				return false, err
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
// exposes it. Options.Context is checked before every probe, so the search
// stops between probes even when the CheckFunc ignores it.
func Search(buffers []string, upper map[string]int64, check CheckFunc, opts ...Options) (*Result, error) {
	o := optOf(opts)
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return search(ctx, buffers, upper, func(_ context.Context, caps map[string]int64) (bool, error) {
		return check(caps)
	}, o)
}

// search is Search under ctx, which it checks before every probe and hands
// to check; it reads only the cache and bound options of o.
//
// The working assignment is one capacity vector in buffer order, mutated
// in place: the bounds, the frontier and the pass loop read it by index,
// so a probe they answer hashes no buffer name and allocates nothing. The
// name-keyed map a CheckFunc takes is brought up to date from the vector
// only when a probe simulates.
func search(ctx context.Context, buffers []string, upper map[string]int64, check probeFunc, o Options) (*Result, error) {
	if len(buffers) == 0 {
		return nil, fmt.Errorf("minimize: no buffers to search")
	}
	cur := make([]int64, len(buffers))
	for i, b := range buffers {
		u, ok := upper[b]
		if !ok || u <= 0 {
			return nil, fmt.Errorf("minimize: buffer %q needs a positive upper bound", b)
		}
		for _, prev := range buffers[:i] {
			if prev == b {
				return nil, fmt.Errorf("minimize: buffer %q is listed twice", b)
			}
		}
		cur[i] = u
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
	bounds := o.Bounds.compile(buffers)
	// caps is the assignment in the CheckFunc's name-keyed form; named
	// copies the working vector into it.
	caps := make(map[string]int64, len(buffers))
	named := func() map[string]int64 {
		for i, b := range buffers {
			caps[b] = cur[i]
		}
		return caps
	}
	// probe answers dominated assignments from the cache (monotonicity
	// decides them without simulating) and records every simulated
	// verdict; cross-pass confirmation probes of the Gauss–Seidel loop —
	// including any re-probe of the already verified upper bound — become
	// cache hits.
	probe := func() (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, budget.Classify(err)
		}
		// The α̂/α̌ bounds decide first, so a bound-decided probe costs no
		// simulation even on a cold cache. The verdict is recorded in the
		// cache so the monotone frontier stays consistent with it: a bound
		// contradicting an earlier simulated verdict (or vice versa) is a
		// frontier error, not a silent wrong answer.
		if feasible, decided := bounds.decide(cur); decided {
			boundHits++
			if cache != nil {
				if err := cache.Insert(cur, feasible); err != nil {
					return false, err
				}
			}
			return feasible, nil
		}
		if cache != nil {
			if feasible, hit := cache.Lookup(cur); hit {
				cacheHits++
				return feasible, nil
			}
		}
		checks++
		ok, err := check(ctx, named())
		if err != nil {
			return false, budget.Classify(err)
		}
		if cache != nil {
			if err := cache.Insert(cur, ok); err != nil {
				return false, err
			}
		}
		return ok, nil
	}
	ok, err := probe()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("minimize: upper bound %v is not feasible", named())
	}
	passes := 0
	for {
		passes++
		shrunk := false
		for i := range buffers {
			// Invariant: hi is feasible, everything below lo is not.
			start := cur[i]
			lo, hi := int64(1), start
			for lo < hi {
				mid := lo + (hi-lo)/2
				cur[i] = mid
				ok, err := probe()
				if err != nil {
					return nil, err
				}
				if ok {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if hi < start {
				shrunk = true
			}
			cur[i] = hi
		}
		if !shrunk {
			break
		}
	}
	return &Result{Caps: named(), Checks: checks, CacheHits: cacheHits, BoundHits: boundHits, Passes: passes}, nil
}
