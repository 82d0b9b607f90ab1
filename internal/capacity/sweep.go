package capacity

import (
	"context"
	"fmt"
	"sort"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/parallel"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// SweepPoint is one point of a throughput/buffer trade-off curve: the
// period analysed, whether the chain is feasible at that period, and the
// resulting total capacity.
type SweepPoint struct {
	// Period is the analysed strict period of the constrained task.
	Period ratio.Rat
	// Valid reports whether every schedule check passed at this period.
	Valid bool
	// Total is the summed buffer capacity (meaningful when Valid).
	Total int64
	// Result is the full analysis at this period. MinimalFeasiblePeriod
	// sets it for the point it returns; the points of SweepPeriods leave
	// it nil (use Analysis.At or Compute for a point's full analysis).
	Result *Result
}

// SweepOptions tunes SweepPeriodsOpt and MinimalFeasiblePeriodOpt.
type SweepOptions struct {
	// Parallel bounds the number of periods analysed concurrently on this
	// machine: 0 selects GOMAXPROCS, 1 forces the serial path. Every
	// period is an independent pure computation, so the results —
	// ordering, values and the error reported on a bad period — are
	// identical for every setting (see internal/parallel for the
	// first-error contract).
	Parallel int
	// Context, if non-nil, cancels or time-bounds the sweep
	// cooperatively between periods; the typed errors satisfy
	// budget.ErrCanceled and budget.ErrBudgetExceeded.
	Context context.Context
	// Cache is the in-memory period-verdict cache the sweep records into
	// and MinimalFeasiblePeriod probes from; nil means no cache. Passing
	// one cache to a sweep and a later minimal-period search over the same
	// (graph, task, policy) lets the search reuse the sweep's verdicts.
	// Cached verdicts never change a sweep's points — every point is fully
	// recomputed and overwrites the cache — they only let
	// MinimalFeasiblePeriod skip re-analysing periods whose validity is
	// already decided.
	Cache *probecache.Periods
}

// SweepKey returns a probecache fingerprint of a (graph, constrained task,
// policy) triple, for callers that keep one Periods cache per triple.
func SweepKey(g *taskgraph.Graph, task string, p Policy) string {
	return probecache.GraphKey(g, "capacity-sweep", task, p.String())
}

// SweepPeriods analyses the chain at every given period and returns the
// throughput/buffer trade-off curve — the design-space exploration that
// Stuijk et al. ([11] in the paper) perform for constant-rate SDF graphs,
// here available for data-dependent chains. Tighter periods need larger
// buffers; periods below a task's response-time limit are reported
// infeasible rather than skipped. Periods are evaluated concurrently
// (bounded by GOMAXPROCS); use SweepPeriodsOpt to control the worker
// count.
func SweepPeriods(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy) ([]SweepPoint, error) {
	return SweepPeriodsOpt(g, task, periods, p, SweepOptions{})
}

// SweepPeriodsOpt is SweepPeriods with explicit options. The chain is
// validated and compiled once (CompileAnalysis), and every worker decides
// its periods from the compiled closed form: one threshold comparison and
// one exact floor per buffer, with Analysis.At answering any period whose
// magnitudes the closed form cannot prove in int64 range. Each point's
// Valid, Total and error are At's at that period; Result stays nil.
func SweepPeriodsOpt(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy, opts SweepOptions) ([]SweepPoint, error) {
	if len(periods) == 0 {
		return nil, fmt.Errorf("capacity: empty period sweep")
	}
	a, err := CompileAnalysis(g, task, p)
	if err != nil {
		return nil, err
	}
	cache := opts.Cache
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	eval := func(i int) (SweepPoint, error) {
		if err := ctx.Err(); err != nil {
			return SweepPoint{}, budget.Classify(err)
		}
		tau := periods[i]
		valid, total, err := a.verdict(tau)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("capacity: period %v: %w", tau, err)
		}
		pt := SweepPoint{Period: tau, Valid: valid, Total: total}
		if cache != nil {
			// Freshly computed verdicts overwrite whatever was stored, so
			// a stale or corrupted cache entry heals on the next sweep.
			cache.Insert(tau, probecache.Verdict{Valid: pt.Valid, Total: pt.Total})
		}
		return pt, nil
	}
	if parallel.Workers(opts.Parallel) == 1 {
		out := make([]SweepPoint, 0, len(periods))
		for i := range periods {
			pt, err := eval(i)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
		return out, nil
	}
	pts, err := parallel.Map(ctx, opts.Parallel, len(periods), eval)
	if err != nil {
		return nil, budget.Classify(err)
	}
	return pts, nil
}

// MinimalFeasiblePeriod returns the smallest candidate period at which the
// chain is feasible, or an error if none is. The candidate list is expected
// in ascending order; a list that is not ascending is sorted into a copy
// first, so the returned point is the true minimum regardless of input
// order (an unsorted list used to silently return the first feasible — not
// the minimal — period).
func MinimalFeasiblePeriod(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy) (SweepPoint, error) {
	return MinimalFeasiblePeriodOpt(g, task, periods, p, SweepOptions{})
}

// MinimalFeasiblePeriodOpt is MinimalFeasiblePeriod with explicit options.
//
// Validity is monotone in the period — every schedule check compares a
// fixed response time ρ(w) against φ(w) = τ·const with const > 0, so
// relaxing τ can only help — which makes binary search over the sorted
// candidates exact. Instead of analysing every candidate, the search probes
// O(log n) candidates and answers each probe from opts.Cache, when given,
// if a recorded verdict — exact or by dominance — already decides it. A
// probe the cache does not decide is decided by the compiled closed form,
// as in SweepPeriodsOpt, and the full analysis (Analysis.At) runs once, at
// the winner, to fill the returned point's Result.
func MinimalFeasiblePeriodOpt(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy, opts SweepOptions) (SweepPoint, error) {
	if len(periods) == 0 {
		return SweepPoint{}, fmt.Errorf("capacity: empty period sweep")
	}
	// Sort and dedupe into a copy: duplicate candidates would skew the
	// binary-search midpoints (wasting probes re-deciding the same period)
	// without changing the answer, and the caller's slice is never mutated.
	less := func(i, j int) bool { return periods[i].Less(periods[j]) }
	sorted := make([]ratio.Rat, len(periods))
	copy(sorted, periods)
	periods = sorted
	if !sort.SliceIsSorted(periods, less) {
		sort.Slice(periods, less)
	}
	uniq := periods[:1]
	for _, tau := range periods[1:] {
		if !tau.Equal(uniq[len(uniq)-1]) {
			uniq = append(uniq, tau)
		}
	}
	periods = uniq
	a, err := compileChain(g, task, p)
	if err != nil {
		return SweepPoint{}, err
	}
	cache := opts.Cache
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	// The closed form is compiled at the first probe the cache does not
	// answer, so a search the cache answers throughout pays nothing for it.
	compiled := false
	probe := func(i int) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, budget.Classify(err)
		}
		tau := periods[i]
		if cache != nil {
			// Probe combines the exact and dominance lookups under one
			// counter update, so hits + misses equals the probe count.
			if v, hit := cache.Probe(tau); hit {
				return v.Valid, nil
			}
		}
		if !compiled {
			a.closed, compiled = compileClosedForm(a), true
		}
		valid, total, err := a.verdict(tau)
		if err != nil {
			return false, fmt.Errorf("capacity: period %v: %w", tau, err)
		}
		if cache != nil {
			cache.Insert(tau, probecache.Verdict{Valid: valid, Total: total})
		}
		return valid, nil
	}
	// Invariant: every candidate below lo is infeasible, every candidate
	// at or beyond hi is feasible (by monotonicity once probed).
	lo, hi := 0, len(periods)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		valid, err := probe(mid)
		if err != nil {
			return SweepPoint{}, err
		}
		if valid {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(periods) {
		return SweepPoint{}, fmt.Errorf("capacity: no feasible period among %d candidates (fastest %v, slowest %v)",
			len(periods), periods[0], periods[len(periods)-1])
	}
	res, err := a.At(periods[lo])
	if err != nil {
		return SweepPoint{}, fmt.Errorf("capacity: period %v: %w", periods[lo], err)
	}
	return SweepPoint{Period: periods[lo], Valid: res.Valid, Total: res.TotalCapacity(), Result: res}, nil
}
