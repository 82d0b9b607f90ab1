package capacity

import (
	"context"
	"fmt"
	"slices"

	"vrdfcap/internal/budget"
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
	// Parallel is not read: a sweep decides its periods in one serial
	// loop, each in a few dozen nanoseconds.
	//
	// Deprecated: nothing reads Parallel; it stays only until the
	// perfbench harness stops setting it.
	Parallel int
	// Context, if non-nil, cancels or time-bounds the sweep
	// cooperatively between periods; the typed errors satisfy
	// budget.ErrCanceled and budget.ErrBudgetExceeded.
	Context context.Context
	// Cache is not read: neither query keeps period verdicts.
	//
	// Deprecated: nothing reads Cache; it stays only until the perfbench
	// harness stops setting it.
	Cache *probecache.Periods
}

// SweepKey returns a probecache fingerprint of a (graph, constrained task,
// policy) triple.
//
// Deprecated: no period cache is kept per triple any more; SweepKey stays
// only until the perfbench harness stops calling it. Use
// probecache.GraphKey.
func SweepKey(g *taskgraph.Graph, task string, p Policy) string {
	return probecache.GraphKey(g, "capacity-sweep", task, p.String())
}

// SweepPeriods analyses the chain at every given period and returns the
// throughput/buffer trade-off curve — the design-space exploration that
// Stuijk et al. ([11] in the paper) perform for constant-rate SDF graphs,
// here available for data-dependent chains. Tighter periods need larger
// buffers; periods below a task's response-time limit are reported
// infeasible rather than skipped.
func SweepPeriods(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy) ([]SweepPoint, error) {
	return SweepPeriodsOpt(g, task, periods, p, SweepOptions{})
}

// SweepPeriodsOpt is SweepPeriods with explicit options. The chain is
// validated and compiled once (CompileAnalysis), and one serial loop
// decides the periods in list order from the compiled closed form: one
// threshold comparison and one exact floor per buffer, with Analysis.At
// answering any period whose magnitudes the closed form cannot prove in
// int64 range. Each point's Valid, Total and error are At's at that
// period; Result stays nil. The first failing period ends the sweep.
func SweepPeriodsOpt(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy, opts SweepOptions) ([]SweepPoint, error) {
	if len(periods) == 0 {
		return nil, fmt.Errorf("capacity: empty period sweep")
	}
	a, err := CompileAnalysis(g, task, p)
	if err != nil {
		return nil, err
	}
	ctx := opts.context()
	out := make([]SweepPoint, len(periods))
	for i, tau := range periods {
		if err := ctx.Err(); err != nil {
			return nil, budget.Classify(err)
		}
		valid, total, err := a.verdict(tau)
		if err != nil {
			return nil, fmt.Errorf("capacity: period %v: %w", tau, err)
		}
		out[i] = SweepPoint{Period: tau, Valid: valid, Total: total}
	}
	return out, nil
}

// MinimalFeasiblePeriod returns the smallest candidate period at which the
// chain is feasible, or an error if none is. The candidates may come in
// any order; see MinimalFeasiblePeriodOpt for the contract.
func MinimalFeasiblePeriod(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy) (SweepPoint, error) {
	return MinimalFeasiblePeriodOpt(g, task, periods, p, SweepOptions{})
}

// MinimalFeasiblePeriodOpt is MinimalFeasiblePeriod with explicit options.
//
// Every check compares a fixed response time ρ(w) against φ(w) = c_w·τ
// with c_w > 0 (§4.3/§4.4), so wherever At succeeds the chain is valid
// exactly from the threshold T = max_w ρ(w)/c_w on, unless a zero quantum
// rules every period out. The query decides by T and analyses one period:
//
//   - The candidates are sorted and deduplicated into a copy; the
//     caller's slice is never mutated, and N below counts the copy.
//   - The context is checked before anything is decided.
//   - If the least candidate is not a valid period
//     (taskgraph.CheckPeriod), that error is returned, wrapped as
//     "capacity: period τ: …".
//   - The winner is the least candidate ≥ T. Its Result is At's there,
//     and an At error there is returned, wrapped the same way. At is not
//     run at any other candidate, so a candidate below T or above the
//     winner cannot turn the answer into an error.
//   - If no candidate is ≥ T, or a zero quantum rules every period out,
//     the error reads "capacity: no feasible period among N candidates
//     (fastest …, slowest …)".
//   - A chain without T — At fails at every period for a reason that
//     does not depend on it, or T leaves int64 — is decided candidate by
//     candidate in ascending order through At, checking the context
//     before each; the first error or the first valid point ends the
//     search.
func MinimalFeasiblePeriodOpt(g *taskgraph.Graph, task string, periods []ratio.Rat, p Policy, opts SweepOptions) (SweepPoint, error) {
	if len(periods) == 0 {
		return SweepPoint{}, fmt.Errorf("capacity: empty period sweep")
	}
	sorted := slices.Clone(periods)
	if !slices.IsSortedFunc(sorted, ratio.Rat.Cmp) {
		slices.SortFunc(sorted, ratio.Rat.Cmp)
	}
	periods = slices.CompactFunc(sorted, ratio.Rat.Equal)
	a, err := compileChain(g, task, p)
	if err != nil {
		return SweepPoint{}, err
	}
	ctx := opts.context()
	if err := ctx.Err(); err != nil {
		return SweepPoint{}, budget.Classify(err)
	}
	if err := taskgraph.CheckPeriod(periods[0]); err != nil {
		return SweepPoint{}, fmt.Errorf("capacity: period %v: %w", periods[0], err)
	}
	switch t, feasible, ok := a.threshold(nil); {
	case !ok:
		for _, tau := range periods {
			if err := ctx.Err(); err != nil {
				return SweepPoint{}, budget.Classify(err)
			}
			if pt, err := a.point(tau); err != nil || pt.Valid {
				return pt, err
			}
		}
	case feasible:
		if i, _ := slices.BinarySearchFunc(periods, t, ratio.Rat.Cmp); i < len(periods) {
			return a.point(periods[i])
		}
	}
	return SweepPoint{}, fmt.Errorf("capacity: no feasible period among %d candidates (fastest %v, slowest %v)",
		len(periods), periods[0], periods[len(periods)-1])
}

// point is the full analysis at tau as a sweep point, or At's error
// wrapped with the period.
func (a *Analysis) point(tau ratio.Rat) (SweepPoint, error) {
	res, err := a.At(tau)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("capacity: period %v: %w", tau, err)
	}
	return SweepPoint{Period: tau, Valid: res.Valid, Total: res.TotalCapacity(), Result: res}, nil
}

// context returns the options' context, or context.Background.
func (o SweepOptions) context() context.Context {
	if o.Context == nil {
		return context.Background()
	}
	return o.Context
}
