package vrdfcap

import (
	"context"

	"vrdfcap/internal/arbiter"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/exact"
	"vrdfcap/internal/faults"
	"vrdfcap/internal/ratio"
)

// Extended analyses layered on the core algorithm.
type (
	// ChainSchedule is the chain-wide anchoring of the bound schedule:
	// analytic periodic offset for the sink and an end-to-end latency
	// bound.
	ChainSchedule = capacity.ChainSchedule
	// SweepPoint is one point of a throughput/buffer trade-off curve:
	// period, validity and total capacity. Only MinimalFeasiblePeriod
	// fills its Result; a SweepPeriods point leaves it nil (Analyze gives
	// a point's full analysis).
	SweepPoint = capacity.SweepPoint
	// TDM and RoundRobin derive worst-case response times κ from
	// worst-case execution times and arbiter settings (§3.1).
	TDM        = arbiter.TDM
	RoundRobin = arbiter.RoundRobin
	// Arbiter is any rate-independent response-time guarantee.
	Arbiter = arbiter.Arbiter

	// Fault injection: deterministic seeded timing faults (jitter within
	// (0, ρ], overrun stalls beyond ρ) and the degradation sweep that
	// measures how much overrun a sizing absorbs.
	FaultSpec         = faults.Spec
	FaultInjector     = faults.Injector
	DegradationConfig = faults.DegradationConfig
	DegradationPoint  = faults.DegradationPoint
	DegradationCurve  = faults.DegradationCurve
)

// AnchoredSchedule materialises the absolute-time schedule whose existence
// a sink-constrained analysis proves: per-buffer bound lines, an offset at
// which the strictly periodic sink is guaranteed feasible, and the latency
// bound from the source's first start to the sink's first finish.
func AnchoredSchedule(res *Result) (*ChainSchedule, error) {
	return capacity.Anchored(res)
}

// SweepPeriods analyses the chain at every candidate period, producing the
// throughput/buffer trade-off curve for design-space exploration. One
// serial loop decides the periods from the chain's compiled closed form.
func SweepPeriods(g *Graph, task string, periods []RatNum, p Policy) ([]SweepPoint, error) {
	return capacity.SweepPeriods(g, task, periods, p)
}

// SweepOptions tunes the budget of SweepPeriodsOpt.
type SweepOptions struct {
	// Context, if non-nil, cancels or time-bounds the sweep between
	// periods; the typed errors satisfy ErrCanceled and
	// ErrBudgetExceeded.
	Context context.Context
}

// SweepPeriodsOpt is SweepPeriods with explicit options.
func SweepPeriodsOpt(g *Graph, task string, periods []RatNum, p Policy, opts SweepOptions) ([]SweepPoint, error) {
	return capacity.SweepPeriodsOpt(g, task, periods, p, capacity.SweepOptions{Context: opts.Context})
}

// MinimalFeasiblePeriod returns the least feasible candidate period, in
// any candidate order: the least candidate at or above the chain's
// validity threshold, with the full analysis there in its Result.
func MinimalFeasiblePeriod(g *Graph, task string, periods []RatNum, p Policy) (SweepPoint, error) {
	return capacity.MinimalFeasiblePeriod(g, task, periods, p)
}

// ResponseTime derives κ for a task with the given worst-case execution
// time under an arbiter — the §3.1 assumption made concrete.
func ResponseTime(a Arbiter, wcet RatNum) (RatNum, error) {
	return a.ResponseTime(wcet)
}

// ExactPairMinimum returns the true minimum deadlock-free capacity of a
// producer–consumer pair over every admissible quanta sequence, by
// exhaustive adversarial state-space search (small quanta sets only; see
// internal/exact for the guard).
func ExactPairMinimum(prod, cons QuantaSet) (int64, error) {
	return exact.MinCapacity(prod, cons)
}

// CertifyDeadlockFree exhaustively checks a sized chain against every
// sequence of coupled per-firing quanta choices — a certificate stronger
// than any finite simulation, feasible for small quanta sets and
// capacities. Returns the adversarial witness on failure.
func CertifyDeadlockFree(sized *Graph, maxStates int) (bool, *exact.ChainWitness, error) {
	return exact.ChainDeadlockFree(sized, maxStates)
}

// NewFaultInjector validates a fault spec against the graph and compiles
// the per-task execution-time models; Apply the injector to a VerifyOptions
// before calling Verify.
func NewFaultInjector(g *Graph, spec FaultSpec) (*FaultInjector, error) {
	return faults.New(g, spec)
}

// SweepDegradation verifies a sized graph at every overrun factor of the
// config and reports the degradation curve: where the throughput guarantee
// first breaks and how much overrun slack the sizing had.
func SweepDegradation(cfg DegradationConfig) (*DegradationCurve, error) {
	return faults.Sweep(cfg)
}

// OverrunFactors builds n evenly spaced overrun factors from lo to hi for
// SweepDegradation.
func OverrunFactors(lo, hi RatNum, n int) []RatNum {
	return faults.FactorRange(lo, hi, n)
}

// BurstyWorkloads builds the bursty adversarial workload (runs of the
// minimum quantum followed by runs of the maximum) for every buffer with
// variable quanta.
func BurstyWorkloads(g *Graph, lowLen, highLen int64) Workloads {
	return faults.BurstyWorkloads(g, lowLen, highLen)
}

// GeometricPeriods returns n periods start, start·num/den, start·(num/den)²,
// … — a convenient sweep axis (num/den > 1 relaxes the constraint).
func GeometricPeriods(start RatNum, num, den int64, n int) ([]RatNum, error) {
	if n <= 0 {
		return nil, errBadSweep
	}
	step, err := ratio.New(num, den)
	if err != nil {
		return nil, err
	}
	out := make([]RatNum, n)
	cur := start
	for i := range out {
		out[i] = cur
		next, err := cur.MulChecked(step)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return out, nil
}

var errBadSweep = errString("vrdfcap: sweep needs a positive number of periods")

type errString string

func (e errString) Error() string { return string(e) }
