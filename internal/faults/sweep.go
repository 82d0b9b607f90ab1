package faults

import (
	"context"
	"fmt"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/parallel"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// DegradationConfig describes one fault-intensity sweep: verify a sized
// graph at every overrun factor in Factors and report where the throughput
// guarantee first breaks.
type DegradationConfig struct {
	// Graph is the fully sized task graph (every buffer capacity set).
	Graph *taskgraph.Graph
	// Constraint is the throughput constraint to verify at each point.
	Constraint taskgraph.Constraint
	// Factors lists the overrun factors to sweep, each ≥ 1; factor 1 is
	// the nominal (fault-free) point. Build a range with FactorRange.
	Factors []ratio.Rat
	// OverrunEvery is the stall cadence forwarded to Spec (default 7).
	OverrunEvery int64
	// Jitter adds admissible jitter below the overruns (see Spec.Jitter).
	Jitter ratio.Rat
	// Resolution quantises the jitter (see Spec.Resolution).
	Resolution int64
	// Seed selects the jitter stream and the default workloads.
	Seed uint64
	// Tasks restricts injection (see Spec.Tasks).
	Tasks []string
	// Firings is the verification horizon per point (see
	// sim.VerifyOptions.Firings).
	Firings int64
	// Workloads supplies buffer quanta; nil draws uniform workloads from
	// Seed.
	Workloads sim.Workloads
	// Workers bounds the sweep's parallelism (<= 0 means GOMAXPROCS).
	Workers int
	// Context, if non-nil, cancels or time-bounds the sweep
	// cooperatively. Errors carry the typed budget sentinels.
	Context context.Context
	// Effort, if non-nil, counts the simulation work of every point (see
	// sim.VerifyOptions.Effort).
	Effort *sim.Effort
}

// DegradationPoint is the verification outcome at one overrun factor.
type DegradationPoint struct {
	// Factor is the overrun factor of this point.
	Factor ratio.Rat
	// OK reports whether the sizing still met the throughput constraint.
	OK bool
	// Reason is the failure reason when !OK.
	Reason string
	// Underrun/Deadlock carry the structured diagnostics of a failing
	// point (see sim.Verification).
	Underrun *sim.UnderrunInfo
	Deadlock *sim.DeadlockInfo
}

// DegradationCurve is the outcome of a sweep, in the order of
// DegradationConfig.Factors.
type DegradationCurve struct {
	Points []DegradationPoint
}

// FirstFailure returns the first failing point in sweep order, or nil if
// every point passed.
func (c *DegradationCurve) FirstFailure() *DegradationPoint {
	for i := range c.Points {
		if !c.Points[i].OK {
			return &c.Points[i]
		}
	}
	return nil
}

// Slack returns the margin before degradation: the largest factor in the
// passing prefix of the curve, minus 1. A curve whose first point already
// fails has slack −1 (even the nominal point is broken); an all-passing
// curve reports the last factor's slack, a lower bound.
func (c *DegradationCurve) Slack() ratio.Rat {
	slack := ratio.FromInt(-1)
	for _, p := range c.Points {
		if !p.OK {
			break
		}
		slack = p.Factor.Sub(ratio.FromInt(1))
	}
	return slack
}

// DegradationPoints is the number of overrun factors a degradation sweep
// of the CLIs and the service evaluates, from 1 up to the requested
// maximum.
const DegradationPoints = 9

// FactorRange builds n evenly spaced overrun factors from lo to hi
// inclusive (n ≥ 2, lo < hi).
func FactorRange(lo, hi ratio.Rat, n int) []ratio.Rat {
	if n < 2 || !lo.Less(hi) {
		return []ratio.Rat{lo}
	}
	step := hi.Sub(lo).DivInt(int64(n - 1))
	out := make([]ratio.Rat, n)
	for i := range out {
		out[i] = lo.Add(step.MulInt(int64(i)))
	}
	out[n-1] = hi
	return out
}

// Sweep verifies the graph at every factor and assembles the degradation
// curve. Points are independent verifications evaluated in parallel;
// results are deterministic in (config, seed) regardless of Workers.
func Sweep(cfg DegradationConfig) (*DegradationCurve, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("faults: Sweep needs a graph")
	}
	if len(cfg.Factors) == 0 {
		return nil, fmt.Errorf("faults: Sweep needs at least one factor")
	}
	one := ratio.FromInt(1)
	for _, f := range cfg.Factors {
		if f.Less(one) {
			return nil, fmt.Errorf("faults: overrun factor %v below 1", f)
		}
	}
	workloads := cfg.Workloads
	if workloads == nil {
		workloads = sim.UniformWorkloads(cfg.Graph, int64(cfg.Seed))
	}
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	points, err := parallel.Map(ctx, cfg.Workers, len(cfg.Factors), func(i int) (DegradationPoint, error) {
		factor := cfg.Factors[i]
		spec := Spec{
			Jitter:       cfg.Jitter,
			Resolution:   cfg.Resolution,
			OverrunEvery: cfg.OverrunEvery,
			Seed:         cfg.Seed,
			Tasks:        cfg.Tasks,
		}
		// Factor 1 is the nominal point: no stall, exec stays ≤ ρ.
		if one.Less(factor) {
			spec.Overrun = factor
		}
		inj, err := New(cfg.Graph, spec)
		if err != nil {
			return DegradationPoint{}, err
		}
		opts := sim.VerifyOptions{
			Firings:    cfg.Firings,
			Workloads:  workloads,
			LiteResult: true,
			Context:    ctx,
			Effort:     cfg.Effort,
		}
		inj.Apply(&opts)
		v, err := sim.VerifyThroughput(cfg.Graph, cfg.Constraint, opts)
		if err != nil {
			return DegradationPoint{}, fmt.Errorf("faults: factor %v: %w", factor, err)
		}
		return DegradationPoint{
			Factor:   factor,
			OK:       v.OK,
			Reason:   v.Reason,
			Underrun: v.Underrun,
			Deadlock: v.Deadlock,
		}, nil
	})
	if err != nil {
		return nil, budget.Classify(err)
	}
	return &DegradationCurve{Points: points}, nil
}
