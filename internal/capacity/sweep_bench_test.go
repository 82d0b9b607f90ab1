package capacity

import (
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

type sweepFixture struct {
	g    *taskgraph.Graph
	task string
}

func benchmarkSweepFixture(b *testing.B) (sweepFixture, []ratio.Rat) {
	cfg := graphgen.Defaults(7)
	cfg.MinTasks, cfg.MaxTasks = 40, 40
	g, c, err := graphgen.Random(cfg)
	if err != nil {
		b.Fatal(err)
	}
	periods := make([]ratio.Rat, 64)
	for k := range periods {
		// τ·(k+20)/20: starts at the constraint period (feasible by
		// construction) and relaxes additively from there.
		periods[k] = c.Period.MulInt(int64(k + 20)).DivInt(20)
	}
	return sweepFixture{g: g, task: c.Task}, periods
}

// BenchmarkSweepPeriods is the serial design-space sweep of 64 periods
// over a 40-stage chain that the CI bench gate tracks for allocs/op
// regressions. The sweep compiles the chain once (CompileAnalysis) and
// decides every period from the compiled closed form.
func BenchmarkSweepPeriods(b *testing.B) {
	fx, periods := benchmarkSweepFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := SweepPeriods(fx.g, fx.task, periods, PolicyEquation4)
		if err != nil {
			b.Fatal(err)
		}
		if !pts[0].Valid {
			b.Fatalf("constraint period %v reported infeasible", pts[0].Period)
		}
	}
}

// smallChains returns 16 graphgen chains of 4–8 tasks, the shape of the
// chain-sweep ledger workload, with their constraints.
func smallChains(b *testing.B) ([]*taskgraph.Graph, []taskgraph.Constraint) {
	gs := make([]*taskgraph.Graph, 16)
	cons := make([]taskgraph.Constraint, len(gs))
	for i := range gs {
		g, c, err := graphgen.Random(graphgen.Config{
			Seed: int64(i), MinTasks: 4, MaxTasks: 8, MaxQuantum: 8, MaxSetSize: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		gs[i], cons[i] = g, c
	}
	return gs, cons
}

// BenchmarkSweepPeriodsSmall mirrors the sweep of one cold chain-sweep
// job: each smallChains chain swept over the 64-point k/32·τ grid. Unlike
// the 40-stage fixture above, roughly half of these grid points are
// infeasible, so diagnostics and per-period set-up weigh as they do in
// practice.
func BenchmarkSweepPeriodsSmall(b *testing.B) {
	gs, cons := smallChains(b)
	grids := make([][]ratio.Rat, len(gs))
	for j, c := range cons {
		grids[j] = chainSweepGrid(c.Period)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range gs {
			pts, err := SweepPeriods(g, cons[j].Task, grids[j], PolicyEquation4)
			if err != nil {
				b.Fatal(err)
			}
			if !pts[len(pts)-1].Valid {
				b.Fatalf("chain %d infeasible at 2τ", j)
			}
		}
	}
}

// BenchmarkMinimalFeasiblePeriod mirrors the minimal-period query of one
// chain-sweep job: each smallChains chain queried on its fine grid
// (fineSweepGrid), 64 periods from the last infeasible to the first
// feasible point of the k/32·τ grid.
func BenchmarkMinimalFeasiblePeriod(b *testing.B) {
	gs, cons := smallChains(b)
	grids := make([][]ratio.Rat, len(gs))
	for j, c := range cons {
		grids[j] = fineSweepGrid(b, gs[j], c.Task, c.Period)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range gs {
			pt, err := MinimalFeasiblePeriod(g, cons[j].Task, grids[j], PolicyEquation4)
			if err != nil {
				b.Fatal(err)
			}
			if !pt.Valid {
				b.Fatalf("chain %d: minimal period %v infeasible", j, pt.Period)
			}
		}
	}
}
