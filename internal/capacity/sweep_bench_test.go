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

// benchmarkSweep sweeps 64 periods over a 40-stage chain; per-period
// analysis cost dominates the pool overhead, so the parallel variant
// approaches a GOMAXPROCS-fold speedup on multi-core runners. The sweep
// compiles the chain once (CompileAnalysis) and probes the compiled
// analysis per period; the nil Cache keeps the measurement free of
// cross-run verdict caching so allocs/op is deterministic for the CI bench
// gate.
func benchmarkSweep(b *testing.B, workers int) {
	fx, periods := benchmarkSweepFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := SweepPeriodsOpt(fx.g, fx.task, periods, PolicyEquation4,
			SweepOptions{Parallel: workers})
		if err != nil {
			b.Fatal(err)
		}
		if !pts[0].Valid {
			b.Fatalf("constraint period %v reported infeasible", pts[0].Period)
		}
	}
}

// BenchmarkSweepPeriods is the serial design-space sweep the CI bench
// gate tracks for allocs/op regressions.
func BenchmarkSweepPeriods(b *testing.B)  { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, 0) }

// BenchmarkSweepPeriodsSmall mirrors one cold job of the chain-sweep
// ledger workload: short graphgen chains (4–8 tasks), each swept serially
// over the 64-point k/32·τ grid with caching off. Unlike the 40-stage
// fixture above, roughly half of these grid points are infeasible, so
// diagnostics and per-period set-up weigh as they do in practice.
func BenchmarkSweepPeriodsSmall(b *testing.B) {
	const chains = 16
	gs := make([]*taskgraph.Graph, chains)
	tasks := make([]string, chains)
	grids := make([][]ratio.Rat, chains)
	for i := range gs {
		g, c, err := graphgen.Random(graphgen.Config{
			Seed: int64(i), MinTasks: 4, MaxTasks: 8, MaxQuantum: 8, MaxSetSize: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		gs[i], tasks[i], grids[i] = g, c.Task, chainSweepGrid(c.Period)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, g := range gs {
			pts, err := SweepPeriodsOpt(g, tasks[j], grids[j], PolicyEquation4,
				SweepOptions{Parallel: 1})
			if err != nil {
				b.Fatal(err)
			}
			if !pts[len(pts)-1].Valid {
				b.Fatalf("chain %d infeasible at 2τ", j)
			}
		}
	}
}
