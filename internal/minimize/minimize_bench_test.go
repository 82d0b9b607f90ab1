package minimize

import (
	"testing"

	"vrdfcap/internal/quanta"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

var benchCap int64

// BenchmarkMinimizeSerial searches the Figure 1 pair under four workloads
// with long runs; each feasibility probe costs four simulations.
func BenchmarkMinimizeSerial(b *testing.B) {
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		b.Fatal(err)
	}
	workloads := []sim.Workloads{
		{buf: {Cons: quanta.Constant(2)}},
		{buf: {Cons: quanta.Constant(3)}},
		{buf: {Cons: quanta.Cycle(2, 3)}},
		{buf: {Cons: quanta.Uniform(taskgraph.MustQuanta(2, 3), 5)}},
	}
	check := DeadlockFreeCheck(g, "wb", 400, workloads)
	var probes, cached int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Search([]string{buf}, map[string]int64{buf: 64}, check)
		if err != nil {
			b.Fatal(err)
		}
		benchCap = res.Caps[buf]
		probes = res.Checks
		cached = res.CacheHits
	}
	b.ReportMetric(float64(probes), "probes_sim")
	b.ReportMetric(float64(cached), "probes_cached")
}
