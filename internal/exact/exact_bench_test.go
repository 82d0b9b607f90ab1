package exact

import (
	"testing"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// BenchmarkExactPairMinCapacity measures the pair search: all capacity
// probes of one MinCapacity call share one state arena and its index.
func BenchmarkExactPairMinCapacity(b *testing.B) {
	prod := taskgraph.MustQuanta(2, 3, 5)
	cons := taskgraph.MustQuanta(2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		min, err := MinCapacity(prod, cons)
		if err != nil {
			b.Fatal(err)
		}
		if min <= 0 {
			b.Fatal("non-positive minimum")
		}
	}
}

// BenchmarkChainCertify measures the compiled chain certifier probing a
// grid of capacity assignments on one compiled chain — the exact-search
// analogue of the simulator's compile-once Reset/Run reuse.
func BenchmarkChainCertify(b *testing.B) {
	p1 := taskgraph.MustQuanta(3)
	c1 := taskgraph.MustQuanta(2, 3)
	p2 := taskgraph.MustQuanta(2, 3)
	c2 := taskgraph.MustQuanta(2)
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{
			{Name: "a", WCRT: ratio.One}, {Name: "b", WCRT: ratio.One},
			{Name: "c", WCRT: ratio.One},
		},
		[]taskgraph.Link{
			{Prod: p1, Cons: c1, Capacity: 1},
			{Prod: p2, Cons: c2, Capacity: 1},
		})
	if err != nil {
		b.Fatal(err)
	}
	cert, err := CompileChain(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	caps := map[string]int64{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unsafe := 0
		for cap1 := int64(4); cap1 <= 5; cap1++ {
			for cap2 := int64(3); cap2 <= 4; cap2++ {
				caps["a->b"], caps["b->c"] = cap1, cap2
				ok, _, err := cert.Certify(caps)
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					unsafe++
				}
			}
		}
		if unsafe == 0 || unsafe == 4 {
			b.Fatalf("grid should mix verdicts, got %d unsafe", unsafe)
		}
	}
}
