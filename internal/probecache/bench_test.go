package probecache

import (
	"testing"

	"vrdfcap/internal/mp3"
)

// BenchmarkGraphKey fingerprints the sized §5 MP3 chain with the parts a
// minimisation adds, as every minimisation job does once.
func BenchmarkGraphKey(b *testing.B) {
	g, err := mp3.Graph()
	if err != nil {
		b.Fatal(err)
	}
	for i, c := range []int64{6015, 3263, 883} { // Equation (4)
		g.Buffers()[i].Capacity = c
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GraphKey(g, "minimize-throughput", "task=vDAC", "period=1/44100",
			"firings=2205", "workload=uniform:seed=1", "max-events=0")
	}
}
