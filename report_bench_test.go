package vrdfcap_test

import (
	"io"
	"os"
	"testing"

	"vrdfcap"
)

// BenchmarkWriteReport tracks the allocation cost of rendering an analysis
// report: the Figure 1 pair, and the §5 MP3 chain with its memory column.
func BenchmarkWriteReport(b *testing.B) {
	g, err := vrdfcap.Pair("wa", vrdfcap.Rat(1, 1), "wb", vrdfcap.Rat(1, 1),
		vrdfcap.Quanta(3), vrdfcap.Quanta(2, 3))
	if err != nil {
		b.Fatal(err)
	}
	pair, err := vrdfcap.Analyze(g, vrdfcap.Constraint{Task: "wb", Period: vrdfcap.Rat(3, 1)},
		vrdfcap.PolicyEquation4)
	if err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile("testdata/mp3.txt")
	if err != nil {
		b.Fatal(err)
	}
	g, c, err := vrdfcap.DecodeGraph(data)
	if err != nil {
		b.Fatal(err)
	}
	mp3, err := vrdfcap.Analyze(g, *c, vrdfcap.PolicyEquation4)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		res  *vrdfcap.Result
	}{{"pair", pair}, {"mp3", mp3}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := vrdfcap.WriteReport(io.Discard, bc.res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteDegradation(b *testing.B) {
	curve := &vrdfcap.DegradationCurve{Points: []vrdfcap.DegradationPoint{
		{Factor: vrdfcap.Rat(1, 1), OK: true},
		{Factor: vrdfcap.Rat(5, 4), OK: true},
		{Factor: vrdfcap.Rat(3, 2), OK: false, Reason: "periodic phase underrun: task sink firing 7"},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vrdfcap.WriteDegradation(io.Discard, curve); err != nil {
			b.Fatal(err)
		}
	}
}
