package graphio

import (
	"testing"

	"vrdfcap/internal/taskgraph"
)

// benchGraph parses the MP3 chain once for the encode benchmarks.
func benchGraph(b *testing.B) (*taskgraph.Graph, *taskgraph.Constraint) {
	b.Helper()
	g, c, err := DecodeText([]byte(mp3Text))
	if err != nil {
		b.Fatal(err)
	}
	return g, c
}

// BenchmarkEncodeJSON pins the pooled JSON encode path: the scratch
// document, buffer and encoder come from a pool, so steady state pays only
// the returned copy and the per-buffer quanta snapshots.
func BenchmarkEncodeJSON(b *testing.B) {
	g, c := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(g, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeText pins the text encoder on the MP3 document: it
// appends into a stack scratch, so the exact-length copy it returns is the
// one allocation.
func BenchmarkEncodeText(b *testing.B) {
	g, c := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodedSink = EncodeText(g, c)
	}
}

// encodedSink keeps BenchmarkEncodeText's result live.
var encodedSink []byte

// BenchmarkDecodeText pins the text parser on the MP3 document.
func BenchmarkDecodeText(b *testing.B) {
	data := []byte(mp3Text)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeText(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeAnyLimited pins the limited decode the service uses per
// request; the limit checks must stay O(1) overhead over DecodeText.
func BenchmarkDecodeAnyLimited(b *testing.B) {
	data := []byte(mp3Text)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeAnyLimited(data, DefaultLimits); err != nil {
			b.Fatal(err)
		}
	}
}
