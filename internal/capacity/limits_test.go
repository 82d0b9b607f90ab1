package capacity

import (
	"fmt"
	"strings"
	"testing"

	"vrdfcap/internal/graphio"
)

// longChainDoc returns an n-task chain in the text grammar: unit quanta,
// response times of half the period, the sink constrained.
func longChainDoc(n int) []byte {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "task t%d wcrt 1/2\n", i)
	}
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "buffer t%d -> t%d prod 1 cons 1\n", i, i+1)
	}
	fmt.Fprintf(&b, "constraint t%d period 1\n", n-1)
	return []byte(b.String())
}

// TestDefaultLimitsLongChain sizes the longest chain graphio.DefaultLimits
// admits, so a document a service accepts is one it can analyse: parsing
// validates the constraint and Compute derives the chain again, both
// linear in the chain.
func TestDefaultLimitsLongChain(t *testing.T) {
	n := graphio.DefaultLimits.MaxTasks
	doc := longChainDoc(n)
	g, c, err := graphio.DecodeAnyLimited(doc, graphio.DefaultLimits)
	if err != nil {
		t.Fatalf("%d-task document (%d bytes): %v", n, len(doc), err)
	}
	res, err := Compute(g, *c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid || len(res.Buffers) != n-1 {
		t.Fatalf("Compute: valid %v with %d buffers, want valid with %d", res.Valid, len(res.Buffers), n-1)
	}
}
