package exact

import (
	"reflect"
	"strings"
	"testing"

	"vrdfcap/internal/taskgraph"
)

// TestChainCertifierMatchesOneShot pins the compile-once contract: one
// certifier probed across a capacity grid — twice, to catch state leaking
// between calls — returns exactly the verdicts of the rebuild-per-call
// ChainDeadlockFree.
func TestChainCertifierMatchesOneShot(t *testing.T) {
	p1 := taskgraph.MustQuanta(3)
	c1 := taskgraph.MustQuanta(2, 3)
	p2 := taskgraph.MustQuanta(2, 3)
	c2 := taskgraph.MustQuanta(2)
	g := threeChain(t, p1, c1, p2, c2, 1, 1) // placeholder; every probe overrides

	cert, err := CompileChain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for cap1 := int64(3); cap1 <= 6; cap1++ {
			for cap2 := int64(3); cap2 <= 5; cap2++ {
				caps := map[string]int64{"a->b": cap1, "b->c": cap2}
				got, _, err := cert.Certify(caps)
				if err != nil {
					t.Fatal(err)
				}
				fresh := threeChain(t, p1, c1, p2, c2, cap1, cap2)
				want, _, err := ChainDeadlockFree(fresh, 0)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("round %d caps (%d, %d): certifier says %v, one-shot says %v",
						round, cap1, cap2, got, want)
				}
			}
		}
	}
}

// TestChainCertifierWitnessStableAcrossReuse pins that the reused state
// arena and its index cannot corrupt witness reconstruction: after
// an unrelated Certify call, a deadlocking probe returns the identical
// witness a fresh one-shot search finds.
func TestChainCertifierWitnessStableAcrossReuse(t *testing.T) {
	p1 := taskgraph.MustQuanta(3)
	c1 := taskgraph.MustQuanta(2, 3)
	p2 := taskgraph.MustQuanta(2, 3)
	c2 := taskgraph.MustQuanta(2)
	m1, err := MinCapacity(p1, c1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MinCapacity(p2, c2)
	if err != nil {
		t.Fatal(err)
	}

	cert, err := CompileChain(threeChain(t, p1, c1, p2, c2, 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Pollute the reusable state with a safe probe first.
	if ok, _, err := cert.Certify(map[string]int64{"a->b": m1 + 2, "b->c": m2 + 2}); err != nil || !ok {
		t.Fatalf("generous capacities unsafe: ok=%v err=%v", ok, err)
	}
	ok, got, err := cert.Certify(map[string]int64{"a->b": m1 - 1, "b->c": m2 + 10})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("chain below the pair minimum reported safe")
	}
	_, want, err := ChainDeadlockFree(threeChain(t, p1, c1, p2, c2, m1-1, m2+10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused certifier witness diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
}

func TestChainCertifierValidation(t *testing.T) {
	p := taskgraph.MustQuanta(2)
	cert, err := CompileChain(threeChain(t, p, p, p, p, 0, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cert.Certify(nil); err == nil || !strings.Contains(err.Error(), "no capacity") {
		t.Errorf("unsized buffer accepted: %v", err)
	}
	if _, _, err := cert.Certify(map[string]int64{"a->b": 4, "b->c": 4, "nope": 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown buffer") {
		t.Errorf("unknown override accepted: %v", err)
	}
	if _, _, err := cert.Certify(map[string]int64{"a->b": 4, "b->c": -2}); err == nil ||
		!strings.Contains(err.Error(), "no capacity") {
		t.Errorf("negative override accepted: %v", err)
	}
	// An override fixing the unsized buffer makes the same certifier
	// usable — capacities are per-probe, not per-compile.
	if ok, _, err := cert.Certify(map[string]int64{"a->b": 4, "b->c": 4}); err != nil || !ok {
		t.Errorf("constant-rate chain at capacity 4 should be safe: ok=%v err=%v", ok, err)
	}
	// The state guard still trips per probe.
	small, err := CompileChain(threeChain(t, p, p, p, p, 4, 4), 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := small.Certify(nil); err == nil || !strings.Contains(err.Error(), "guard") {
		t.Errorf("state guard did not trip: %v", err)
	}
}

// TestCertifyAllocs pins the arena reuse: a warm certifier decides a safe
// capacity without allocating, and a deadlocking one allocates only the
// witness it returns.
func TestCertifyAllocs(t *testing.T) {
	cert, err := CompileChain(threeChain(t, taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3),
		taskgraph.MustQuanta(2, 3), taskgraph.MustQuanta(2), 1, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	safe := map[string]int64{"a->b": 5, "b->c": 4}
	unsafe := map[string]int64{"a->b": 4, "b->c": 14}
	for _, c := range []struct {
		caps map[string]int64
		ok   bool
		max  float64
	}{{safe, true, 0}, {unsafe, false, 16}} {
		// AllocsPerRun's warm-up call sizes the arena and the table.
		allocs := testing.AllocsPerRun(20, func() {
			ok, _, err := cert.Certify(c.caps)
			if err != nil || ok != c.ok {
				t.Fatalf("Certify(%v) = %v, %v; want %v", c.caps, ok, err, c.ok)
			}
		})
		t.Logf("Certify(%v): %v allocs", c.caps, allocs)
		if allocs > c.max {
			t.Errorf("Certify(%v) allocates %v times; want at most %v", c.caps, allocs, c.max)
		}
	}
}
