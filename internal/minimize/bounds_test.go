package minimize

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vrdfcap/internal/probecache"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/sim"
)

func TestBoundsDecide(t *testing.T) {
	b := &Bounds{
		Sufficient: map[string]int64{"x": 5, "y": 3},
		Necessary:  map[string]int64{"x": 2},
	}
	cases := []struct {
		name             string
		buffers          []string
		caps             []int64
		feasible, decide bool
	}{
		{"dominates sufficient", []string{"x", "y"}, []int64{5, 4}, true, true},
		{"equals sufficient", []string{"x", "y"}, []int64{5, 3}, true, true},
		{"other buffer order", []string{"y", "x"}, []int64{3, 5}, true, true},
		{"below necessary", []string{"x", "y"}, []int64{1, 100}, false, true},
		{"between bounds", []string{"x", "y"}, []int64{3, 2}, false, false},
		{"partial keys never sufficient", []string{"x"}, []int64{9}, false, false},
		{"extra keys never sufficient", []string{"x", "y", "z"}, []int64{9, 9, 1}, false, false},
	}
	for _, c := range cases {
		d := b.compile(c.buffers)
		feasible, decided := d.decide(c.caps)
		if decided != c.decide || (decided && feasible != c.feasible) {
			t.Errorf("%s: decide(%v over %v) = (%v, %v), want (%v, %v)",
				c.name, c.caps, c.buffers, feasible, decided, c.feasible, c.decide)
		}
	}
	var nilBounds *Bounds
	d := nilBounds.compile([]string{"x"})
	if _, decided := d.decide([]int64{1}); decided {
		t.Error("nil Bounds decided a probe")
	}
}

// decideByName is the name-keyed bound decision the compiled decider
// replaces, kept as the reference the differential test checks it against.
func decideByName(b *Bounds, caps map[string]int64) (feasible, decided bool) {
	if b == nil {
		return false, false
	}
	for name, min := range b.Necessary {
		if c, ok := caps[name]; ok && c < min {
			return false, true
		}
	}
	if len(b.Sufficient) > 0 && len(b.Sufficient) == len(caps) {
		dominates := true
		for name, suf := range b.Sufficient {
			c, ok := caps[name]
			if !ok || c < suf {
				dominates = false
				break
			}
		}
		if dominates {
			return true, true
		}
	}
	return false, false
}

// TestCompiledBoundsMatchNameKeyed is a differential test: over table
// cases and seeded random bounds, buffer lists and probes, the decider
// compiled for a search's buffer order reaches exactly the verdicts of the
// name-keyed reference.
func TestCompiledBoundsMatchNameKeyed(t *testing.T) {
	check := func(t *testing.T, b *Bounds, buffers []string, caps []int64) {
		t.Helper()
		named := make(map[string]int64, len(buffers))
		for i, name := range buffers {
			named[name] = caps[i]
		}
		wantF, wantD := decideByName(b, named)
		d := b.compile(buffers)
		gotF, gotD := d.decide(caps)
		if gotD != wantD || (gotD && gotF != wantF) {
			t.Errorf("bounds %+v over %v at %v: compiled (%v, %v), name-keyed (%v, %v)",
				b, buffers, caps, gotF, gotD, wantF, wantD)
		}
	}
	xy := []string{"x", "y"}
	table := []struct {
		name string
		b    *Bounds
		caps [][]int64
	}{
		{"nil bounds", nil, [][]int64{{1, 1}, {9, 9}}},
		{"empty maps", &Bounds{Sufficient: map[string]int64{}, Necessary: map[string]int64{}}, [][]int64{{1, 1}, {0, -3}}},
		{"necessary outside the search", &Bounds{Necessary: map[string]int64{"z": 50, "x": 2}}, [][]int64{{1, 9}, {2, 1}, {49, 49}}},
		{"zero and negative entries", &Bounds{
			Sufficient: map[string]int64{"x": 0, "y": -2},
			Necessary:  map[string]int64{"x": 0, "y": -1},
		}, [][]int64{{0, 0}, {-1, 5}, {3, -1}, {3, -2}, {0, -3}}},
		{"sufficient over other keys of the same length", &Bounds{Sufficient: map[string]int64{"x": 1, "z": 1}}, [][]int64{{5, 5}, {1, 1}}},
		{"sufficient missing a buffer", &Bounds{Sufficient: map[string]int64{"x": 1}}, [][]int64{{5, 5}, {0, 5}}},
		{"sufficient over more buffers", &Bounds{Sufficient: map[string]int64{"x": 1, "y": 1, "z": 1}}, [][]int64{{5, 5}}},
	}
	for _, c := range table {
		t.Run(c.name, func(t *testing.T) {
			for _, caps := range c.caps {
				check(t, c.b, xy, caps)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		names := []string{"a", "b", "c", "d", "e"}
		val := func() int64 { return rng.Int63n(9) - 2 }
		for trial := 0; trial < 2000; trial++ {
			perm := rng.Perm(len(names))
			buffers := make([]string, 1+rng.Intn(len(names)))
			for i := range buffers {
				buffers[i] = names[perm[i]]
			}
			b := &Bounds{}
			if rng.Intn(4) > 0 {
				b.Necessary = map[string]int64{}
				for _, n := range names {
					if rng.Intn(2) == 0 {
						b.Necessary[n] = val()
					}
				}
			}
			switch rng.Intn(4) {
			case 0: // none
			case 1: // exactly the search's buffers
				b.Sufficient = map[string]int64{}
				for _, n := range buffers {
					b.Sufficient[n] = val()
				}
			default: // any subset of all names
				b.Sufficient = map[string]int64{}
				for _, n := range names {
					if rng.Intn(2) == 0 {
						b.Sufficient[n] = val()
					}
				}
			}
			for probe := 0; probe < 8; probe++ {
				caps := make([]int64, len(buffers))
				for i := range caps {
					caps[i] = val()
				}
				check(t, b, buffers, caps)
			}
		}
	})
}

// TestSearchWithBoundsIdenticalCaps pins the pruning contract: sound bounds
// change only the probe accounting, never the assignment found.
func TestSearchWithBoundsIdenticalCaps(t *testing.T) {
	g := figure1Graph(t)
	mk := func() CheckFunc {
		return DeadlockFreeCheck(g, "wb", 200, []sim.Workloads{
			{buf: {Cons: quanta.Cycle(2, 3)}},
		})
	}
	plain, err := Search([]string{buf}, map[string]int64{buf: 20}, mk())
	if err != nil {
		t.Fatal(err)
	}
	// The true minimum is 5 (alternating 2,3): capacity 20 is known
	// feasible, anything below 3 is infeasible (a production quantum of 3
	// can never fit).
	bounds := &Bounds{
		Sufficient: map[string]int64{buf: 20},
		Necessary:  map[string]int64{buf: 3},
	}
	pruned, err := Search([]string{buf}, map[string]int64{buf: 20}, mk(), Options{Bounds: bounds})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Caps, pruned.Caps) {
		t.Errorf("bounds changed the assignment: plain %v, pruned %v", plain.Caps, pruned.Caps)
	}
	if pruned.BoundHits == 0 {
		t.Error("no probe was decided by the bounds")
	}
	if plain.BoundHits != 0 {
		t.Errorf("BoundHits = %d without Options.Bounds", plain.BoundHits)
	}
	if pruned.Checks >= plain.Checks {
		t.Errorf("bounds did not reduce simulated checks: plain %d, pruned %d", plain.Checks, pruned.Checks)
	}
}

// TestSearchRejectsLyingBounds pins the consistency guard: bound verdicts
// are recorded in the monotone frontier, so a bound that contradicts a
// verdict the simulations already established — here, via a shared cache
// from a bound-free search — is surfaced as a frontier error, never
// silently accepted.
func TestSearchRejectsLyingBounds(t *testing.T) {
	g := figure1Graph(t)
	mk := func() CheckFunc {
		return DeadlockFreeCheck(g, "wb", 200, []sim.Workloads{
			{buf: {Cons: quanta.Cycle(2, 3)}},
		})
	}
	shared := probecache.NewFrontier([]string{buf})
	if _, err := Search([]string{buf}, map[string]int64{buf: 20}, mk(), Options{Cache: shared}); err != nil {
		t.Fatal(err)
	}
	// The first search simulated capacity 5 feasible. A bound claiming 6
	// is necessary marks 5 infeasible, which the frontier must reject.
	lying := &Bounds{Necessary: map[string]int64{buf: 6}}
	_, err := Search([]string{buf}, map[string]int64{buf: 20}, mk(), Options{Cache: shared, Bounds: lying})
	if err == nil {
		t.Fatal("lying necessary bound produced no error")
	}
	if !strings.Contains(err.Error(), "not monotone") {
		t.Errorf("unexpected error for lying bounds: %v", err)
	}
}

// TestProbeStatsAccumulate pins the effort accounting: a checkpointing
// search records warm and cold resets and never counts resumed events as
// simulated.
func TestProbeStatsAccumulate(t *testing.T) {
	g := figure1Graph(t)
	stats := &ProbeStats{}
	opts := Options{Checkpoints: 4, Stats: stats}
	check := DeadlockFreeCheck(g, "wb", 600, []sim.Workloads{
		{buf: {Cons: quanta.Cycle(2, 3)}},
	}, opts)
	res, err := Search([]string{buf}, map[string]int64{buf: 20}, check, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Caps[buf] != 5 {
		t.Fatalf("minimal capacity = %d, want 5", res.Caps[buf])
	}
	sim, resumed := stats.SimEvents.Load(), stats.ResumedEvents.Load()
	warm, cold := stats.WarmResets.Load(), stats.ColdResets.Load()
	if sim <= 0 {
		t.Errorf("SimEvents = %d, want > 0", sim)
	}
	if cold == 0 {
		t.Error("no cold reset recorded; the first probe must be cold")
	}
	if warm > 0 && resumed <= 0 {
		t.Errorf("warm resets %d with %d resumed events", warm, resumed)
	}
	if int(warm+cold) != res.Checks {
		t.Errorf("resets %d+%d != simulated checks %d", warm, cold, res.Checks)
	}
}
