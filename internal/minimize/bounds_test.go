package minimize

import (
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
		caps             map[string]int64
		feasible, decide bool
	}{
		{"dominates sufficient", map[string]int64{"x": 5, "y": 4}, true, true},
		{"equals sufficient", map[string]int64{"x": 5, "y": 3}, true, true},
		{"below necessary", map[string]int64{"x": 1, "y": 100}, false, true},
		{"between bounds", map[string]int64{"x": 3, "y": 2}, false, false},
		{"partial keys never sufficient", map[string]int64{"x": 9}, false, false},
		{"extra keys never sufficient", map[string]int64{"x": 9, "y": 9, "z": 1}, false, false},
	}
	for _, c := range cases {
		feasible, decided := b.Decide(c.caps)
		if decided != c.decide || (decided && feasible != c.feasible) {
			t.Errorf("%s: Decide(%v) = (%v, %v), want (%v, %v)",
				c.name, c.caps, feasible, decided, c.feasible, c.decide)
		}
	}
	var nilBounds *Bounds
	if _, decided := nilBounds.Decide(map[string]int64{"x": 1}); decided {
		t.Error("nil Bounds decided a probe")
	}
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
