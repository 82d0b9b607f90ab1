package probecache

import (
	"strings"
	"testing"

	"vrdfcap/internal/ratio"
)

func TestFrontierDominance(t *testing.T) {
	c := NewFrontier([]string{"a", "b"})
	if _, hit := c.Lookup([]int64{3, 3}); hit {
		t.Fatal("empty cache answered a probe")
	}
	if err := c.Insert([]int64{3, 4}, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert([]int64{2, 4}, false); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b     int64
		feasible bool
		hit      bool
	}{
		{3, 4, true, true},   // exactly the feasible entry
		{5, 9, true, true},   // dominates it
		{2, 4, false, true},  // exactly the infeasible entry
		{1, 2, false, true},  // dominated by it
		{2, 9, false, false}, // between the frontiers: must simulate
		{3, 3, false, false},
	}
	for _, tc := range cases {
		feasible, hit := c.Lookup([]int64{tc.a, tc.b})
		if hit != tc.hit || (hit && feasible != tc.feasible) {
			t.Errorf("Lookup(a:%d, b:%d) = (%v, %v), want (%v, %v)",
				tc.a, tc.b, feasible, hit, tc.feasible, tc.hit)
		}
	}
	hits, misses := c.Counters()
	if hits != 4 || misses != 3 {
		t.Errorf("counters = (%d hits, %d misses), want (4, 3)", hits, misses)
	}
}

func TestFrontiersStayMinimal(t *testing.T) {
	c := NewFrontier([]string{"a", "b"})
	// A tighter feasible vector must replace the looser one it dominates.
	for _, v := range [][]int64{{5, 5}, {3, 5}, {3, 4}} {
		if err := c.Insert(v, true); err != nil {
			t.Fatal(err)
		}
	}
	if f, _ := c.Size(); f != 1 {
		t.Errorf("feasible frontier has %d entries, want 1: %v", f, c.feasible)
	}
	// Incomparable vectors coexist on the frontier.
	if err := c.Insert([]int64{2, 9}, true); err != nil {
		t.Fatal(err)
	}
	if f, _ := c.Size(); f != 2 {
		t.Errorf("incomparable vector pruned: %v", c.feasible)
	}
	// Symmetrically for the infeasible frontier: larger dominates.
	for _, v := range [][]int64{{1, 1}, {1, 3}, {2, 3}} {
		if err := c.Insert(v, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, inf := c.Size(); inf != 1 {
		t.Errorf("infeasible frontier has %d entries, want 1: %v", inf, c.infeasible)
	}
}

func TestFrontierDetectsNonMonotoneCheck(t *testing.T) {
	c := NewFrontier([]string{"a"})
	if err := c.Insert([]int64{4}, false); err != nil {
		t.Fatal(err)
	}
	err := c.Insert([]int64{3}, true)
	if err == nil || !strings.Contains(err.Error(), "not monotone") {
		t.Errorf("feasible-below-infeasible accepted: %v", err)
	}
	c2 := NewFrontier([]string{"a"})
	if err := c2.Insert([]int64{3}, true); err != nil {
		t.Fatal(err)
	}
	err = c2.Insert([]int64{4}, false)
	if err == nil || !strings.Contains(err.Error(), "not monotone") {
		t.Errorf("infeasible-above-feasible accepted: %v", err)
	}
}

// TestFrontierInsertCopiesVector pins that Insert keeps a copy: a search
// probes one capacity vector that it mutates in place, so a frontier that
// kept the caller's slice would change its verdicts behind its back.
func TestFrontierInsertCopiesVector(t *testing.T) {
	c := NewFrontier([]string{"a", "b"})
	feasible := []int64{3, 4}
	infeasible := []int64{2, 2}
	if err := c.Insert(feasible, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(infeasible, false); err != nil {
		t.Fatal(err)
	}
	feasible[0], feasible[1] = 9, 9
	infeasible[0], infeasible[1] = 0, 0
	cases := []struct {
		a, b     int64
		feasible bool
		hit      bool
	}{
		{3, 4, true, true},
		{2, 2, false, true},
		{1, 2, false, true},
		{8, 8, true, true},
		{3, 3, false, false},
	}
	for _, tc := range cases {
		feasible, hit := c.Lookup([]int64{tc.a, tc.b})
		if hit != tc.hit || (hit && feasible != tc.feasible) {
			t.Errorf("after mutating the inserted slices, Lookup(%d, %d) = (%v, %v), want (%v, %v)",
				tc.a, tc.b, feasible, hit, tc.feasible, tc.hit)
		}
	}
	if err := c.SelfCheck(); err != nil {
		t.Error(err)
	}
	if err := c.Insert([]int64{1}, true); err == nil {
		t.Error("a vector of the wrong length was inserted")
	}
}

func TestFrontierSameKeys(t *testing.T) {
	c := NewFrontier([]string{"a", "b"})
	if !c.SameKeys([]string{"a", "b"}) {
		t.Error("identical order rejected")
	}
	for _, bad := range [][]string{{"b", "a"}, {"a"}, {"a", "b", "c"}, nil} {
		if c.SameKeys(bad) {
			t.Errorf("order %v accepted", bad)
		}
	}
}

func r(num, den int64) ratio.Rat { return ratio.MustNew(num, den) }

func TestPeriodsExactAndDominance(t *testing.T) {
	p := NewPeriods()
	if _, hit := p.Probe(r(1, 1)); hit {
		t.Fatal("empty cache answered a probe")
	}
	p.Insert(r(2, 1), Verdict{Valid: true, Total: 7})
	p.Insert(r(1, 2), Verdict{Valid: false})

	cases := []struct {
		period     ratio.Rat
		valid, hit bool
		total      int64
	}{
		{r(2, 1), true, true, 7},   // exact: the recorded Total is carried
		{r(3, 1), true, true, 0},   // relaxed beyond a valid period: no Total
		{r(1, 2), false, true, 0},  // exact infeasible
		{r(1, 4), false, true, 0},  // tighter than an infeasible period
		{r(1, 1), false, false, 0}, // between the frontiers: must analyse
	}
	for _, tc := range cases {
		v, hit := p.Probe(tc.period)
		if hit != tc.hit || (hit && (v.Valid != tc.valid || v.Total != tc.total)) {
			t.Errorf("Probe(%v) = (%+v, %v), want valid=%v total=%d hit=%v",
				tc.period, v, hit, tc.valid, tc.total, tc.hit)
		}
	}
	// Overwriting heals a wrong entry.
	p.Insert(r(2, 1), Verdict{Valid: true, Total: 9})
	if v, _ := p.Probe(r(2, 1)); v.Total != 9 {
		t.Errorf("overwrite ignored: %+v", v)
	}
}

// TestPeriodsProbeSingleCount pins the probe-accounting invariant: one Probe
// call updates exactly one counter, so after N probes hits + misses == N,
// whether a probe is answered exactly, by dominance or not at all.
func TestPeriodsProbeSingleCount(t *testing.T) {
	p := NewPeriods()
	p.Insert(r(2, 1), Verdict{Valid: true, Total: 7})
	p.Insert(r(1, 2), Verdict{Valid: false})

	cases := []struct {
		period     ratio.Rat
		valid, hit bool
	}{
		{r(2, 1), true, true},   // exact feasible
		{r(3, 1), true, true},   // dominance: relaxed beyond a valid period
		{r(1, 2), false, true},  // exact infeasible
		{r(1, 4), false, true},  // dominance: tighter than an infeasible period
		{r(1, 1), false, false}, // between the frontiers: miss
		{r(1, 1), false, false}, // a repeated miss still counts once each
	}
	for i, tc := range cases {
		v, hit := p.Probe(tc.period)
		if hit != tc.hit || (hit && v.Valid != tc.valid) {
			t.Errorf("case %d: Probe(%v) = (%+v, %v), want valid=%v hit=%v",
				i, tc.period, v, hit, tc.valid, tc.hit)
		}
	}
	hits, misses := p.Counters()
	if got, want := hits+misses, int64(len(cases)); got != want {
		t.Errorf("hits(%d) + misses(%d) = %d after %d probes, want exactly %d",
			hits, misses, got, len(cases), want)
	}
	if hits != 4 || misses != 2 {
		t.Errorf("hits, misses = %d, %d, want 4, 2", hits, misses)
	}
}
