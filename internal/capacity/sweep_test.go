package capacity

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

func sweepPair(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSweepPeriodsTradeoff(t *testing.T) {
	g := sweepPair(t)
	periods := []ratio.Rat{r(1, 2), r(1, 1), r(3, 2), r(3, 1), r(6, 1), r(12, 1)}
	pts, err := SweepPeriods(g, "wb", periods, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(periods) {
		t.Fatalf("got %d points", len(pts))
	}
	// Feasibility: wb needs τ >= ρ(wb) = 1 and wa needs φ(wa) = τ·π̌/γ̂ =
	// τ >= 1. So τ = 1/2 is infeasible, the rest feasible.
	if pts[0].Valid {
		t.Error("τ = 1/2 reported feasible")
	}
	for i := 1; i < len(pts); i++ {
		if !pts[i].Valid {
			t.Errorf("τ = %v reported infeasible", pts[i].Period)
		}
	}
	// Capacity is non-increasing as the period relaxes.
	for i := 2; i < len(pts); i++ {
		if pts[i].Total > pts[i-1].Total {
			t.Errorf("capacity grew when relaxing period: %v -> %v gives %d -> %d",
				pts[i-1].Period, pts[i].Period, pts[i-1].Total, pts[i].Total)
		}
	}
	// Known anchor: τ = 3 gives capacity 7.
	if pts[3].Total != 7 {
		t.Errorf("τ = 3 total = %d, want 7", pts[3].Total)
	}
	// A very relaxed period approaches the structural floor
	// ⌊ρ-terms⌋ + p̂ + ĉ − 1 with the ρ term vanishing: 3 + 3 − 1 + small.
	if last := pts[len(pts)-1].Total; last > 7 || last < 5 {
		t.Errorf("relaxed-period capacity = %d, want within [5, 7]", last)
	}
}

func TestMinimalFeasiblePeriod(t *testing.T) {
	g := sweepPair(t)
	periods := []ratio.Rat{r(1, 4), r(1, 2), r(1, 1), r(2, 1)}
	pt, err := MinimalFeasiblePeriod(g, "wb", periods, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Period.Equal(r(1, 1)) {
		t.Errorf("minimal feasible period = %v, want 1", pt.Period)
	}
	if _, err := MinimalFeasiblePeriod(g, "wb", []ratio.Rat{r(1, 8)}, PolicyEquation4); err == nil {
		t.Error("infeasible-only sweep returned a period")
	}
}

func TestSweepEmptyRejected(t *testing.T) {
	g := sweepPair(t)
	if _, err := SweepPeriods(g, "wb", nil, PolicyEquation4); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := MinimalFeasiblePeriod(g, "wb", nil, PolicyEquation4); err == nil {
		t.Error("empty minimal-period sweep accepted")
	}
}

// TestMinimalFeasiblePeriodShuffled is the regression test for the
// ascending-order contract: an unsorted candidate list used to silently
// return the first feasible period encountered, not the minimal one.
func TestMinimalFeasiblePeriodShuffled(t *testing.T) {
	g := sweepPair(t)
	ascending := []ratio.Rat{r(1, 4), r(1, 2), r(1, 1), r(3, 2), r(2, 1), r(4, 1)}
	want, err := MinimalFeasiblePeriod(g, "wb", ascending, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Period.Equal(r(1, 1)) {
		t.Fatalf("ascending list: minimal period %v, want 1", want.Period)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		shuffled := make([]ratio.Rat, len(ascending))
		copy(shuffled, ascending)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, err := MinimalFeasiblePeriod(g, "wb", shuffled, PolicyEquation4)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Period.Equal(want.Period) || got.Total != want.Total {
			t.Fatalf("trial %d: shuffled list %v returned period %v (total %d), want %v (total %d)",
				trial, shuffled, got.Period, got.Total, want.Period, want.Total)
		}
		// The input list must not be mutated by the internal sort.
		for i := range shuffled {
			if i > 0 && shuffled[i].Less(shuffled[i-1]) {
				break // still shuffled: good
			}
			if i == len(shuffled)-1 {
				t.Logf("trial %d: shuffle happened to be sorted", trial)
			}
		}
	}
}

// TestSweepErrorDeterminism pins which error a sweep reports when several
// periods fail: the first failing period in list order, whatever the
// others. On the overflow pair, At fails at 10^18 and at 10^18+1 but not
// at 1.
func TestSweepErrorDeterminism(t *testing.T) {
	g, err := taskgraph.Pair("a", r(1, 1), "b", r(1, 1),
		taskgraph.MustQuanta(1000000000000000, 1000000000000001), taskgraph.MustQuanta(1))
	if err != nil {
		t.Fatal(err)
	}
	first, second := r(1000000000000000001, 1), r(1000000000000000000, 1)
	_, want := Compute(g, taskgraph.Constraint{Task: "b", Period: first}, PolicyEquation4)
	if want == nil {
		t.Fatal("Compute did not overflow")
	}
	for _, periods := range [][]ratio.Rat{{ratio.One, first, second}, {first, ratio.One, second}} {
		_, err := SweepPeriods(g, "b", periods, PolicyEquation4)
		if wantText := fmt.Sprintf("capacity: period %v: %v", first, want); err == nil || err.Error() != wantText {
			t.Errorf("sweep of %v: error %v, want %s", periods, err, wantText)
		}
	}
}

// TestMinimalFeasiblePeriodMatchesLinearScan cross-checks the threshold
// decision against the exhaustive scan of a sweep on seeded random chains.
func TestMinimalFeasiblePeriodMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := graphgen.Defaults(seed + 40)
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var periods []ratio.Rat
		for k := int64(2); k < 18; k++ {
			periods = append(periods, c.Period.MulInt(k).DivInt(8))
		}
		pts, err := SweepPeriods(g, c.Task, periods, PolicyEquation4)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var want *SweepPoint
		for i := range pts {
			if pts[i].Valid {
				want = &pts[i]
				break
			}
		}
		got, err := MinimalFeasiblePeriod(g, c.Task, periods, PolicyEquation4)
		if want == nil {
			if err == nil {
				t.Fatalf("seed %d: no candidate is feasible but search returned %v", seed, got.Period)
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !got.Period.Equal(want.Period) || got.Total != want.Total {
			t.Fatalf("seed %d: threshold decision = (%v, %d), linear scan = (%v, %d)",
				seed, got.Period, got.Total, want.Period, want.Total)
		}
	}
}

// TestMinimalFeasiblePeriodRejectsNonPositive pins that a non-positive
// least candidate is reported with taskgraph.CheckPeriod's error, wrapped
// with the period, even where a later candidate is feasible and would be
// found without looking at it.
func TestMinimalFeasiblePeriodRejectsNonPositive(t *testing.T) {
	g := sweepPair(t)
	periods := []ratio.Rat{r(4, 1), r(2, 1), r(1, 1), r(1, 2), r(1, 4), ratio.Zero}
	_, err := MinimalFeasiblePeriod(g, "wb", periods, PolicyEquation4)
	want := "capacity: period 0: " + taskgraph.CheckPeriod(ratio.Zero).Error()
	if err == nil || err.Error() != want {
		t.Errorf("error %v, want %s", err, want)
	}
}

// TestMinimalFeasiblePeriodAllocs pins that the minimal-period query
// allocates a fixed count whatever its number of candidates and their
// order: the sorted copy, compiling the chain (5) and one At (5). The candidates
// are chain-sweep's fine grid: 64 periods from the last infeasible to the
// first feasible point of the k/32·τ grid.
func TestMinimalFeasiblePeriodAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, c, err := graphgen.Random(graphgen.Config{Seed: 1, MinTasks: 8, MaxTasks: 8, MaxQuantum: 8, MaxSetSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	fine := fineSweepGrid(t, g, c.Task, c.Period)
	reversed := slices.Clone(fine)
	slices.Reverse(reversed)
	allocs := func(periods []ratio.Rat) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := MinimalFeasiblePeriod(g, c.Task, periods, PolicyEquation4); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, all, rev := allocs(fine[len(fine)-4:]), allocs(fine), allocs(reversed)
	t.Logf("8-task minimal period: %v allocs at 4 candidates, %v at 64, %v at 64 reversed", few, all, rev)
	if all != few || rev != few || all > minimalPeriodAllocs {
		t.Errorf("8-task minimal period allocates %v times at 4 candidates, %v at 64 and %v at 64 reversed; want the same count, at most %d",
			few, all, rev, minimalPeriodAllocs)
	}
}

// minimalPeriodAllocs bounds TestMinimalFeasiblePeriodAllocs.
const minimalPeriodAllocs = 11

// fineSweepGrid is the fine grid of a chain-sweep job: chainSweepGrid
// points are swept, and 64 evenly spaced periods span the last infeasible
// point to the first feasible one (half that point when the first point is
// already feasible).
func fineSweepGrid(tb testing.TB, g *taskgraph.Graph, task string, tau ratio.Rat) []ratio.Rat {
	tb.Helper()
	pts, err := SweepPeriods(g, task, chainSweepGrid(tau), PolicyEquation4)
	if err != nil {
		tb.Fatal(err)
	}
	first := len(pts) - 1
	for first > 0 && pts[first-1].Valid {
		first--
	}
	lo, hi := pts[first].Period.DivInt(2), pts[first].Period
	if first > 0 {
		lo = pts[first-1].Period
	}
	out := make([]ratio.Rat, 64)
	step := hi.Sub(lo).DivInt(int64(len(out) - 1))
	for j := range out {
		out[j] = lo.Add(step.MulInt(int64(j)))
	}
	return out
}
