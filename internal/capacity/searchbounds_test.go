package capacity

import (
	"reflect"
	"testing"

	"vrdfcap/internal/mp3"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// TestSearchBoundsMP3 pins the α̂/α̌ bounds on the paper's §5 example: the
// sufficient side is the Equation-4 capacity vector, the necessary side is
// each buffer's largest forced first-firing quantum — the CD block on d1,
// the MP3 frame on d2 and the converter's output block on d3.
func TestSearchBoundsMP3(t *testing.T) {
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g, mp3.Constraint(), PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatal("MP3 analysis reported invalid")
	}
	sufficient, necessary, err := SearchBounds(res, g)
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	wantNec := map[string]int64{
		names[0]: mp3.BlockBytes,
		names[1]: mp3.FrameSamples,
		names[2]: mp3.SRCOut,
	}
	if !reflect.DeepEqual(necessary, wantNec) {
		t.Errorf("necessary = %v, want %v", necessary, wantNec)
	}
	wantSuf := make(map[string]int64, len(res.Buffers))
	for i := range res.Buffers {
		wantSuf[res.Buffers[i].Buffer] = res.Buffers[i].Capacity
	}
	if !reflect.DeepEqual(sufficient, wantSuf) {
		t.Errorf("sufficient = %v, want the analysis capacities %v", sufficient, wantSuf)
	}
	for n, nec := range necessary {
		if suf := sufficient[n]; nec > suf {
			t.Errorf("buffer %s: necessary bound %d exceeds sufficient bound %d", n, nec, suf)
		}
	}
}

// TestSearchBoundsSourceConstrained pins the direction switch: with the
// constraint on the source, only the source is provably forced to fire, so
// only its output buffer's minimal production quantum is a necessary bound.
func TestSearchBoundsSourceConstrained(t *testing.T) {
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{{Name: "src", WCRT: r(1, 1)}, {Name: "mid", WCRT: r(1, 1)}, {Name: "snk", WCRT: r(1, 1)}},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(4), Cons: taskgraph.MustQuanta(2)},
			{Prod: taskgraph.MustQuanta(6), Cons: taskgraph.MustQuanta(3)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g, taskgraph.Constraint{Task: "src", Period: r(8, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Direction != SourceConstrained {
		t.Fatalf("direction = %v, want source-constrained", res.Direction)
	}
	_, necessary, err := SearchBounds(res, g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"src->mid": 4}
	if !reflect.DeepEqual(necessary, want) {
		t.Errorf("necessary = %v, want %v", necessary, want)
	}
}

// TestSearchBoundsZeroConsumption pins the propagation guard: a downstream
// link whose minimal consumption quantum is zero lets its consumer fire
// forever on an empty buffer, so the sink's demand forces nothing upstream
// of it and no necessary bound may be claimed there. A nil analysis result
// additionally yields no sufficient map.
func TestSearchBoundsZeroConsumption(t *testing.T) {
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{{Name: "ta", WCRT: r(1, 1)}, {Name: "tb", WCRT: r(1, 1)}, {Name: "tc", WCRT: r(1, 1)}},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(5), Cons: taskgraph.MustQuanta(3)},
			{Prod: taskgraph.MustQuanta(4), Cons: taskgraph.MustQuanta(0, 2)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	sufficient, necessary, err := SearchBounds(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	if sufficient != nil {
		t.Errorf("sufficient = %v without a valid analysis, want nil", sufficient)
	}
	if necessary != nil {
		t.Errorf("necessary = %v, want nil: the zero-consumption link breaks upstream propagation", necessary)
	}
}

// TestMinimalFeasiblePeriodDedupesCandidates is the regression test for
// duplicate candidate periods: a duplicate-heavy list returns the answer
// of its unique form, and the caller's slice is never mutated.
func TestMinimalFeasiblePeriodDedupesCandidates(t *testing.T) {
	g := sweepPair(t)
	unique := []ratio.Rat{r(1, 4), r(1, 2), r(1, 1), r(3, 2), r(2, 1), r(4, 1)}
	heavy := make([]ratio.Rat, 0, 8*len(unique))
	for _, tau := range unique {
		for rep := 0; rep < 8; rep++ {
			heavy = append(heavy, tau)
		}
	}
	input := make([]ratio.Rat, len(heavy))
	copy(input, heavy)

	wantPt, err := MinimalFeasiblePeriod(g, "wb", unique, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	gotPt, err := MinimalFeasiblePeriod(g, "wb", heavy, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !gotPt.Period.Equal(wantPt.Period) || gotPt.Total != wantPt.Total {
		t.Errorf("duplicate-heavy list returned %v (total %d), want %v (total %d)",
			gotPt.Period, gotPt.Total, wantPt.Period, wantPt.Total)
	}
	if !gotPt.Period.Equal(r(1, 1)) {
		t.Errorf("minimal feasible period = %v, want 1", gotPt.Period)
	}
	if !reflect.DeepEqual(input, heavy) {
		t.Error("MinimalFeasiblePeriodOpt mutated the caller's candidate slice")
	}
}
