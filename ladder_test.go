package vrdfcap

import (
	"context"
	"testing"

	"vrdfcap/internal/exact"
	"vrdfcap/internal/faults"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/mp3"
)

// ladderFirings is the horizon, in DAC firings (ten seconds of audio), at
// which the bursty stream's d1 witness is pinned.
const ladderFirings = 441_000

// TestMP3OracleLadder pins every §5 buffer on the ladder of independent
// oracles: the untimed exact floor (exact.MinCapacity, over every quanta
// sequence) ≤ a capacity witnessed as minimal under one replayable stream
// ≤ Equation 4's capacity. On the constant edges the middle rung is
// internal/sdf's exact timed minimum (3072, 882; see
// TestExactMinimaOfConstantMP3Edges). On the data-dependent d1 it is the
// best known adversarial witness: the bursty stream of one 96 B frame then
// 64 frames of 960 B, under which 5919 containers miss the rate and 5920
// sustain it, so Equation 4's 6015 is at most 95 containers above the
// true worst case.
func TestMP3OracleLadder(t *testing.T) {
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	c := mp3.Constraint()
	sized, res, err := Size(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	// floor is the untimed exact minimum of a constant edge; 0 skips the
	// search on d1, whose untimed state space exceeds the guard.
	ladder := []struct {
		floor, witness, eq4 int64
	}{
		{0, 5920, 6015},
		{1536, 3072, 3263},
		{441, 882, 883},
	}
	for i, rung := range ladder {
		b := sized.BufferByName(names[i])
		if b.Capacity != rung.eq4 {
			t.Fatalf("%s: Equation 4 gives %d, want %d", names[i], b.Capacity, rung.eq4)
		}
		if rung.floor == 0 {
			continue
		}
		floor, err := exact.MinCapacity(b.Prod, b.Cons)
		if err != nil {
			t.Fatal(err)
		}
		if floor != rung.floor || floor > rung.witness {
			t.Errorf("%s: untimed exact floor %d, want %d ≤ %d", names[i], floor, rung.floor, rung.witness)
		}
	}

	bursty := faults.BurstyWorkloads(sized, 1, 64)
	p, err := minimize.NewProblem(g, sized, res, c, ladderFirings, bursty, "bursty-1-64", nil, minimize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	found, err := p.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, rung := range ladder {
		if got := found.Caps[names[i]]; got != rung.witness {
			t.Errorf("%s: bursty minimum %d, want %d", names[i], got, rung.witness)
		}
	}

	// The d1 witness replays: one container less misses the rate.
	for _, d1 := range []int64{5919, 5920} {
		probe := sized.Clone()
		for i, rung := range ladder {
			probe.BufferByName(names[i]).Capacity = rung.witness
		}
		probe.BufferByName(names[0]).Capacity = d1
		v, err := Verify(probe, c, VerifyOptions{Firings: ladderFirings, Workloads: bursty})
		if err != nil {
			t.Fatal(err)
		}
		if v.OK != (d1 == 5920) {
			t.Errorf("d1 = %d under the bursty stream: OK = %v (%s)", d1, v.OK, v.Reason)
		}
	}
}
