package exact

import (
	"testing"
	"testing/quick"

	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

func TestFigure1ExactMinimum(t *testing.T) {
	// The paper's motivating numbers, now exact over ALL sequences:
	// with n = {3}: 3; with n = {2}: 4; with n = {2,3}: 5 (the
	// alternating sequence is a worst case, as the sampled search
	// suggested).
	cases := []struct {
		prod, cons taskgraph.QuantaSet
		want       int64
	}{
		{taskgraph.MustQuanta(3), taskgraph.MustQuanta(3), 3},
		{taskgraph.MustQuanta(3), taskgraph.MustQuanta(2), 4},
		{taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3), 5},
	}
	for _, c := range cases {
		got, err := MinCapacity(c.prod, c.cons)
		if err != nil {
			t.Fatalf("%v/%v: %v", c.prod, c.cons, err)
		}
		if got != c.want {
			t.Errorf("MinCapacity(%v, %v) = %d, want %d", c.prod, c.cons, got, c.want)
		}
	}
}

func TestWitnessReplaysToDeadlockInSimulator(t *testing.T) {
	// The adversarial witness found by the untimed search must reproduce
	// the deadlock in the timed simulator — cross-validating both. Each
	// replay is one simulator run of the pair at the witness's capacity
	// and horizon.
	prod := taskgraph.MustQuanta(3)
	cons := taskgraph.MustQuanta(2, 3)
	min, err := MinCapacity(prod, cons)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplayer(prod, cons)
	if err != nil {
		t.Fatal(err)
	}
	// Every undersized capacity yields a witness, and each witness must
	// deadlock the timed engine at its capacity, across several
	// capacities and witness lengths.
	for capn := min - 1; capn >= cons.Max(); capn-- {
		ok, w, err := DeadlockFree(prod, cons, capn)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("capacity %d reported safe but %d is the minimum", capn, min)
		}
		if w == nil || len(w.Cons) == 0 {
			t.Fatalf("capacity %d: no witness returned: %+v", capn, w)
		}
		res, err := r.Replay(w, capn)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != sim.Deadlocked {
			t.Fatalf("capacity %d: witness did not deadlock the simulator: outcome %v after %d consumer firings",
				capn, res.Outcome, res.Finished["wb"])
		}
		// The same adversarial sequence with one more container must
		// not deadlock at the exact minimum: the witness is tight.
		if capn == min-1 {
			stuck, err := r.Deadlocks(w, min)
			if err != nil {
				t.Fatal(err)
			}
			if stuck {
				t.Fatalf("the capacity-%d witness still deadlocks at the proven minimum %d", capn, min)
			}
		}
	}
}

func TestExactAtMostUntimedEquationFourLimit(t *testing.T) {
	// π̂ + γ̂ − 1 (Equation 4's untimed floor) is always sufficient; the
	// exact minimum never exceeds it. Property-checked on random sets.
	f := func(p1, p2, c1, c2 uint8) bool {
		prod, err := taskgraph.NewQuantaSet(int64(p1%6)+1, int64(p2%6)+1)
		if err != nil {
			return false
		}
		cons, err := taskgraph.NewQuantaSet(int64(c1%6)+1, int64(c2%6)+1)
		if err != nil {
			return false
		}
		min, err := MinCapacity(prod, cons)
		if err != nil {
			return false
		}
		limit := prod.Max() + cons.Max() - 1
		floor := prod.Max()
		if cons.Max() > floor {
			floor = cons.Max()
		}
		return min >= floor && min <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExactMonotoneInCapacity(t *testing.T) {
	// Safety is monotone: once deadlock-free, adding capacity never
	// breaks it. Checked exhaustively on a handful of hard sets.
	sets := []struct{ prod, cons taskgraph.QuantaSet }{
		{taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3)},
		{taskgraph.MustQuanta(2, 5), taskgraph.MustQuanta(3)},
		{taskgraph.MustQuanta(2, 3, 5), taskgraph.MustQuanta(2, 4)},
	}
	for _, s := range sets {
		min, err := MinCapacity(s.prod, s.cons)
		if err != nil {
			t.Fatal(err)
		}
		for z := min; z <= s.prod.Max()+s.cons.Max()+2; z++ {
			ok, w, err := DeadlockFree(s.prod, s.cons, z)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Errorf("%v/%v: capacity %d unsafe above the minimum %d (witness %+v)",
					s.prod, s.cons, z, min, w)
			}
		}
	}
}

func TestZeroQuantaIgnoredForSafety(t *testing.T) {
	// {0, 3} behaves like {3} for deadlock reachability: zero-quantum
	// firings transfer nothing.
	withZero, err := MinCapacity(taskgraph.MustQuanta(3), taskgraph.MustQuanta(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	without, err := MinCapacity(taskgraph.MustQuanta(3), taskgraph.MustQuanta(3))
	if err != nil {
		t.Fatal(err)
	}
	if withZero != without {
		t.Errorf("zero member changed the minimum: %d vs %d", withZero, without)
	}
}

func TestGuardsAndValidation(t *testing.T) {
	if _, _, err := DeadlockFree(taskgraph.QuantaSet{}, taskgraph.MustQuanta(1), 1); err == nil {
		t.Error("invalid set accepted")
	}
	if _, _, err := DeadlockFree(taskgraph.MustQuanta(1), taskgraph.MustQuanta(1), 0); err == nil {
		t.Error("zero capacity accepted")
	}
	// The MP3-scale pair trips the state-space guard.
	big := taskgraph.MustQuanta(2048)
	frames, err := taskgraph.Range(96, 960)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DeadlockFree(big, frames, 3000); err == nil {
		t.Error("state-space blow-up not guarded")
	}
	if _, err := MinCapacity(taskgraph.QuantaSet{}, taskgraph.MustQuanta(1)); err == nil {
		t.Error("MinCapacity accepted invalid set")
	}
}

func TestExactAgreesWithSampledSearch(t *testing.T) {
	// The exact minimum can never exceed what any sampled adversary
	// refutes, and is itself refuted one below by construction: compare
	// against the deadlock observed with the constant-min sequence.
	prod := taskgraph.MustQuanta(4)
	cons := taskgraph.MustQuanta(2, 4)
	min, err := MinCapacity(prod, cons)
	if err != nil {
		t.Fatal(err)
	}
	// Constant n=2 needs p + c_min adjusted occupancy: simulate at
	// min−1 with the exact witness path guaranteed; at min, all three
	// canonical adversaries must complete.
	g, err := taskgraph.Pair("wa", ratio.One, "wb", ratio.One, prod, cons)
	if err != nil {
		t.Fatal(err)
	}
	g.Buffers()[0].Capacity = min
	for _, seq := range []quanta.Sequence{
		quanta.Constant(2), quanta.Constant(4), quanta.Cycle(2, 4), quanta.Cycle(4, 2, 2),
	} {
		cfg, _, err := sim.TaskGraphConfig(g, sim.Workloads{"wa->wb": {Cons: seq}})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stop = sim.Stop{Actor: "wb", Firings: 200}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != sim.Completed {
			t.Errorf("exact minimum %d deadlocked under a sampled adversary: %v", min, res.Outcome)
		}
	}
}

func TestConstantPairClosedForm(t *testing.T) {
	// A constant pair (p, c) deadlocks exactly below p + c − gcd(p, c),
	// which gives the Figure-1 values 3 (p = n = 3) and 4 (p = 3, n = 2).
	// The closed form is an oracle independent of the search; every pair
	// up to 24 is held to it.
	for p := int64(1); p <= 24; p++ {
		for c := int64(1); c <= 24; c++ {
			got, err := MinCapacity(taskgraph.MustQuanta(p), taskgraph.MustQuanta(c))
			if err != nil {
				t.Fatal(err)
			}
			if want := p + c - gcd(p, c); got != want {
				t.Errorf("MinCapacity(%d, %d) = %d, want %d", p, c, got, want)
			}
		}
	}
}
