package exact

import (
	"reflect"
	"testing"

	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

func threeChain(t *testing.T, p1, c1, p2, c2 taskgraph.QuantaSet, cap1, cap2 int64) *taskgraph.Graph {
	t.Helper()
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{
			{Name: "a", WCRT: ratio.One},
			{Name: "b", WCRT: ratio.One},
			{Name: "c", WCRT: ratio.One},
		},
		[]taskgraph.Link{
			{Prod: p1, Cons: c1, Capacity: cap1},
			{Prod: p2, Cons: c2, Capacity: cap2},
		})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestChainMatchesPairModel(t *testing.T) {
	// The pair entry points search the pair as a two-task chain: on
	// every capacity they must give CompileChain's verdict on
	// taskgraph.Pair, and the same witness, producer quanta as the
	// source's Out and consumer quanta as the sink's In.
	prod := taskgraph.MustQuanta(3)
	cons := taskgraph.MustQuanta(2, 3)
	g, err := taskgraph.Pair("a", ratio.One, "b", ratio.One, prod, cons)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := CompileChain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for capn := int64(3); capn <= 6; capn++ {
		pairOK, pw, err := DeadlockFree(prod, cons, capn)
		if err != nil {
			t.Fatal(err)
		}
		chainOK, cw, err := cert.Certify(map[string]int64{"a->b": capn})
		if err != nil {
			t.Fatal(err)
		}
		if pairOK != chainOK {
			t.Fatalf("capacity %d: pair says %v, chain says %v", capn, pairOK, chainOK)
		}
		if pairOK {
			continue
		}
		if !reflect.DeepEqual(pw.Prod, cw.Out["a"]) || !reflect.DeepEqual(pw.Cons, cw.In["b"]) {
			t.Errorf("capacity %d: pair witness %+v, chain witness %+v", capn, pw, cw)
		}
	}
}

func TestChainCompositionOfPairMinima(t *testing.T) {
	// Empirical finding worth recording: sizing every buffer at its
	// per-pair exact minimum kept every tested chain deadlock-free —
	// the per-pair decomposition (the paper's §4.3 strategy) loses no
	// safety on these chains.
	cases := [][4][]int64{
		{{3}, {2, 3}, {2, 3}, {2}},
		{{2, 4}, {3}, {1, 3}, {2}},
		{{5}, {2, 5}, {4}, {3, 4}},
		{{2, 3}, {2, 3}, {2, 3}, {2, 3}},
	}
	for _, q := range cases {
		p1 := taskgraph.MustQuanta(q[0]...)
		c1 := taskgraph.MustQuanta(q[1]...)
		p2 := taskgraph.MustQuanta(q[2]...)
		c2 := taskgraph.MustQuanta(q[3]...)
		m1, err := MinCapacity(p1, c1)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := MinCapacity(p2, c2)
		if err != nil {
			t.Fatal(err)
		}
		g := threeChain(t, p1, c1, p2, c2, m1, m2)
		ok, w, err := ChainDeadlockFree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%v: pair minima (%d, %d) do not compose; witness %+v", q, m1, m2, w)
		}
	}
}

func TestChainBelowPairMinimumDeadlocks(t *testing.T) {
	// The per-pair minimum is a hard floor: one container less on the
	// first buffer deadlocks the chain even with generous downstream
	// capacity, and the witness replays in the timed simulator.
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
	g := threeChain(t, p1, c1, p2, c2, m1-1, m2+10)
	ok, w, err := ChainDeadlockFree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("chain below the pair minimum reported safe")
	}
	if w == nil || len(w.In["b"]) == 0 || len(w.Out["b"]) == 0 {
		t.Fatalf("witness incomplete: %+v", w)
	}
	// Replay: the middle task's In/Out sequences are coupled by firing
	// index; extend past the deadlock with the sets' maxima.
	ext := func(seq []int64, last int64) quanta.Sequence {
		return quanta.Sticky(append(append([]int64{}, seq...), last)...)
	}
	cfg, _, err := sim.TaskGraphConfig(g, sim.Workloads{
		"a->b": {Prod: ext(w.Out["a"], 3), Cons: ext(w.In["b"], 3)},
		"b->c": {Prod: ext(w.Out["b"], 3), Cons: ext(w.In["c"], 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = sim.Stop{Actor: "c", Firings: int64(len(w.In["c"])) + 20}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != sim.Deadlocked {
		t.Fatalf("chain witness did not deadlock the simulator: %v", res.Outcome)
	}
}

func TestChainValidation(t *testing.T) {
	p := taskgraph.MustQuanta(2)
	g := threeChain(t, p, p, p, p, 0, 4)
	if _, _, err := ChainDeadlockFree(g, 0); err == nil {
		t.Error("unsized buffer accepted")
	}
	// Tiny state guard trips on a legal graph.
	g2 := threeChain(t, p, p, p, p, 4, 4)
	if _, _, err := ChainDeadlockFree(g2, 10); err == nil {
		t.Error("state guard did not trip")
	}
}
