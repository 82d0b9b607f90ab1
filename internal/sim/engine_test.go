package sim

import (
	"fmt"
	"reflect"
	"testing"

	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
	"vrdfcap/internal/vrdf"
)

func r(n, d int64) ratio.Rat { return ratio.MustNew(n, d) }

// pairGraph builds the Figure-1 task graph with the given capacity and
// response times of 1 time unit.
func pairGraph(t *testing.T, capacity int64) *taskgraph.Graph {
	t.Helper()
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	g.Buffers()[0].Capacity = capacity
	return g
}

func runPair(t *testing.T, capacity int64, cons quanta.Sequence, firings int64) *Result {
	t.Helper()
	tg := pairGraph(t, capacity)
	cfg, _, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: cons}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: firings}
	cfg.Validate = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTimeBase(t *testing.T) {
	b, err := NewTimeBase(r(1, 44100), r(1, 100), r(3, 125))
	if err != nil {
		t.Fatal(err)
	}
	// LCM(44100, 100, 125) = 220500.
	if b.TicksPerUnit != 220500 {
		t.Fatalf("TicksPerUnit = %d, want 220500", b.TicksPerUnit)
	}
	ticks, err := b.Ticks(r(1, 100))
	if err != nil || ticks != 2205 {
		t.Errorf("Ticks(1/100) = %d, %v; want 2205", ticks, err)
	}
	if !b.Rat(2205).Equal(r(1, 100)) {
		t.Errorf("Rat(2205) = %v", b.Rat(2205))
	}
	if _, err := b.Ticks(r(1, 13)); err == nil {
		t.Error("non-representable time accepted")
	}
}

func TestMotivatingExampleDeadlocks(t *testing.T) {
	// §1: with capacity 3 the graph is deadlock-free when wb always
	// consumes 3, but deadlocks when wb always consumes 2; capacity 4
	// fixes the latter.
	res := runPair(t, 3, quanta.Constant(3), 100)
	if res.Outcome != Completed {
		t.Errorf("capacity 3, n=3: outcome %v, want completed", res.Outcome)
	}

	res = runPair(t, 3, quanta.Constant(2), 100)
	if res.Outcome != Deadlocked {
		t.Fatalf("capacity 3, n=2: outcome %v, want deadlocked", res.Outcome)
	}
	if res.Deadlock == nil || len(res.Deadlock.Blocked) == 0 {
		t.Fatal("deadlock info missing")
	}

	res = runPair(t, 4, quanta.Constant(2), 100)
	if res.Outcome != Completed {
		t.Errorf("capacity 4, n=2: outcome %v, want completed", res.Outcome)
	}

	// Mixing quanta is harder than either constant case: capacity 4
	// deadlocks under the alternating sequence, underscoring that no
	// single constant-rate analysis covers data-dependent behaviour.
	res = runPair(t, 4, quanta.Cycle(2, 3), 100)
	if res.Outcome != Deadlocked {
		t.Errorf("capacity 4, n cycle(2,3): outcome %v, want deadlocked", res.Outcome)
	}

	// Equation (4)'s capacity (7 for τ = 3, ρ = 1; see the capacity
	// package) is deadlock-free for every sequence pattern.
	for _, seq := range []quanta.Sequence{
		quanta.Constant(2), quanta.Constant(3), quanta.Cycle(2, 3), quanta.Cycle(3, 2, 2),
	} {
		res = runPair(t, 7, seq, 100)
		if res.Outcome != Completed {
			t.Errorf("capacity 7, seq %T: outcome %v, want completed", seq, res.Outcome)
		}
	}
}

func TestTokenConservation(t *testing.T) {
	res := runPair(t, 7, quanta.Cycle(2, 3, 3, 2), 200)
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	// Everything wa produced either sits on the data edge or was
	// consumed; space tokens mirror data tokens against the capacity.
	data := res.Edges["data:wa->wb"]
	space := res.Edges["space:wa->wb"]
	if data.Produced-data.Consumed < 0 {
		t.Error("consumed more data than produced")
	}
	if data.Peak > 7 {
		t.Errorf("data occupancy %d exceeded capacity 7", data.Peak)
	}
	if space.Min < 0 || data.Min < 0 {
		t.Errorf("negative token count: data min %d, space min %d", data.Min, space.Min)
	}
	// wb finished exactly 200 firings; wa fired at least enough to feed
	// them.
	if res.Finished["wb"] != 200 {
		t.Errorf("wb finished %d, want 200", res.Finished["wb"])
	}
	if data.Consumed < 2*200 {
		t.Errorf("wb consumed %d tokens in 200 firings", data.Consumed)
	}
}

func TestSelfTimedStartTimesPair(t *testing.T) {
	// Deterministic micro-trace: capacity 7, m=3, n=3 constant, ρ=1.
	// wa starts at 0, 1, 2 (space 7 allows two outstanding... exactly:
	// space=7; firing0 claims 3 (4 left) at t=0, firing1 claims 3
	// (1 left) at t=1, firing2 blocked until wb releases.
	// wb: data arrives at t=1 (3 tokens) -> starts at 1, finishes 2.
	tg := pairGraph(t, 7)
	cfg, _, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(3)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 5}
	cfg.RecordStarts = []string{"wa", "wb"}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	tb := res.Base
	wantWB := []int64{1, 2, 3, 4, 5}
	for i, w := range wantWB {
		wTick, err := tb.Ticks(r(w, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Starts["wb"][i]; got != wTick {
			t.Errorf("wb start %d = tick %d, want %d", i, got, wTick)
		}
	}
	// wa's first two starts are back-to-back at 0 and 1.
	for i, w := range []int64{0, 1} {
		wTick, _ := tb.Ticks(r(w, 1))
		if got := res.Starts["wa"][i]; got != wTick {
			t.Errorf("wa start %d = tick %d, want %d", i, got, wTick)
		}
	}
}

func TestPeriodicModeCompletesAndUnderruns(t *testing.T) {
	// n=2 constant with capacity 4 sustains wb with period 1 after a
	// warm-up offset; with period 2/3 (faster than wa can feed: wa
	// delivers 3 tokens per time unit, wb would need 3 per unit... it
	// can; try period 1/2: wb needs 4 tokens per unit > 3 produced).
	tg := pairGraph(t, 4)
	mk := func(offset, period ratio.Rat) Config {
		cfg, _, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(2)}})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stop = Stop{Actor: "wb", Firings: 50}
		cfg.Actors = map[string]ActorConfig{
			"wb": {Mode: Periodic, Offset: offset, Period: period},
		}
		return cfg
	}
	// Sustainable: period 2 (1 token per unit, well under wa's delivery
	// rate with capacity 4), offset 10 gives ample warm-up.
	res, err := Run(mk(r(10, 1), r(2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Errorf("sustainable periodic run: %v (%v)", res.Outcome, res.Underrun)
	}
	// Unsustainable: period 1/2 needs 4 tokens per unit but wa can
	// produce at most 3 per unit.
	res, err = Run(mk(r(10, 1), r(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Underrun {
		t.Fatalf("unsustainable periodic run: %v, want underrun", res.Outcome)
	}
	if res.Underrun == nil || res.Underrun.Actor != "wb" {
		t.Errorf("underrun info = %+v", res.Underrun)
	}
	// Period shorter than ρ(wb): the previous firing cannot finish.
	res, err = Run(mk(r(10, 1), r(1, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Underrun {
		t.Fatalf("period < ρ: %v, want underrun", res.Outcome)
	}
}

func TestZeroQuantumFirings(t *testing.T) {
	// wb consumes {0, 3}: firings with quantum 0 proceed without data.
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	g.Buffers()[0].Capacity = 6
	cfg, _, err := TaskGraphConfig(g, Workloads{"wa->wb": {Cons: quanta.Cycle(0, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 100}
	cfg.Validate = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	// 50 of the 100 firings consumed 3 tokens each.
	if got := res.Edges["data:wa->wb"].Consumed; got != 150 {
		t.Errorf("consumed %d, want 150", got)
	}
}

func TestTransferRecording(t *testing.T) {
	tg := pairGraph(t, 7)
	cfg, m, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	dataEdge := m.Pairs[0].Data
	cfg.Stop = Stop{Actor: "wb", Firings: 10}
	cfg.RecordTransfers = []string{dataEdge}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := res.Transfers[dataEdge]
	if len(recs) == 0 {
		t.Fatal("no transfers recorded")
	}
	// Consumptions follow the 2,3,2,3 cycle and are contiguous.
	var consSeen int64
	var prodSeen int64
	k := 0
	for _, rec := range recs {
		if rec.From > rec.To {
			t.Fatalf("malformed record %+v", rec)
		}
		if rec.Produce {
			if rec.From != prodSeen+1 {
				t.Errorf("production gap: %+v after %d", rec, prodSeen)
			}
			prodSeen = rec.To
			continue
		}
		if rec.From != consSeen+1 {
			t.Errorf("consumption gap: %+v after %d", rec, consSeen)
		}
		got := rec.To - rec.From + 1
		want := []int64{2, 3}[k%2]
		if got != want {
			t.Errorf("consumption %d moved %d tokens, want %d", k, got, want)
		}
		consSeen = rec.To
		k++
	}
	if k != 10 {
		t.Errorf("recorded %d consumptions, want 10", k)
	}
}

func TestConfigValidation(t *testing.T) {
	tg := pairGraph(t, 4)
	// Missing workload for a variable set.
	cfg, _, err := TaskGraphConfig(tg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 1}
	if _, err := Run(cfg); err == nil {
		t.Error("variable edge without sequence accepted")
	}
	// Unsized buffer.
	if _, _, err := TaskGraphConfig(pairGraph(t, 0), nil); err == nil {
		t.Error("unsized buffer accepted")
	}
	// Bad stop.
	cfg2, _, _ := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(3)}})
	if _, err := Run(cfg2); err == nil {
		t.Error("missing stop condition accepted")
	}
	cfg2.Stop = Stop{Actor: "nope", Firings: 1}
	if _, err := Run(cfg2); err == nil {
		t.Error("unknown stop actor accepted")
	}
	// Unknown record names.
	cfg3, _, _ := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(3)}})
	cfg3.Stop = Stop{Actor: "wb", Firings: 1}
	cfg3.RecordStarts = []string{"nope"}
	if _, err := Run(cfg3); err == nil {
		t.Error("unknown RecordStarts actor accepted")
	}
	// Nil graph.
	if _, err := Run(Config{Stop: Stop{Actor: "x", Firings: 1}}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestValidateCatchesOutOfSetQuanta(t *testing.T) {
	tg := pairGraph(t, 10)
	cfg, _, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(5)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 1}
	cfg.Validate = true
	defer func() {
		if recover() == nil {
			t.Error("out-of-set quantum did not panic under Validate")
		}
	}()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMaxEventsLimit(t *testing.T) {
	tg := pairGraph(t, 100)
	cfg, _, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(2)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 1 << 40}
	cfg.MaxEvents = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != LimitExceeded {
		t.Errorf("outcome %v, want limit-exceeded", res.Outcome)
	}
}

func TestVariableExecTimes(t *testing.T) {
	// Execution times below ρ are allowed; above ρ is an error.
	tg := pairGraph(t, 7)
	cfg, _, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(3)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 10}
	cfg.ExtraTimes = []ratio.Rat{r(1, 2)}
	cfg.Actors = map[string]ActorConfig{
		"wa": {Exec: func(k int64) ratio.Rat { return r(1, 2) }},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Errorf("outcome %v", res.Outcome)
	}

	cfg2, _, _ := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(3)}})
	cfg2.Stop = Stop{Actor: "wb", Firings: 10}
	cfg2.Actors = map[string]ActorConfig{
		"wa": {Exec: func(k int64) ratio.Rat { return r(2, 1) }},
	}
	if _, err := Run(cfg2); err == nil {
		t.Error("execution time above ρ accepted")
	}
}

func TestDirectVRDFCycle(t *testing.T) {
	// A hand-built two-actor cycle (not from a task graph): a ring with
	// 5 tokens circulating 1 per firing each way.
	g := vrdf.New()
	if _, err := g.AddActor("p", r(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddActor("q", r(1, 1)); err != nil {
		t.Fatal(err)
	}
	one := taskgraph.MustQuanta(1)
	if _, err := g.AddEdge(vrdf.Edge{Name: "pq", Src: "p", Dst: "q", Prod: one, Cons: one}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(vrdf.Edge{Name: "qp", Src: "q", Dst: "p", Prod: one, Cons: one, Initial: 5}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Graph: g, Stop: Stop{Actor: "q", Firings: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	// Conservation: tokens on the two edges plus tokens held by
	// in-flight firings always total the 5 initial tokens.
	onEdges := (res.Edges["pq"].Produced - res.Edges["pq"].Consumed) +
		(5 + res.Edges["qp"].Produced - res.Edges["qp"].Consumed)
	inFlight := (res.Fired["p"] - res.Finished["p"]) + (res.Fired["q"] - res.Finished["q"])
	if total := onEdges + inFlight; total != 5 {
		t.Errorf("ring token total = %d (edges %d, in flight %d), want 5", total, onEdges, inFlight)
	}
}

func TestSourceOnlyActorRunsSerially(t *testing.T) {
	// An actor with no input edges fires back to back, one per ρ.
	g := vrdf.New()
	if _, err := g.AddActor("src", r(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddActor("snk", r(1, 1)); err != nil {
		t.Fatal(err)
	}
	one := taskgraph.MustQuanta(1)
	if _, err := g.AddEdge(vrdf.Edge{Name: "e", Src: "src", Dst: "snk", Prod: one, Cons: one}); err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Graph:        g,
		Stop:         Stop{Actor: "snk", Firings: 10},
		RecordStarts: []string{"src"},
	})
	if err != nil {
		t.Fatal(err)
	}
	starts := res.Starts["src"]
	for i := 1; i < len(starts); i++ {
		if starts[i]-starts[i-1] != res.Base.TicksPerUnit {
			t.Fatalf("src starts %d apart, want %d", starts[i]-starts[i-1], res.Base.TicksPerUnit)
		}
	}
}

func TestInvariantCheckingPassesOnValidRuns(t *testing.T) {
	tg := pairGraph(t, 7)
	cfg, _, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 200}
	cfg.CheckInvariants = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("invariant check tripped on a valid run: %v", err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
}

func TestInvariantViolationAborts(t *testing.T) {
	tg := pairGraph(t, 7)
	cfg, m, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(3)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 10}
	cfg.CheckInvariants = true
	// A deliberately impossible bound: the space edge alone starts with
	// 7 tokens.
	cfg.Invariants = append(cfg.Invariants, TokenInvariant{
		Name: "bogus", Edges: []string{m.Pairs[0].Space}, Max: 3,
	})
	if _, err := Run(cfg); err == nil {
		t.Fatal("violated invariant did not abort the run")
	}
	// Unknown edge in an invariant is a configuration error.
	cfg2, _, _ := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: quanta.Constant(3)}})
	cfg2.Stop = Stop{Actor: "wb", Firings: 1}
	cfg2.CheckInvariants = true
	cfg2.Invariants = []TokenInvariant{{Name: "x", Edges: []string{"nope"}, Max: 1}}
	if _, err := Run(cfg2); err == nil {
		t.Fatal("unknown invariant edge accepted")
	}
}

func TestDiamondTopology(t *testing.T) {
	// The engine is not limited to chains: a diamond where the merge
	// actor needs tokens on BOTH inputs. With ρ(s)=1, ρ(a)=2, ρ(b)=3,
	// the slower branch paces the merge: m starts at 4+3k.
	g := vrdf.New()
	for _, actor := range []struct {
		name string
		rho  ratio.Rat
	}{
		{"s", r(1, 1)}, {"a", r(2, 1)}, {"b", r(3, 1)}, {"m", r(1, 1)},
	} {
		if _, err := g.AddActor(actor.name, actor.rho); err != nil {
			t.Fatal(err)
		}
	}
	one := taskgraph.MustQuanta(1)
	for _, e := range [][2]string{{"s", "a"}, {"s", "b"}, {"a", "m"}, {"b", "m"}} {
		if _, err := g.AddEdge(vrdf.Edge{Name: e[0] + e[1], Src: e[0], Dst: e[1], Prod: one, Cons: one}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(Config{
		Graph:        g,
		Stop:         Stop{Actor: "m", Firings: 5},
		RecordStarts: []string{"m"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	for k, start := range res.Starts["m"] {
		want := (4 + 3*int64(k)) * res.Base.TicksPerUnit
		if start != want {
			t.Errorf("m start %d = tick %d, want %d", k, start, want)
		}
	}
}

func TestBusyTicksUtilisation(t *testing.T) {
	// Constant-rate pair: wb fires 100 times back to back at ρ=1, so it
	// is busy for 100 units of a run ending at its last finish.
	res := runPair(t, 7, quanta.Constant(3), 100)
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	unit := res.Base.TicksPerUnit
	if got := res.BusyTicks["wb"]; got != 100*unit {
		t.Errorf("wb busy %d ticks, want %d", got, 100*unit)
	}
	// wa fired at least 67 times (3 tokens per firing for 300 consumed).
	if got := res.BusyTicks["wa"]; got < 67*unit {
		t.Errorf("wa busy %d ticks, implausibly low", got)
	}
	if res.BusyTicks["wa"] > res.EndTick {
		t.Error("busy time exceeds run length for a serial actor")
	}
}

// TestConstantPortsMatchSequencePorts pins the event loop's constant-quantum
// fast path against the interface path on a chain long enough that the
// dirty-actor bitset spans two words: nil EdgeQuanta (quanta hoisted into
// the ports as plain integers) and the same constants behind quanta.Func
// (one Sequence call per transfer) must produce deeply equal Results.
func TestConstantPortsMatchSequencePorts(t *testing.T) {
	const tasks = 72
	stages := make([]taskgraph.Stage, tasks)
	links := make([]taskgraph.Link, tasks-1)
	for i := range stages {
		stages[i] = taskgraph.Stage{Name: fmt.Sprintf("t%02d", i), WCRT: r(int64(1+i%3), 1)}
	}
	for i := range links {
		// Rates cycle through 1→2, 2→3, 3→1, so every three links the
		// repetition vector returns to 1 and no stage starves the sink.
		p, c := int64(1+i%3), int64(1+(i+1)%3)
		links[i] = taskgraph.Link{Prod: taskgraph.MustQuanta(p), Cons: taskgraph.MustQuanta(c), Capacity: p + c + int64(i%2)}
	}
	g, err := taskgraph.BuildChain(stages, links)
	if err != nil {
		t.Fatal(err)
	}
	sink := stages[tasks-1].Name

	build := func(wrap, periodic bool) Config {
		cfg, mapping, err := TaskGraphConfig(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wrap {
			for _, ge := range cfg.Graph.Edges() {
				prod, cons := ge.Prod.Max(), ge.Cons.Max()
				cfg.Quanta[ge.Name] = EdgeQuanta{
					Prod: quanta.Func(func(int64) int64 { return prod }),
					Cons: quanta.Func(func(int64) int64 { return cons }),
				}
			}
		}
		cfg.Stop = Stop{Actor: sink, Firings: 300}
		for _, s := range stages {
			cfg.RecordStarts = append(cfg.RecordStarts, s.Name)
		}
		for _, p := range mapping.Pairs[60:] {
			cfg.RecordTransfers = append(cfg.RecordTransfers, p.Data, p.Space)
			cfg.RecordOccupancy = append(cfg.RecordOccupancy, p.Data)
		}
		if periodic {
			cfg.Actors = map[string]ActorConfig{sink: {Mode: Periodic, Offset: r(400, 1), Period: r(3, 1)}}
		}
		return cfg
	}
	for _, periodic := range []bool{false, true} {
		want, err := Run(build(true, periodic))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(build(false, periodic))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("periodic=%v: constant ports diverged from Sequence ports\nsequence: %+v\nconstant: %+v", periodic, want, got)
		}
		if want.Fired[sink] == 0 || want.Events < 10*tasks {
			t.Fatalf("periodic=%v: run too short to cover the second bitset word: %d events, outcome %v", periodic, want.Events, want.Outcome)
		}
	}
}
