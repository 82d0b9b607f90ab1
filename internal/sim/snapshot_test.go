package sim

import (
	"reflect"
	"testing"

	"vrdfcap/internal/taskgraph"
)

// chainConfig builds a 3-task chain with constant unit quanta and ample
// capacities: buffer ta->tb is slack, so lowering it slightly never touches
// the replayed prefix and warm starts stay valid across probes.
func chainConfig(t *testing.T, firings int64) (Config, string) {
	t.Helper()
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{{Name: "ta", WCRT: r(1, 1)}, {Name: "tb", WCRT: r(1, 1)}, {Name: "tc", WCRT: r(1, 1)}},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(1), Cons: taskgraph.MustQuanta(1)},
			{Prod: taskgraph.MustQuanta(1), Cons: taskgraph.MustQuanta(1)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Buffers() {
		b.Capacity = 8
	}
	cfg, m, err := TaskGraphConfig(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "tc", Firings: firings}
	cfg.LiteResult = false
	pair, ok := m.Pair("ta->tb")
	if !ok {
		t.Fatal("no vrdf mapping for ta->tb")
	}
	return cfg, pair.Space
}

// actorNamed returns the state of m's actor of the given name.
func actorNamed(t testing.TB, m *Machine, name string) *actorState {
	t.Helper()
	for _, a := range m.actors {
		if a.name == name {
			return a
		}
	}
	t.Fatalf("no actor %q", name)
	return nil
}

// resumedEvents returns the events the pending run of m skips by resuming
// from a checkpoint: 0 after a cold reset.
func resumedEvents(m *Machine) int64 {
	if m.resumed {
		return m.events
	}
	return 0
}

// TestCheckpointedResetMatchesCold drives one checkpointing machine
// through a capacity probe sequence and checks every run after a Reset
// bit-identical to a cold run of a fresh machine at that capacity —
// including the per-edge token statistics a warm restore shifts by the
// capacity delta. At least one probe must actually resume from a
// checkpoint, or the test would pass vacuously through cold fallbacks.
func TestCheckpointedResetMatchesCold(t *testing.T) {
	const firings = 3000
	cfg, space := chainConfig(t, firings)
	cfg.Checkpoints = 4
	m, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Fresh cold references take the probed capacity through the same
	// Reset override the warm machine sees.
	coldAt := func(capacity int64) *Result {
		c, _ := chainConfig(t, firings)
		fm, err := Compile(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := fm.Reset(map[string]int64{space: capacity}); err != nil {
			t.Fatal(err)
		}
		res, err := fm.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var totalResumed int64
	for i, capacity := range []int64{8, 7, 6, 7, 8, 8} {
		if err := m.Reset(map[string]int64{space: capacity}); err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		resumed := resumedEvents(m)
		totalResumed += resumed
		got, err := m.Run()
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		if want := coldAt(capacity); !reflect.DeepEqual(want, got) {
			t.Fatalf("probe %d (capacity %d, resumed %d events): warm run diverged from cold\ncold: %+v\nwarm: %+v",
				i, capacity, resumed, want, got)
		}
	}
	if totalResumed == 0 {
		t.Error("no probe resumed from a checkpoint; the warm path was never exercised")
	}
}

// TestCheckpointKeyMismatchFallsBack pins the checkpoint validity key: a
// changed periodic offset invalidates the retained checkpoints, so Reset
// falls back to a cold reset (resuming zero events) and the run matches a
// fresh run at the new offset. Unchanged, the same Reset resumes.
func TestCheckpointKeyMismatchFallsBack(t *testing.T) {
	periodicAt := func(offset int64) Config {
		cfg, _ := chainConfig(t, 3000)
		cfg.Actors = map[string]ActorConfig{
			"tc": {Mode: Periodic, Offset: r(offset, 1), Period: r(1, 1)},
		}
		return cfg
	}
	cfg := periodicAt(10)
	cfg.Checkpoints = 4
	m, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, offset := range []int64{10, 12} {
		ticks, err := m.Base().Ticks(r(offset, 1))
		if err != nil {
			t.Fatal(err)
		}
		actorNamed(t, m, "tc").offset = ticks
		if err := m.Reset(nil); err != nil {
			t.Fatal(err)
		}
		if resumed := resumedEvents(m); offset == 10 && resumed == 0 {
			t.Error("Reset did not resume at the unchanged offset")
		} else if offset == 12 && resumed != 0 {
			t.Errorf("Reset resumed %d events across an offset change", resumed)
		}
		got, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(periodicAt(offset))
		if err != nil {
			t.Fatal(err)
		}
		if want.Outcome != Completed {
			t.Fatalf("offset %d: fresh run outcome %v, want %v", offset, want.Outcome, Completed)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("offset %d: run after Reset diverged\nwant: %+v\ngot:  %+v", offset, want, got)
		}
	}
}
