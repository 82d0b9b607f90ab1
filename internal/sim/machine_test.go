package sim

import (
	"reflect"
	"testing"

	"vrdfcap/internal/quanta"
)

// pairConfig builds a fresh Config for the Figure 1 pair at the given
// capacity, returning the space-edge name of its single buffer so tests can
// override the probe capacity through Reset.
func pairConfig(t *testing.T, capacity int64, cons quanta.Sequence, firings int64) (Config, string) {
	t.Helper()
	tg := pairGraph(t, capacity)
	cfg, m, err := TaskGraphConfig(tg, Workloads{"wa->wb": {Cons: cons}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: firings}
	cfg.Validate = true
	pair, ok := m.Pair("wa->wb")
	if !ok {
		t.Fatal("no vrdf mapping for wa->wb")
	}
	return cfg, pair.Space
}

// TestMachineReuseMatchesFreshRun pins the compiled-machine contract: a
// Machine compiled once and Reset between Runs produces bit-identical
// Results to a fresh Run(cfg), across every Outcome the engine can reach.
func TestMachineReuseMatchesFreshRun(t *testing.T) {
	completed, _ := pairConfig(t, 3, quanta.Constant(3), 40)
	deadlocked, _ := pairConfig(t, 3, quanta.Constant(2), 40)
	periodicOK, _ := pairConfig(t, 4, quanta.Constant(2), 50)
	periodicOK.Actors = map[string]ActorConfig{
		"wb": {Mode: Periodic, Offset: r(10, 1), Period: r(2, 1)},
	}
	underrun, _ := pairConfig(t, 4, quanta.Constant(2), 50)
	underrun.Actors = map[string]ActorConfig{
		"wb": {Mode: Periodic, Offset: r(10, 1), Period: r(1, 2)},
	}
	cases := []struct {
		name    string
		cfg     Config
		outcome Outcome
	}{
		{"completed", completed, Completed},
		{"deadlocked", deadlocked, Deadlocked},
		{"periodic completed", periodicOK, Completed},
		{"underrun", underrun, Underrun},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fresh, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Outcome != c.outcome {
				t.Fatalf("fresh run outcome = %v, want %v", fresh.Outcome, c.outcome)
			}
			m, err := Compile(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				if rep > 0 {
					if err := m.Reset(nil); err != nil {
						t.Fatal(err)
					}
				}
				got, err := m.Run()
				if err != nil {
					t.Fatalf("rep %d: %v", rep, err)
				}
				if !reflect.DeepEqual(fresh, got) {
					t.Fatalf("rep %d: reused machine diverged\nfresh:  %+v\nreused: %+v", rep, fresh, got)
				}
			}
			if _, err := m.Run(); err == nil {
				t.Error("Run without an intervening Reset accepted")
			}
		})
	}
}

// TestMachineResetOverridesMatchFreshGraphs drives one compiled machine
// through several capacity probes via Reset's initial-token overrides and
// checks each against a fresh run of a graph sized at that capacity —
// including returning to a capacity already probed.
func TestMachineResetOverridesMatchFreshGraphs(t *testing.T) {
	cons := func() quanta.Sequence { return quanta.Cycle(2, 3) }
	cfg, space := pairConfig(t, 7, cons(), 30)
	m, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refAt := func(capacity int64) *Result {
		c, _ := pairConfig(t, capacity, cons(), 30)
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Probe downward from the compiled capacity, then back up: 7, 4, 3, 7.
	probes := []struct {
		capacity int64
		override map[string]int64
		outcome  Outcome
	}{
		{7, nil, Completed},
		{4, map[string]int64{space: 4}, Deadlocked},
		{3, map[string]int64{space: 3}, Deadlocked},
		{7, nil, Completed},
	}
	for i, p := range probes {
		if i > 0 || p.override != nil {
			if err := m.Reset(p.override); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.Run()
		if err != nil {
			t.Fatalf("probe %d (capacity %d): %v", i, p.capacity, err)
		}
		if got.Outcome != p.outcome {
			t.Fatalf("probe %d: outcome %v, want %v", i, got.Outcome, p.outcome)
		}
		if want := refAt(p.capacity); !reflect.DeepEqual(want, got) {
			t.Errorf("probe %d (capacity %d): override run diverged from fresh graph\nfresh:    %+v\noverride: %+v",
				i, p.capacity, want, got)
		}
	}
}

func TestMachineResetRejectsBadOverrides(t *testing.T) {
	cfg, space := pairConfig(t, 3, quanta.Constant(3), 10)
	m, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(map[string]int64{"no-such-edge": 1}); err == nil {
		t.Error("unknown edge override accepted")
	}
	if err := m.Reset(map[string]int64{space: -1}); err == nil {
		t.Error("negative initial tokens accepted")
	}
	// The machine must still be usable after rejected Resets.
	if err := m.Reset(nil); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Errorf("outcome after recovering from bad overrides: %v", res.Outcome)
	}
}

// TestLiteResultDropsBulkMaps pins what LiteResult omits and what it keeps:
// scalar outcome data survives, the per-actor and per-edge bulk maps do not
// — except entries explicitly requested via RecordStarts.
func TestLiteResultDropsBulkMaps(t *testing.T) {
	full, _ := pairConfig(t, 3, quanta.Constant(3), 10)
	full.RecordStarts = []string{"wb"}
	lite := full
	lite.LiteResult = true

	fres, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := Run(lite)
	if err != nil {
		t.Fatal(err)
	}
	if lres.Outcome != fres.Outcome || lres.Events != fres.Events || lres.EndTick != fres.EndTick {
		t.Errorf("lite run changed the simulation: lite %+v, full %+v", lres, fres)
	}
	if len(lres.Fired) != 0 || len(lres.Finished) != 0 || len(lres.BusyTicks) != 0 || len(lres.Edges) != 0 {
		t.Errorf("lite result carries bulk maps: %+v", lres)
	}
	if !reflect.DeepEqual(lres.Starts["wb"], fres.Starts["wb"]) {
		t.Errorf("recorded starts differ: lite %v, full %v", lres.Starts["wb"], fres.Starts["wb"])
	}
	if len(fres.Edges) == 0 {
		t.Error("full result missing edge stats")
	}
}

// TestReusedRunSteadyStateAllocs pins the zero-allocation contract of the
// event loop: on a warmed machine with a lite result, the allocations of a
// Reset+Run cycle are a small constant (the Result struct) regardless of
// how many events the run processes — no per-event heap allocation.
func TestReusedRunSteadyStateAllocs(t *testing.T) {
	measure := func(firings int64) float64 {
		cfg, _ := pairConfig(t, 7, quanta.Cycle(2, 3), firings)
		cfg.Validate = false
		cfg.LiteResult = true
		m, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up run so every internal slice has reached capacity.
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := m.Reset(nil); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := measure(50), measure(2000)
	if short > 4 {
		t.Errorf("steady-state Reset+Run allocates %.1f objects, want a small constant", short)
	}
	if long > short {
		t.Errorf("allocations grow with the event count: %.1f at 50 firings, %.1f at 2000", short, long)
	}
}
