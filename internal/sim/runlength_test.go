package sim

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
)

// perEventTwin compiles cfg twice: as given, so constant-rate firings take
// the run-length path, and with CheckInvariants set, which keeps every
// event on the per-event path (invariants are checked after each event).
// Both runs must produce identical Results.
func perEventTwin(t *testing.T, cfg Config) (fast, perEvent *Machine) {
	t.Helper()
	fast, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckInvariants = true
	perEvent, err = Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range perEvent.actors {
		if a.runLength {
			t.Fatalf("actor %s is run-length under CheckInvariants", a.name)
		}
	}
	return fast, perEvent
}

// sameState fails t unless the two machines stopped in the same state:
// every actor and edge field a snapshot holds (minimum shortfalls, which
// decide later warm starts, included), the event and sequence counters,
// and the calendar as a set (its heap layout may differ).
func sameState(t *testing.T, fast, perEvent *Machine) {
	t.Helper()
	f, p := &checkpoint{}, &checkpoint{}
	fast.snapshotInto(f, 0)
	perEvent.snapshotInto(p, 0)
	for _, s := range []*checkpoint{f, p} {
		slices.SortFunc(s.eq, func(a, b event) int {
			if eventLess(a, b) {
				return -1
			}
			return 1
		})
	}
	if !reflect.DeepEqual(f.actors, p.actors) || !reflect.DeepEqual(f.edges, p.edges) ||
		!reflect.DeepEqual(f.eq, p.eq) || f.events != p.events || f.seq != p.seq {
		t.Fatalf("run-length machine state differs from per-event\nper-event: %+v\nrun-length: %+v", p, f)
	}
}

// quietStarts resets each machine so that its periodic stop actor starts
// at the quiet start, as the Verifier's Feasible probe runs it.
func quietStarts(t *testing.T, ms ...*Machine) {
	t.Helper()
	for _, m := range ms {
		m.stop.offset = quietStart
		if err := m.Reset(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// runLengthFirings sums the firings the run-length path applied on m.
func runLengthFirings(m *Machine) int64 {
	var n int64
	for _, a := range m.actors {
		n += a.runLengthFirings
	}
	return n
}

// FuzzRunLengthMatchesPerEvent is the oracle for the run-length fast path:
// across random chains with self-timed, periodic and quiet-start sinks
// (whose start a run-length step must not step over), source-
// constrained chains, zero-quantum ports, capacities below the Equation-4
// sizing, jittered neighbours and event caps that cut runs short, a run
// that applies back-to-back firings in one step must produce a Result
// deeply equal to the per-event run of the same configuration — outcome,
// end tick, event count, every start time, per-edge statistics, underrun
// and deadlock diagnostics — stop in the same machine state, and take its
// checkpoints where a checkpointing per-event machine does.
func FuzzRunLengthMatchesPerEvent(f *testing.F) {
	f.Add(int64(1), int64(1), uint16(0))
	f.Add(int64(2), int64(9), uint16(700))
	f.Add(int64(5), int64(3), uint16(0))
	f.Add(int64(10), int64(0), uint16(1500))
	f.Add(int64(12), int64(6), uint16(333))
	f.Add(int64(25), int64(14), uint16(0))
	f.Add(int64(3), int64(18), uint16(0))   // quiet start
	f.Add(int64(4), int64(19), uint16(900)) // quiet start, source-constrained
	f.Fuzz(runLengthCase)
}

// runLengthCase is one FuzzRunLengthMatchesPerEvent input: seed draws the
// chain and its workload, variant picks the configuration and maxEvents
// the event cap (0: effectively none).
func runLengthCase(t *testing.T, seed, variant int64, maxEvents uint16) {
	variant &= 1<<62 - 1 // the variant switches below read non-negative residues
	gcfg := graphgen.Defaults(seed)
	gcfg.SourceConstrained = variant%2 == 1
	gcfg.ZeroConsumption = seed%5 == 0
	g, c, err := graphgen.Random(gcfg)
	if err != nil {
		t.Skip()
	}
	res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
	if err != nil || !res.Valid {
		t.Skip()
	}
	sized, err := capacity.Sized(g, res)
	if err != nil {
		t.Skip()
	}
	if variant%3 == 2 {
		// Capacities below the sizing: deadlocks and underruns.
		for _, b := range sized.Buffers() {
			b.Capacity = max(1, b.Capacity*2/3)
		}
	}
	cfg, mapping, err := TaskGraphConfig(sized, UniformWorkloads(sized, seed))
	if err != nil {
		t.Skip()
	}
	cfg.Stop = Stop{Actor: c.Task, Firings: 400}
	cfg.MaxEvents = int64(maxEvents)
	if maxEvents == 0 {
		cfg.MaxEvents = 2_000_000
	}
	for _, task := range sized.Tasks() {
		if task.Name != c.Task || variant%4 != 3 {
			cfg.RecordStarts = append(cfg.RecordStarts, task.Name)
		}
	}
	if variant%5 == 4 && len(mapping.Pairs) > 0 {
		// A recorded edge keeps its producer and consumer per-event.
		cfg.RecordOccupancy = []string{mapping.Pairs[0].Space}
	}
	cfg.Actors = make(map[string]ActorConfig)
	if (variant/2)%2 == 1 {
		// Periodic constrained task, with up to four periods of
		// slack per task in the chain.
		offset := c.Period.MulInt(int64(len(sized.Tasks())) * (variant%4 + 1))
		cfg.Actors[c.Task] = ActorConfig{Mode: Periodic, Offset: offset, Period: c.Period}
	}
	if variant%7 == 6 {
		// A jittered task stays per-event amid run-length neighbours.
		task := sized.Tasks()[0]
		half := task.WCRT.DivInt(2)
		cfg.ExtraTimes = append(cfg.ExtraTimes, half)
		ac := cfg.Actors[task.Name]
		ac.Exec = func(k int64) ratio.Rat {
			if k%3 == 1 {
				return half
			}
			return task.WCRT
		}
		cfg.Actors[task.Name] = ac
	}
	// Checkpoints cut runs at the per-event loop's quiescent points; the
	// per-event twin runs without them (CheckInvariants disables them).
	cfg.Checkpoints = int(variant / 3 % 3)
	fast, perEvent := perEventTwin(t, cfg)
	// Quiet-start variant of the periodic constrained task: it starts when
	// the rest of the chain goes quiet, as in a Feasible probe.
	quiet := (variant/2)%2 == 1 && (variant/16)%2 == 1
	if quiet {
		quietStarts(t, fast, perEvent)
	}
	want, werr := perEvent.Run()
	got, gerr := fast.Run()
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("per-event err %v, run-length err %v", werr, gerr)
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("run-length result (%d firings applied) differs from per-event\nper-event: %+v\nrun-length: %+v",
			runLengthFirings(fast), want, got)
	}
	sameState(t, fast, perEvent)
	if fast.ckptSlots > 0 {
		// Same checkpoints as a checkpointing per-event machine.
		slow, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range slow.actors {
			a.runLength = false
		}
		if quiet {
			quietStarts(t, slow)
		}
		if _, err := slow.Run(); err != nil {
			t.Fatal(err)
		}
		if len(slow.ckpts) != len(fast.ckpts) {
			t.Fatalf("%d checkpoints, per-event %d", len(fast.ckpts), len(slow.ckpts))
		}
		for j, s := range slow.ckpts {
			if f := fast.ckpts[j]; f.events != s.events || f.tick != s.tick {
				t.Fatalf("checkpoint %d at event %d tick %d, per-event at %d tick %d", j, f.events, f.tick, s.events, s.tick)
			}
		}
	}
}

// mp3Phases compiles a §5 MP3 Verifier at the given capacities, 2205 DAC
// firings, the benchmark's frame-size stream and the given number of
// checkpoints per phase machine.
func mp3Phases(t *testing.T, d1, d2, d3 int64, checkpoints int) *Verifier {
	t.Helper()
	g := sizedMP3(t, d1, d2, d3)
	vf, err := CompileVerifier(g, mp3.Constraint(), VerifyOptions{
		Firings:     2205,
		Workloads:   mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 2008)),
		LiteResult:  true,
		Checkpoints: checkpoints,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vf
}

// selfTimedCfg returns the configuration of vf's self-timed phase.
func selfTimedCfg(t *testing.T, vf *Verifier) Config {
	t.Helper()
	st, err := vf.selfTimedPhase()
	if err != nil {
		t.Fatal(err)
	}
	return st.cfg
}

// TestRunLengthMatchesPerEventMP3 pins both §5 MP3 phases, at the
// Equation-4 capacities, at the sampled minimum (2048/2496/882, total
// 5426) and one container below it, against the per-event loop. The
// periodic phase starts the DAC at the quiet start, as Feasible does.
func TestRunLengthMatchesPerEventMP3(t *testing.T) {
	for _, caps := range [][3]int64{{6015, 3263, 883}, {2048, 2496, 882}, {2048, 2495, 882}} {
		vf := mp3Phases(t, caps[0], caps[1], caps[2], 0)
		for _, phase := range []struct {
			name string
			cfg  Config
		}{{"self-timed", selfTimedCfg(t, vf)}, {"periodic", vf.periodic.cfg}} {
			fast, perEvent := perEventTwin(t, phase.cfg)
			if phase.name == "periodic" {
				quietStarts(t, fast, perEvent)
			}
			want, err := perEvent.Run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("caps %v, %s phase: run-length result differs from per-event\nper-event: %+v\nrun-length: %+v", caps, phase.name, want, got)
			}
			sameState(t, fast, perEvent)
			if runLengthFirings(fast) == 0 {
				t.Errorf("caps %v, %s phase: no firing took the run-length path", caps, phase.name)
			}
		}
	}
}

// TestRunLengthCarriesMP3DAC pins that the fast path is taken where it
// pays: in a §5 MP3 Feasible probe at 2205 firings, and in the self-timed
// phase of a Verify, at least 95% of the DAC's firings are applied as
// run-length steps. A slip in the eligibility rules would leave results
// unchanged and quietly cost the speed-up; this test catches it.
func TestRunLengthCarriesMP3DAC(t *testing.T) {
	vf := mp3Phases(t, 2048, 2496, 882, 8)
	carried := func(m *Machine) {
		t.Helper()
		dac := actorNamed(t, m, "vDAC")
		if dac.started != 2205 {
			t.Fatalf("vDAC started %d firings, want 2205", dac.started)
		}
		if share := float64(dac.runLengthFirings) / float64(dac.started); share < 0.95 {
			t.Errorf("%v vDAC: %d of %d firings run-length (%.1f%%), want at least 95%%",
				dac.mode, dac.runLengthFirings, dac.started, 100*share)
		}
	}
	ok, err := vf.Feasible(nil, nil)
	if err != nil || !ok {
		t.Fatalf("Feasible at 2048/2496/882 = %v, %v; want true", ok, err)
	}
	carried(vf.periodic)
	if v, err := vf.Verify(nil); err != nil || !v.OK {
		t.Fatalf("Verify at 2048/2496/882 = %+v, %v; want a pass", v, err)
	}
	carried(vf.selfTimed)
}

// TestRunLengthKeepsCheckpointPositions pins that a checkpointing machine
// snapshots at the same events and ticks, and warm-starts the same probes
// over the same prefixes, whether or not firings are applied in runs.
func TestRunLengthKeepsCheckpointPositions(t *testing.T) {
	fast := mp3Phases(t, 6015, 3263, 883, 8)
	slow := mp3Phases(t, 6015, 3263, 883, 8)
	for _, a := range slow.periodic.actors {
		a.runLength = false
	}
	var fastEffort, slowEffort Effort
	fast.periodic.cfg.Effort, slow.periodic.cfg.Effort = &fastEffort, &slowEffort
	for _, caps := range []map[string]int64{nil, {"vSRC->vDAC": 882}, {"vMP3->vSRC": 3072}, {"vBR->vMP3": 4096}, {"vBR->vMP3": 2048}} {
		for _, vf := range []*Verifier{fast, slow} {
			if _, err := vf.Feasible(nil, caps); err != nil {
				t.Fatal(err)
			}
		}
		f, s := fast.periodic.ckpts, slow.periodic.ckpts
		if len(f) != len(s) {
			t.Fatalf("caps %v: %d checkpoints, per-event %d", caps, len(f), len(s))
		}
		for j := range f {
			if f[j].events != s[j].events || f[j].tick != s[j].tick {
				t.Errorf("caps %v, checkpoint %d at event %d tick %d, per-event at %d tick %d",
					caps, j, f[j].events, f[j].tick, s[j].events, s[j].tick)
			}
		}
	}
	if fastEffort.Counts() != slowEffort.Counts() {
		t.Errorf("effort %+v, per-event %+v", fastEffort.Counts(), slowEffort.Counts())
	}
	if runLengthFirings(slow.periodic) != 0 || runLengthFirings(fast.periodic) == 0 {
		t.Error("the run-length path was not switched as the test intends")
	}
}

// TestRunLengthOffByOneLimits walks the event cap across a periodic DAC
// run a firing at a time: each cut must land on the same event, tick and
// state as the per-event loop, whether it falls between a finish and the
// start that shares its tick or after both.
func TestRunLengthOffByOneLimits(t *testing.T) {
	vf := mp3Phases(t, 6015, 3263, 883, 0)
	cfg := vf.periodic.cfg
	cfg.Actors = map[string]ActorConfig{"vDAC": {Mode: Periodic, Offset: ratio.MustNew(1, 10), Period: mp3.Constraint().Period}}
	cfg.LiteResult = false
	for maxEvents := int64(1290); maxEvents < 1310; maxEvents++ {
		cfg.MaxEvents = maxEvents
		fast, perEvent := perEventTwin(t, cfg)
		want, err := perEvent.Run()
		if err != nil {
			t.Fatal(err)
		}
		got, err := fast.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("MaxEvents %d: run-length result differs from per-event\nper-event: %+v\nrun-length: %+v", maxEvents, want, got)
		}
		sameState(t, fast, perEvent)
		if got.Outcome != LimitExceeded || runLengthFirings(fast) == 0 {
			t.Fatalf("MaxEvents %d: outcome %v after %d run-length firings; want a cut into run-length steps", maxEvents, got.Outcome, runLengthFirings(fast))
		}
	}
}

// TestRunLengthKeepsContextChecks pins that the context is polled at the
// same event counts with and without run-length steps: a run aborted at
// its n-th poll stops at the same event and tick either way.
func TestRunLengthKeepsContextChecks(t *testing.T) {
	vf := mp3Phases(t, 6015, 3263, 883, 0)
	for _, cfg := range []Config{selfTimedCfg(t, vf), vf.periodic.cfg} {
		cfg.Stop.Firings = 20 * budgetCheckInterval
		for polls := 1; polls < 5; polls++ {
			fast, perEvent := perEventTwin(t, cfg)
			if cfg.Actors["vDAC"].Mode == Periodic {
				quietStarts(t, fast, perEvent)
			}
			var errs [2]error
			for i, m := range []*Machine{perEvent, fast} {
				m.cfg.Context = &cancelAfter{Context: context.Background(), n: polls}
				_, errs[i] = m.Run()
			}
			if errs[0] == nil || errs[1] == nil || errs[0].Error() != errs[1].Error() {
				t.Errorf("abort at poll %d: per-event err %v, run-length err %v", polls, errs[0], errs[1])
			}
		}
	}
}
