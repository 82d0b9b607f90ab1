package sim

import (
	"reflect"
	"testing"

	"vrdfcap/internal/mp3"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// sizedMP3 returns the Figure-5 graph with the given capacities.
func sizedMP3(t *testing.T, d1, d2, d3 int64) *taskgraph.Graph {
	t.Helper()
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	for i, d := range []int64{d1, d2, d3} {
		g.BufferByName(names[i]).Capacity = d
	}
	return g
}

func mp3Workload(tg *taskgraph.Graph, seq quanta.Sequence) Workloads {
	w := make(Workloads)
	names := mp3.BufferNames()
	w[names[0]] = Workload{Cons: seq}
	return w
}

func TestVerifyMP3PaperCapacities(t *testing.T) {
	// §5: "With our dataflow simulator we have verified that these
	// buffer capacities are indeed sufficient to satisfy the throughput
	// constraint." Check the Equation-4 sizing (6015, 3263, 883) under
	// adversarial and random frame-size streams.
	if testing.Short() {
		t.Skip("simulation horizon too long for -short")
	}
	g := sizedMP3(t, 6015, 3263, 883)
	c := mp3.Constraint()
	streams := map[string]quanta.Sequence{
		"min":      quanta.MinOf(mp3.FrameSizes()),
		"max":      quanta.MaxOf(mp3.FrameSizes()),
		"alt":      quanta.AlternateMinMax(mp3.FrameSizes()),
		"uniform":  quanta.Uniform(mp3.FrameSizes(), 7),
		"walk":     quanta.Walk(mp3.FrameSizes(), 11),
		"cbr320":   quanta.Constant(960),
		"vbrburst": quanta.Cycle(960, 960, 96, 96, 96, 960),
	}
	for name, seq := range streams {
		v, err := VerifyThroughput(g, c, VerifyOptions{
			Firings:   3000,
			Workloads: mp3Workload(g, seq),
			Validate:  true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !v.OK {
			t.Errorf("stream %s: verification failed: %s", name, v.Reason)
		}
	}
}

func TestVerifyMP3PublishedCapacities(t *testing.T) {
	// The paper's published vector (6015, 3263, 882) — one less on the
	// constant-rate third buffer than pure Equation (4) — also passes
	// empirical verification, supporting the exact-tie reading.
	if testing.Short() {
		t.Skip("simulation horizon too long for -short")
	}
	g := sizedMP3(t, 6015, 3263, 882)
	c := mp3.Constraint()
	v, err := VerifyThroughput(g, c, VerifyOptions{
		Firings:   3000,
		Workloads: mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 3)),
		Validate:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Errorf("published capacities failed verification: %s", v.Reason)
	}
}

func TestVerifyMP3InsufficientCapacities(t *testing.T) {
	// Minimal single-firing capacities deadlock-free but far below the
	// required throughput: verification must fail.
	if testing.Short() {
		t.Skip("simulation horizon too long for -short")
	}
	g := sizedMP3(t, 2048, 1152, 441)
	c := mp3.Constraint()
	v, err := VerifyThroughput(g, c, VerifyOptions{
		Firings:   2000,
		Workloads: mp3Workload(g, quanta.Constant(960)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Error("clearly insufficient capacities passed verification")
	}
}

func TestVerifyPairDeterministic(t *testing.T) {
	// Figure-1 pair sized by Equation (4) for τ = 3: capacity 7.
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	g.Buffers()[0].Capacity = 7
	c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
	for _, adv := range Adversaries {
		v, err := VerifyThroughput(g, c, VerifyOptions{
			Firings:   500,
			Workloads: AdversarialWorkloads(g, adv),
			Validate:  true,
		})
		if err != nil {
			t.Fatalf("%v: %v", adv, err)
		}
		if !v.OK {
			t.Errorf("adversary %v: %s", adv, v.Reason)
		}
	}
	// Capacity 3 fails under the all-min adversary (deadlock).
	g.Buffers()[0].Capacity = 3
	v, err := VerifyThroughput(g, c, VerifyOptions{
		Firings:   500,
		Workloads: AdversarialWorkloads(g, AdversaryMin),
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Error("capacity 3 passed under all-min adversary")
	}
	if v.SelfTimed.Outcome != Deadlocked {
		t.Errorf("self-timed outcome %v, want deadlocked", v.SelfTimed.Outcome)
	}
}

func TestVerifySourceConstrained(t *testing.T) {
	// §4.4 mirror: the source is periodic; back-pressure from the
	// consumer must never stall it.
	g, err := taskgraph.Pair("cam", r(1, 1), "proc", r(1, 1),
		taskgraph.MustQuanta(2, 3), taskgraph.MustQuanta(3))
	if err != nil {
		t.Fatal(err)
	}
	g.Buffers()[0].Capacity = 7 // Equation (4) for τ = 3
	c := taskgraph.Constraint{Task: "cam", Period: r(3, 1)}
	v, err := VerifyThroughput(g, c, VerifyOptions{
		Firings:   500,
		Workloads: Workloads{"cam->proc": {Prod: quanta.Cycle(2, 3)}},
		Validate:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Errorf("source-constrained verification failed: %s", v.Reason)
	}
	// A starved buffer (capacity 2 < a single production of 3) blocks
	// the source outright.
	g.Buffers()[0].Capacity = 2
	v, err = VerifyThroughput(g, c, VerifyOptions{
		Firings:   100,
		Workloads: Workloads{"cam->proc": {Prod: quanta.Constant(3)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Error("capacity below one production quantum passed")
	}
}

func TestUniformWorkloadsCoverVariableBuffers(t *testing.T) {
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	w := UniformWorkloads(g, 1)
	names := mp3.BufferNames()
	if w[names[0]].Cons == nil {
		t.Error("variable consumption buffer got no sequence")
	}
	if w[names[0]].Prod != nil {
		t.Error("constant production side got a sequence")
	}
	if w[names[1]].Prod != nil || w[names[1]].Cons != nil {
		t.Error("fully constant buffer got sequences")
	}
}

func TestMaxLateness(t *testing.T) {
	// starts 0, 5, 12 with period 5: lateness 0, 0, 2.
	if got := MaxLateness([]int64{0, 5, 12}, 5); got != 2 {
		t.Errorf("MaxLateness = %d, want 2", got)
	}
	// Early starts give the first-start offset.
	if got := MaxLateness([]int64{3, 4, 5}, 5); got != 3 {
		t.Errorf("MaxLateness = %d, want 3", got)
	}
	if got := MaxLateness(nil, 5); got != 0 {
		t.Errorf("MaxLateness(nil) = %d, want 0", got)
	}
}

func TestAveragePeriodTicks(t *testing.T) {
	avg, err := AveragePeriodTicks([]int64{0, 4, 8, 13})
	if err != nil {
		t.Fatal(err)
	}
	if !avg.Equal(ratio.MustNew(13, 3)) {
		t.Errorf("avg = %v, want 13/3", avg)
	}
	if _, err := AveragePeriodTicks([]int64{1}); err == nil {
		t.Error("single start accepted")
	}
}

// TestMonotonicityInStartTimes property-tests Definition 1: making firings
// faster (earlier productions) never makes any start later.
func TestMonotonicityInStartTimes(t *testing.T) {
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{{Name: "a", WCRT: r(2, 1)}, {Name: "b", WCRT: r(2, 1)}, {Name: "c", WCRT: r(2, 1)}},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(3), Cons: taskgraph.MustQuanta(2, 3), Capacity: 9},
			{Prod: taskgraph.MustQuanta(1, 2), Cons: taskgraph.MustQuanta(2), Capacity: 8},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	w := Workloads{
		"a->b": {Cons: quanta.Cycle(2, 3, 3)},
		"b->c": {Prod: quanta.Cycle(1, 2, 2, 1)},
	}
	run := func(exec map[string]func(int64) ratio.Rat) *Result {
		cfg, _, err := TaskGraphConfig(g, w)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stop = Stop{Actor: "c", Firings: 200}
		cfg.RecordStarts = []string{"a", "b", "c"}
		cfg.ExtraTimes = []ratio.Rat{r(1, 4)}
		cfg.Actors = map[string]ActorConfig{}
		for name, fn := range exec {
			cfg.Actors[name] = ActorConfig{Exec: fn}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != Completed {
			t.Fatalf("outcome %v", res.Outcome)
		}
		return res
	}
	slow := run(nil) // every firing takes the full ρ
	fast := run(map[string]func(int64) ratio.Rat{
		// Some firings finish early: a seeded, deterministic speedup.
		"a": func(k int64) ratio.Rat {
			if k%3 == 1 {
				return r(1, 2)
			}
			return r(2, 1)
		},
		"b": func(k int64) ratio.Rat {
			if k%5 == 2 {
				return r(5, 4)
			}
			return r(2, 1)
		},
	})
	for _, actor := range []string{"a", "b", "c"} {
		s, f := slow.Starts[actor], fast.Starts[actor]
		n := len(f)
		if len(s) < n {
			n = len(s)
		}
		for k := 0; k < n; k++ {
			if f[k] > s[k] {
				t.Fatalf("monotonicity violated: %s firing %d starts at %d with faster firings vs %d", actor, k, f[k], s[k])
			}
		}
	}
}

// TestLinearityInStartTimes property-tests Definition 2: delaying starts by
// at most Δ delays every start by at most Δ.
func TestLinearityInStartTimes(t *testing.T) {
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{{Name: "a", WCRT: r(2, 1)}, {Name: "b", WCRT: r(2, 1)}, {Name: "c", WCRT: r(2, 1)}},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(3), Cons: taskgraph.MustQuanta(2, 3), Capacity: 9},
			{Prod: taskgraph.MustQuanta(2), Cons: taskgraph.MustQuanta(2), Capacity: 8},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	w := Workloads{"a->b": {Cons: quanta.Cycle(2, 3)}}
	run := func(shift map[string]func(int64) ratio.Rat) *Result {
		cfg, _, err := TaskGraphConfig(g, w)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stop = Stop{Actor: "c", Firings: 150}
		cfg.RecordStarts = []string{"a", "b", "c"}
		cfg.ExtraTimes = []ratio.Rat{r(1, 2)}
		cfg.Actors = map[string]ActorConfig{}
		for name, fn := range shift {
			cfg.Actors[name] = ActorConfig{StartShift: fn}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != Completed {
			t.Fatalf("outcome %v", res.Outcome)
		}
		return res
	}
	baselineRun := run(nil)
	// Delay exactly one firing: StartShift postpones beyond the firing's
	// enabling in the perturbed run, so shifting several firings would
	// compound induced and imposed delays beyond the single Δ that
	// Definition 2 quantifies over.
	delta := r(3, 2)
	delayed := run(map[string]func(int64) ratio.Rat{
		"b": func(k int64) ratio.Rat {
			if k == 3 {
				return delta
			}
			return ratio.Zero
		},
	})
	deltaTicks, err := baselineRun.Base.Ticks(delta)
	if err != nil {
		t.Fatal(err)
	}
	for _, actor := range []string{"a", "b", "c"} {
		s, d := baselineRun.Starts[actor], delayed.Starts[actor]
		n := len(d)
		if len(s) < n {
			n = len(s)
		}
		for k := 0; k < n; k++ {
			diff := d[k] - s[k]
			if diff < 0 {
				t.Fatalf("delayed run starts %s firing %d earlier (%d vs %d)", actor, k, d[k], s[k])
			}
			if diff > deltaTicks {
				t.Fatalf("linearity violated: %s firing %d delayed by %d ticks > Δ = %d", actor, k, diff, deltaTicks)
			}
		}
	}
}

func TestJitterTicks(t *testing.T) {
	// Gaps 4, 6, 5 -> jitter 2.
	j, err := JitterTicks([]int64{0, 4, 10, 15})
	if err != nil || j != 2 {
		t.Errorf("JitterTicks = %d, %v; want 2", j, err)
	}
	// Strictly periodic -> 0.
	j, err = JitterTicks([]int64{3, 6, 9, 12})
	if err != nil || j != 0 {
		t.Errorf("periodic jitter = %d, %v; want 0", j, err)
	}
	if _, err := JitterTicks([]int64{1}); err == nil {
		t.Error("single start accepted")
	}
}

// TestVerifierWarmMatchesCold walks the §5 MP3 chain through a
// coordinate-wise bisection of its capacities, the probe pattern of a
// minimisation, on a warm-starting Verifier and on a cold one. Every verdict
// and diagnostic must agree, and the walk must include probes whose later
// offset attempts resume from their own checkpoints.
func TestVerifierWarmMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation horizon too long for -short")
	}
	g := sizedMP3(t, 6015, 3263, 883)
	c := mp3.Constraint()
	opts := VerifyOptions{
		Firings:    2205,
		Workloads:  mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 2008)),
		LiteResult: true,
	}
	cold, err := CompileVerifier(g, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoints = 8
	warm, err := CompileVerifier(g, c, opts)
	if err != nil {
		t.Fatal(err)
	}

	names := mp3.BufferNames()
	caps := map[string]int64{names[0]: 6015, names[1]: 3263, names[2]: 883}
	var probes, retried, warmRetried int
	probe := func() bool {
		probes++
		cv, err := cold.Verify(caps)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := warm.Verify(caps)
		if err != nil {
			t.Fatal(err)
		}
		if cv.OK != wv.OK || cv.Reason != wv.Reason || cv.Attempts != wv.Attempts || cv.OffsetTicks != wv.OffsetTicks ||
			!reflect.DeepEqual(cv.Underrun, wv.Underrun) || !reflect.DeepEqual(cv.Deadlock, wv.Deadlock) {
			t.Fatalf("caps %v: warm verdict diverged from cold\ncold: ok=%v attempts=%d offset=%d %q\nwarm: ok=%v attempts=%d offset=%d %q",
				caps, cv.OK, cv.Attempts, cv.OffsetTicks, cv.Reason, wv.OK, wv.Attempts, wv.OffsetTicks, wv.Reason)
		}
		if (cv.Periodic == nil) != (wv.Periodic == nil) || cv.Periodic != nil && cv.Periodic.Events != wv.Periodic.Events {
			t.Fatalf("caps %v: periodic phase diverged: cold %+v, warm %+v", caps, cv.Periodic, wv.Periodic)
		}
		if _, _, _, coldResets := cold.LastEffort(); cv.Periodic != nil && coldResets != 1+cv.Attempts {
			t.Fatalf("caps %v: cold verifier reported %d cold resets for %d attempts", caps, coldResets, cv.Attempts)
		}
		if cv.Attempts > 1 {
			retried++
			// The self-timed phase and attempt 1 could warm-start on one
			// shared periodic machine too; any further warm reset is a
			// later attempt resuming under its own offset.
			if _, _, w, _ := warm.LastEffort(); w > 2 {
				warmRetried++
			}
		}
		return cv.OK
	}
	if !probe() {
		t.Fatal("Equation-4 capacities failed verification")
	}
	for _, name := range names {
		lo, hi := int64(1), caps[name] // hi feasible
		for lo < hi {
			caps[name] = (lo + hi) / 2
			if probe() {
				hi = caps[name]
			} else {
				lo = caps[name] + 1
			}
		}
		caps[name] = hi
	}
	t.Logf("%d probes: %d retried, %d warm-retried", probes, retried, warmRetried)
	if retried == 0 || warmRetried == 0 {
		t.Fatalf("%d probes: %d retried an offset, %d of them warm-started a later attempt; the walk no longer exercises per-attempt checkpoints",
			probes, retried, warmRetried)
	}
}

// TestAttemptMachinesInheritInvariantBounds checks that a periodic-phase
// machine compiled on a later offset attempt starts from the buffer
// invariant bounds of the current probe, not the compiled capacities.
func TestAttemptMachinesInheritInvariantBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation horizon too long for -short")
	}
	g := sizedMP3(t, 6015, 3263, 883)
	vf, err := CompileVerifier(g, mp3.Constraint(), VerifyOptions{
		Firings:     2205,
		Workloads:   mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 2008)),
		Validate:    true,
		Checkpoints: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	// A d2 this small underruns the periodic DAC under every offset, so
	// every later attempt compiles its machine mid-probe.
	caps := map[string]int64{names[1]: 1632}
	v, err := vf.Verify(caps)
	if err != nil {
		t.Fatal(err)
	}
	if v.Attempts < 2 {
		t.Fatalf("probe took %d attempts; want a retried offset", v.Attempts)
	}
	for i, m := range vf.periodic[:v.Attempts] {
		found := false
		for _, inv := range m.invariants {
			if inv.name == "buffer "+names[1] {
				found = true
				if inv.max != caps[names[1]] {
					t.Errorf("attempt %d machine bounds %s at %d, want %d", i+1, inv.name, inv.max, caps[names[1]])
				}
			}
		}
		if !found {
			t.Errorf("attempt %d machine has no invariant for buffer %s", i+1, names[1])
		}
	}
}
