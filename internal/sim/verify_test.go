package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"vrdfcap/internal/budget"
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
	// Nothing downstream can fire before the source does, since the data
	// edge starts empty, so Feasible starts the source at tick 0, also
	// where it fails.
	vf, err := CompileVerifier(g, c, VerifyOptions{
		Firings:   500,
		Workloads: Workloads{"cam->proc": {Prod: quanta.Cycle(2, 3)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int64{7, 2} {
		ok, err := vf.Feasible(nil, map[string]int64{"cam->proc": capacity})
		if err != nil || ok != (capacity == 7) {
			t.Errorf("capacity %d: Feasible = (%v, %v); want %v", capacity, ok, err, capacity == 7)
		}
		if q := vf.periodic.stop.offsetT; q != 0 {
			t.Errorf("capacity %d: Feasible started the source at tick %d; want the quiet start at tick 0", capacity, q)
		}
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
// minimisation, with a cold Verifier steering the walk. At every probe a
// warm-starting Feasible must give the cold Verify(caps).OK, and a
// warm-starting Verify must match the cold one field by field. The walk
// must include probes whose Feasible resumed its periodic phase from the
// previous probe's checkpoints.
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
	var coldEffort, feasibleEffort Effort
	opts.Effort = &coldEffort
	cold, err := CompileVerifier(g, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoints = 8
	opts.Effort = nil
	warmVerify, err := CompileVerifier(g, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Effort = &feasibleEffort
	warmFeasible, err := CompileVerifier(g, c, opts)
	if err != nil {
		t.Fatal(err)
	}

	names := mp3.BufferNames()
	caps := map[string]int64{names[0]: 6015, names[1]: 3263, names[2]: 883}
	var probes, infeasible, periodicResumed int
	probe := func() bool {
		probes++
		coldBefore := coldEffort.ColdResets.Load()
		warmBefore, feasibleBefore := feasibleEffort.WarmResets.Load(), feasibleEffort.ColdResets.Load()
		cv, err := cold.Verify(caps)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := warmVerify.Verify(caps)
		if err != nil {
			t.Fatal(err)
		}
		if cv.OK != wv.OK || cv.Reason != wv.Reason || cv.Attempts != wv.Attempts || cv.OffsetTicks != wv.OffsetTicks ||
			cv.Offset != wv.Offset || !reflect.DeepEqual(cv.Underrun, wv.Underrun) || !reflect.DeepEqual(cv.Deadlock, wv.Deadlock) {
			t.Fatalf("caps %v: warm Verify diverged from cold\ncold: ok=%v attempts=%d offset=%d %q\nwarm: ok=%v attempts=%d offset=%d %q",
				caps, cv.OK, cv.Attempts, cv.OffsetTicks, cv.Reason, wv.OK, wv.Attempts, wv.OffsetTicks, wv.Reason)
		}
		if cv.SelfTimed.Events != wv.SelfTimed.Events ||
			(cv.Periodic == nil) != (wv.Periodic == nil) || cv.Periodic != nil && cv.Periodic.Events != wv.Periodic.Events {
			t.Fatalf("caps %v: warm Verify phases diverged: cold %+v / %+v, warm %+v / %+v",
				caps, cv.SelfTimed, cv.Periodic, wv.SelfTimed, wv.Periodic)
		}
		if coldResets := coldEffort.ColdResets.Load() - coldBefore; cv.Periodic != nil && coldResets != int64(1+cv.Attempts) {
			t.Fatalf("caps %v: cold verifier reported %d cold resets for %d attempts", caps, coldResets, cv.Attempts)
		}
		ok, err := warmFeasible.Feasible(nil, caps)
		if err != nil {
			t.Fatal(err)
		}
		if ok != cv.OK {
			t.Fatalf("caps %v: warm Feasible = %v, cold Verify OK = %v (%s)", caps, ok, cv.OK, cv.Reason)
		}
		if !ok {
			infeasible++
		}
		// Feasible runs one phase, the periodic one from the quiet start;
		// a warm reset means it resumed.
		warm := feasibleEffort.WarmResets.Load() - warmBefore
		resets := warm + feasibleEffort.ColdResets.Load() - feasibleBefore
		if resets != 1 {
			t.Fatalf("caps %v: Feasible reported %d phase resets, want 1", caps, resets)
		} else if warm == 1 {
			periodicResumed++
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
	t.Logf("%d probes: %d infeasible, %d resumed Feasible's periodic phase", probes, infeasible, periodicResumed)
	if infeasible == 0 || periodicResumed == 0 {
		t.Fatalf("%d probes: %d infeasible, %d resumed Feasible's periodic phase; the walk no longer exercises periodic checkpoints",
			probes, infeasible, periodicResumed)
	}
}

// TestFeasibleEventCapIsBudgetError pins that a phase cut short by
// MaxEvents is an error satisfying budget.ErrBudgetExceeded, never an
// "infeasible" verdict, while Verify keeps reporting it as a failed
// verification.
func TestFeasibleEventCapIsBudgetError(t *testing.T) {
	g := sizedMP3(t, 6015, 3263, 883)
	vf, err := CompileVerifier(g, mp3.Constraint(), VerifyOptions{
		Firings:    200,
		Workloads:  mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 2008)),
		MaxEvents:  300,
		LiteResult: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := vf.Feasible(nil, nil)
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("Feasible = (%v, %v); want an error satisfying budget.ErrBudgetExceeded", ok, err)
	}
	if !strings.Contains(err.Error(), "event cap") {
		t.Errorf("error %q does not name the event cap", err)
	}
	v, err := vf.Verify(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Periodic == nil || v.Periodic.Outcome != LimitExceeded {
		t.Errorf("Verify = ok %v, %q; want a failed verification whose periodic phase the cap cut short", v.OK, v.Reason)
	}
}

// TestFeasibleHostileCapacity probes Feasible with a capacity far above
// Equation 4: 10^9 containers on vSRC->vDAC. Before the quiet start the
// upstream tasks run until the buffers block them, so a probe's events grow
// with the total capacity, and such a probe must still end in a verdict or
// in an error satisfying budget.ErrBudgetExceeded, both under MaxEvents and
// under a context deadline with the default event cap.
func TestFeasibleHostileCapacity(t *testing.T) {
	g := sizedMP3(t, 6015, 3263, 883)
	caps := map[string]int64{mp3.BufferNames()[2]: 1_000_000_000}
	for _, tc := range []struct {
		name      string
		maxEvents int64
		deadline  time.Duration
	}{{"event cap", 1_000_000, 0}, {"deadline", 0, 20 * time.Millisecond}} {
		vf, err := CompileVerifier(g, mp3.Constraint(), VerifyOptions{
			Firings:     2205,
			Workloads:   mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 2008)),
			MaxEvents:   tc.maxEvents,
			LiteResult:  true,
			Checkpoints: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if tc.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, tc.deadline)
			defer cancel()
		}
		start := time.Now()
		ok, err := vf.Feasible(ctx, caps)
		if err != nil && !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Fatalf("%s: Feasible = (%v, %v); want a verdict or an error satisfying budget.ErrBudgetExceeded", tc.name, ok, err)
		}
		t.Logf("%s: Feasible = (%v, %v) after %v", tc.name, ok, err, time.Since(start))
	}
}

// TestVerifierRepointsInvariantBounds checks that every probe moves the
// buffer invariants of both phase machines to the probe's capacities: a
// raised capacity holds more tokens than the compiled bound allows, and a
// buffer a later probe leaves out reverts to its compiled capacity, so a
// bound left over from an earlier probe aborts a valid run under Validate.
// A rejected probe changes no bound.
func TestVerifierRepointsInvariantBounds(t *testing.T) {
	g := sizedMP3(t, 6015, 3263, 883)
	vf, err := CompileVerifier(g, mp3.Constraint(), VerifyOptions{
		Firings:     200,
		Workloads:   mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 2008)),
		Validate:    true,
		Checkpoints: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	caps := map[string]int64{names[0]: 7000, names[1]: 4000, names[2]: 1000}
	if ok, err := vf.Feasible(nil, caps); err != nil || !ok {
		t.Fatalf("Feasible(%v) = (%v, %v); want a pass within the raised bounds", caps, ok, err)
	}
	verify := func(caps map[string]int64) {
		t.Helper()
		if v, err := vf.Verify(caps); err != nil || !v.OK {
			t.Fatalf("Verify(%v) = (%+v, %v); want a pass", caps, v, err)
		}
	}
	verify(caps)
	verify(nil)
	verify(map[string]int64{names[2]: 500})
	verify(nil)
	verify(map[string]int64{names[2]: 500})
	if ok, err := vf.Feasible(nil, map[string]int64{names[0]: 6015}); err != nil || !ok {
		t.Fatalf("Feasible omitting %s = (%v, %v); want a pass", names[2], ok, err)
	}
	// One valid and one invalid entry: the probe fails as a whole. Map
	// order decides which entry is seen first, so repeat it.
	for i := 0; i < 16; i++ {
		if _, err := vf.Verify(map[string]int64{names[2]: 500, "nope": 1}); err == nil {
			t.Fatal("Verify with an unknown buffer accepted")
		}
		if _, err := vf.Verify(map[string]int64{names[2]: 500, names[1]: 0}); err == nil {
			t.Fatal("Verify with a zero capacity accepted")
		}
		verify(nil)
	}
}

// TestFeasibleSteadyStateAllocs pins that a warm §5 MP3 Feasible probe on a
// reused Verifier allocates nothing: the capacity assignment becomes the
// initial tokens without building any map, and the verdict comes from the
// run's outcome without a Result.
func TestFeasibleSteadyStateAllocs(t *testing.T) {
	vf := mp3Phases(t, 6015, 3263, 883, 8)
	names := mp3.BufferNames()
	caps := map[string]int64{names[0]: 6015, names[1]: 3263, names[2]: 883}
	if ok, err := vf.Feasible(nil, caps); err != nil || !ok {
		t.Fatalf("Feasible = (%v, %v); want a pass", ok, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := vf.Feasible(nil, caps); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm Feasible probe allocates %.1f objects; want 0", allocs)
	}
}

// TestVerifyAfterFeasibleKeepsStarts pins that the Feasible path compiles
// no self-timed machine and records no start times on the periodic one,
// and that a Verify on the same
// checkpointing Verifier still returns every start: a recording run must
// not resume from a checkpoint a non-recording Feasible run took, which has
// no start prefix to restore. The last Feasible probe of each round has the
// capacities of the Verify after it, so its checkpoints would all be valid
// for the Verify were they not refused.
func TestVerifyAfterFeasibleKeepsStarts(t *testing.T) {
	vf := mp3Phases(t, 6015, 3263, 883, 8)
	names := mp3.BufferNames()
	caps := func(d [3]int64) map[string]int64 {
		return map[string]int64{names[0]: d[0], names[1]: d[1], names[2]: d[2]}
	}
	rounds := [][][3]int64{
		{{6015, 3263, 883}, {2048, 2496, 882}, {2048, 2495, 882}, {4000, 2496, 882}, {4000, 2496, 882}},
		{{4000, 2496, 882}, {3000, 2496, 882}, {3000, 2496, 882}},
	}
	for r, probes := range rounds {
		for _, d := range probes {
			if _, err := vf.Feasible(nil, caps(d)); err != nil {
				t.Fatal(err)
			}
		}
		if r == 0 {
			if vf.selfTimed != nil {
				t.Fatal("Feasible probes compiled the self-timed machine")
			}
			if m := vf.periodic; m.stop.starts != nil {
				t.Fatalf("Feasible probes left a start recording of %d ticks (capacity %d); want none allocated", len(m.stop.starts), cap(m.stop.starts))
			}
		}
		d := probes[len(probes)-1]
		got, err := vf.Verify(caps(d))
		if err != nil {
			t.Fatal(err)
		}
		want, err := VerifyThroughput(sizedMP3(t, d[0], d[1], d[2]), mp3.Constraint(), VerifyOptions{
			Firings:    2205,
			Workloads:  mp3Workload(sizedMP3(t, d[0], d[1], d[2]), quanta.Uniform(mp3.FrameSizes(), 2008)),
			LiteResult: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != want.OK || got.OffsetTicks != want.OffsetTicks {
			t.Errorf("round %d %v: Verify after Feasible gives OK=%v offset %d; fresh VerifyThroughput OK=%v offset %d",
				r, d, got.OK, got.OffsetTicks, want.OK, want.OffsetTicks)
		}
		if !reflect.DeepEqual(got.SelfTimed.Starts, want.SelfTimed.Starts) || !reflect.DeepEqual(got.Periodic.Starts, want.Periodic.Starts) {
			t.Errorf("round %d %v: Verify after Feasible recorded %d self-timed and %d periodic starts; fresh VerifyThroughput %d and %d, or different ticks",
				r, d, len(got.SelfTimed.Starts["vDAC"]), len(got.Periodic.Starts["vDAC"]),
				len(want.SelfTimed.Starts["vDAC"]), len(want.Periodic.Starts["vDAC"]))
		}
	}
}

// TestFeasibleBytesFlatInHorizon pins that Feasible's allocation does not
// grow with the horizon: it records no start times, so 441,000 DAC firings
// (10 s of audio) cost the bytes 2205 do, both for compiling the Verifier
// with its first, cold probe and for each warm probe after it. A warm probe
// allocates nothing; with go1.24 the cold figure is about 16.5 KB for the
// one machine a Feasible-only Verifier compiles and its checkpoint arena
// (about 41 KB when every Verifier compiled a self-timed machine too).
func TestFeasibleBytesFlatInHorizon(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	names := mp3.BufferNames()
	caps := map[string]int64{names[0]: 6015, names[1]: 3263, names[2]: 883}
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	bytes := func(firings int64) (cold, warm uint64) {
		g := sizedMP3(t, 6015, 3263, 883)
		w := mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 2008))
		start := allocated()
		vf, err := CompileVerifier(g, mp3.Constraint(), VerifyOptions{
			Firings:     firings,
			Workloads:   w,
			LiteResult:  true,
			Checkpoints: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := vf.Feasible(nil, caps); err != nil || !ok {
			t.Fatalf("H = %d: Feasible = (%v, %v); want a pass", firings, ok, err)
		}
		cold = allocated() - start
		const probes = 4
		start = allocated()
		for range probes {
			if _, err := vf.Feasible(nil, caps); err != nil {
				t.Fatal(err)
			}
		}
		return cold, (allocated() - start) / probes
	}
	shortCold, shortWarm := bytes(2205)
	longCold, longWarm := bytes(441_000)
	t.Logf("H = 2205: %d B to compile and probe cold, %d B per warm probe; H = 441000: %d B and %d B", shortCold, shortWarm, longCold, longWarm)
	if shortWarm > 112 {
		t.Errorf("a warm Feasible probe allocates %d B; want at most 112, its one Result", shortWarm)
	}
	if longWarm > shortWarm {
		t.Errorf("a warm Feasible probe allocates %d B at H = 441000 and %d B at H = 2205; want no growth with the horizon", longWarm, shortWarm)
	}
	if longCold > shortCold {
		t.Errorf("compiling and probing cold allocates %d B at H = 441000 and %d B at H = 2205; want no growth with the horizon", longCold, shortCold)
	}
}

// TestFeasibleRunsUnderCallContext pins that Feasible's context, not one
// compiled into the Verifier, bounds the probe: a cancelled call context
// stops the run mid-simulation, and the next call under a live context
// passes, so a pooled Verifier keeps no context between probes.
func TestFeasibleRunsUnderCallContext(t *testing.T) {
	g := sizedMP3(t, 6015, 3263, 883)
	stale, cancelStale := context.WithCancel(context.Background())
	cancelStale()
	vf, err := CompileVerifier(g, mp3.Constraint(), VerifyOptions{
		Firings:     2000,
		Workloads:   mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 2008)),
		LiteResult:  true,
		Checkpoints: 8,
		Context:     stale,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, err := vf.Feasible(ctx, nil)
	if !errors.Is(err, budget.ErrCanceled) || !strings.Contains(err.Error(), "sim: run aborted after") {
		t.Fatalf("Feasible under a cancelled context = (%v, %v); want a run aborted with budget.ErrCanceled", ok, err)
	}
	if ok, err := vf.Feasible(context.Background(), nil); err != nil || !ok {
		t.Fatalf("Feasible under a live context after a cancelled one = (%v, %v); want a pass", ok, err)
	}
	if _, err := vf.Verify(nil); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("Verify = %v; want the compiled, cancelled VerifyOptions.Context to stop it", err)
	}
}

// TestVerifyDiagnosticsAfterFeasible pins that Feasible's verdict-only runs
// leave Verify's diagnostics untouched: on one checkpointing Verifier,
// probes alternate Feasible and Verify over passing, underrunning and
// deadlocking capacities, and every Verify returns the verdict, Reason,
// Underrun, Deadlock and offset of a freshly compiled Verifier's Verify.
func TestVerifyDiagnosticsAfterFeasible(t *testing.T) {
	vf := mp3Phases(t, 6015, 3263, 883, 8)
	names := mp3.BufferNames()
	caps := func(d [3]int64) map[string]int64 {
		return map[string]int64{names[0]: d[0], names[1]: d[1], names[2]: d[2]}
	}
	pass, underrun, deadlock := [3]int64{6015, 3263, 883}, [3]int64{6015, 3263, 600}, [3]int64{6015, 3263, 10}
	seen := map[string]bool{}
	for i, d := range [][3]int64{pass, underrun, deadlock, underrun, pass, deadlock, deadlock, pass, underrun} {
		feasible, err := vf.Feasible(nil, caps(d))
		if err != nil {
			t.Fatal(err)
		}
		got, err := vf.Verify(caps(d))
		if err != nil {
			t.Fatal(err)
		}
		want, err := mp3Phases(t, d[0], d[1], d[2], 8).Verify(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != want.OK || feasible != want.OK || got.Reason != want.Reason || got.OffsetTicks != want.OffsetTicks ||
			!reflect.DeepEqual(got.Underrun, want.Underrun) || !reflect.DeepEqual(got.Deadlock, want.Deadlock) {
			t.Errorf("probe %d %v: Feasible %v, then Verify OK=%v offset %d %q underrun %+v deadlock %+v; fresh Verify OK=%v offset %d %q underrun %+v deadlock %+v",
				i, d, feasible, got.OK, got.OffsetTicks, got.Reason, got.Underrun, got.Deadlock,
				want.OK, want.OffsetTicks, want.Reason, want.Underrun, want.Deadlock)
		}
		switch {
		case want.OK:
			seen["pass"] = true
		case want.Underrun != nil:
			seen["underrun"] = true
		case want.Deadlock != nil:
			seen["deadlock"] = true
		}
	}
	if len(seen) != 3 {
		t.Fatalf("probes covered %v; want a pass, an underrun and a deadlock", seen)
	}
}

// TestVerifierUnsizedBuffer pins the probe-input errors of a Verifier
// compiled over a graph with an unsized buffer: a probe that leaves it out
// gets the error TaskGraphConfig gives the unsized graph, word for word,
// unknown and non-positive entries keep their texts, and a probe that
// sizes every buffer gets the verdict of a Verifier compiled sized.
func TestVerifierUnsizedBuffer(t *testing.T) {
	names := mp3.BufferNames()
	g := sizedMP3(t, 6015, 3263, 0)
	_, _, want := TaskGraphConfig(g, nil)
	if want == nil {
		t.Fatal("TaskGraphConfig accepted an unsized graph")
	}
	vf, err := CompileVerifier(g, mp3.Constraint(), VerifyOptions{
		Firings:     2205,
		Workloads:   mp3Workload(g, quanta.Uniform(mp3.FrameSizes(), 2008)),
		LiteResult:  true,
		Checkpoints: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		caps map[string]int64
		want string
	}{
		{map[string]int64{names[0]: 6015, names[1]: 3263}, want.Error()},
		{nil, want.Error()},
		{map[string]int64{names[0]: 6015, names[1]: 3263, names[2]: 883, "nope": 1}, `sim: Verify: unknown buffer "nope"`},
		{map[string]int64{names[0]: 6015, names[1]: 0, names[2]: 883}, "sim: Verify: buffer " + names[1] + " capacity 0 must be positive"},
	} {
		if _, err := vf.Feasible(nil, tc.caps); err == nil || err.Error() != tc.want {
			t.Errorf("Feasible(%v) = %v; want %q", tc.caps, err, tc.want)
		}
		if _, err := vf.Verify(tc.caps); err == nil || err.Error() != tc.want {
			t.Errorf("Verify(%v) = %v; want %q", tc.caps, err, tc.want)
		}
	}
	for _, d3 := range []int64{883, 10} {
		caps := map[string]int64{names[0]: 6015, names[1]: 3263, names[2]: d3}
		got, err := vf.Feasible(nil, caps)
		if err != nil {
			t.Fatal(err)
		}
		if sized, err := mp3Phases(t, 6015, 3263, d3, 8).Feasible(nil, nil); err != nil || got != sized {
			t.Errorf("d3 = %d: Feasible = %v on the unsized verifier, (%v, %v) on a sized one", d3, got, sized, err)
		}
	}
}
