// Benchmarks regenerating every figure and table of Wiggers et al. (DATE
// 2008) plus the ablations called out in DESIGN.md. Each benchmark both
// measures the cost of the corresponding computation and asserts that the
// regenerated numbers match the paper (or the documented reading of them),
// reporting the headline values as custom metrics. See EXPERIMENTS.md for
// the paper-vs-measured record.
package vrdfcap

import (
	"math"
	"testing"

	"vrdfcap/internal/bounds"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/cheap"
	"vrdfcap/internal/exact"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sdf"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
	"vrdfcap/internal/trace"
	"vrdfcap/internal/vrdf"
)

func figure1Graph(b *testing.B) *Graph {
	b.Helper()
	g, err := Pair("wa", Rat(1, 1), "wb", Rat(1, 1), Quanta(3), Quanta(2, 3))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func mp3Graph(b *testing.B) *Graph {
	b.Helper()
	g, err := mp3.Graph()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFigure1MotivatingExample regenerates the §1 example: the
// minimum deadlock-free capacity is 3 under the all-3 stream and 4 under
// the all-2 stream (and 5 when alternating, which the paper's prose
// implies but does not list).
func BenchmarkFigure1MotivatingExample(b *testing.B) {
	g := figure1Graph(b)
	var n3, n2, alt int64
	var probes, cached int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		probes, cached = 0, 0
		for _, c := range []struct {
			seq  quanta.Sequence
			dest *int64
		}{
			{quanta.Constant(3), &n3},
			{quanta.Constant(2), &n2},
			{quanta.Cycle(2, 3), &alt},
		} {
			check := minimize.DeadlockFreeCheck(g, "wb", 100, []sim.Workloads{
				{"wa->wb": {Cons: c.seq}},
			})
			res, err := minimize.Search([]string{"wa->wb"}, map[string]int64{"wa->wb": 16}, check)
			if err != nil {
				b.Fatal(err)
			}
			*c.dest = res.Caps["wa->wb"]
			probes += res.Checks
			cached += res.CacheHits
		}
	}
	if n3 != 3 || n2 != 4 || alt != 5 {
		b.Fatalf("minimal capacities = (%d, %d, %d), want (3, 4, 5)", n3, n2, alt)
	}
	b.ReportMetric(float64(n3), "cap_n3")
	b.ReportMetric(float64(n2), "cap_n2")
	b.ReportMetric(float64(alt), "cap_alt")
	b.ReportMetric(float64(probes), "probes_sim")
	b.ReportMetric(float64(cached), "probes_cached")
}

// BenchmarkFigure2ModelConstruction regenerates Figure 2: constructing the
// VRDF analysis graph (two opposite edges per buffer, capacity as initial
// tokens on the space edge) from the Figure-1 task graph.
func BenchmarkFigure2ModelConstruction(b *testing.B) {
	g := figure1Graph(b)
	g.Buffers()[0].Capacity = 7
	var edges int
	for i := 0; i < b.N; i++ {
		vg, m, err := vrdf.FromTaskGraph(g)
		if err != nil {
			b.Fatal(err)
		}
		if err := vrdf.CheckBufferSymmetry(vg, m); err != nil {
			b.Fatal(err)
		}
		edges = len(vg.Edges())
	}
	if edges != 2 {
		b.Fatalf("VRDF pair has %d edges, want 2", edges)
	}
	b.ReportMetric(float64(edges), "edges")
}

// BenchmarkFigure3ScheduleBounds regenerates Figure 3: the consumer's
// alternating 2,3 schedule against the linear bounds — execute the strictly
// periodic schedule, record every transfer and check the consumption lower
// bound is conservative.
func BenchmarkFigure3ScheduleBounds(b *testing.B) {
	g := figure1Graph(b)
	con := Constraint{Task: "wb", Period: Rat(3, 1)}
	res, err := capacity.Compute(g, con, capacity.PolicyEquation4)
	if err != nil {
		b.Fatal(err)
	}
	lines, err := res.Buffers[0].AnchoredLines()
	if err != nil {
		b.Fatal(err)
	}
	sized, err := capacity.Sized(g, res)
	if err != nil {
		b.Fatal(err)
	}
	var events int64
	for i := 0; i < b.N; i++ {
		cfg, m, err := sim.TaskGraphConfig(sized, sim.Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}})
		if err != nil {
			b.Fatal(err)
		}
		cfg.Stop = sim.Stop{Actor: "wb", Firings: 100}
		cfg.RecordTransfers = []string{m.Pairs[0].Data}
		cfg.ExtraTimes = []ratio.Rat{lines.ConsumerOffset, con.Period}
		cfg.Actors = map[string]sim.ActorConfig{
			"wb": {Mode: sim.Periodic, Offset: lines.ConsumerOffset, Period: con.Period},
		}
		run, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if run.Outcome != sim.Completed {
			b.Fatalf("outcome %v", run.Outcome)
		}
		if v := bounds.CheckLower(lines.DataLower, trace.ToEvents(run.Transfers[m.Pairs[0].Data], run.Base, false)); v != nil {
			b.Fatalf("consumption bound violated: %v", v)
		}
		events = run.Events
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkFigure4BoundDistance regenerates Figure 4: the minimum distance
// between token-transfer bounds, Equations (1)–(3), for the Figure-2 pair
// with m̂ = 3 and τ = 3.
func BenchmarkFigure4BoundDistance(b *testing.B) {
	var d bounds.PairDistances
	for i := 0; i < b.N; i++ {
		var err error
		d, err = bounds.Distances(Rat(1, 1), Rat(1, 1), Rat(1, 1), 3, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !d.ProducerGap.Equal(Rat(3, 1)) || !d.ConsumerGap.Equal(Rat(3, 1)) || !d.SpaceGap.Equal(Rat(6, 1)) {
		b.Fatalf("Eq(1)=%v Eq(2)=%v Eq(3)=%v, want 3, 3, 6", d.ProducerGap, d.ConsumerGap, d.SpaceGap)
	}
	b.ReportMetric(d.ProducerGap.Float64(), "eq1_gap")
	b.ReportMetric(d.ConsumerGap.Float64(), "eq2_gap")
	b.ReportMetric(d.SpaceGap.Float64(), "eq3_gap")
}

// BenchmarkSection5MP3Capacities regenerates the §5 capacity table: the
// paper's response times and d1, d2, d3 under Equation (4) (6015, 3263,
// 883 — the paper prints 882 for d3) and the constant-rate baseline with
// n = 960 (5888, 3072, 882).
func BenchmarkSection5MP3Capacities(b *testing.B) {
	g := mp3Graph(b)
	c := mp3.Constraint()
	names := mp3.BufferNames()
	var eq4, base [3]int64
	for i := 0; i < b.N; i++ {
		res, err := Analyze(g, c, PolicyEquation4)
		if err != nil {
			b.Fatal(err)
		}
		bres, err := Analyze(capacity.WithConstantMaxRates(g), c, PolicyBaseline)
		if err != nil {
			b.Fatal(err)
		}
		for j, n := range names {
			eq4[j] = res.BufferByName(n).Capacity
			base[j] = bres.BufferByName(n).Capacity
		}
	}
	if eq4 != [3]int64{6015, 3263, 883} {
		b.Fatalf("Equation-4 capacities %v, want [6015 3263 883]", eq4)
	}
	if base != [3]int64{5888, 3072, 882} {
		b.Fatalf("baseline capacities %v, want [5888 3072 882]", base)
	}
	b.ReportMetric(float64(eq4[0]), "d1")
	b.ReportMetric(float64(eq4[1]), "d2")
	b.ReportMetric(float64(eq4[2]), "d3")
	b.ReportMetric(float64(base[0]), "d1_base")
	b.ReportMetric(float64(base[1]), "d2_base")
	b.ReportMetric(float64(base[2]), "d3_base")
}

// BenchmarkSection5MP3SimVerify regenerates the §5 verification: "With our
// dataflow simulator we have verified that these buffer capacities are
// indeed sufficient to satisfy the throughput constraint." Each iteration
// verifies 2205 DAC periods (50 ms of audio) under a random VBR stream.
func BenchmarkSection5MP3SimVerify(b *testing.B) {
	g := mp3Graph(b)
	c := mp3.Constraint()
	sized, _, err := Size(g, c, PolicyEquation4)
	if err != nil {
		b.Fatal(err)
	}
	w := Workloads{mp3.BufferNames()[0]: {Cons: quanta.Uniform(mp3.FrameSizes(), 2008)}}
	var events, total int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := Verify(sized, c, VerifyOptions{Firings: 2205, Workloads: w})
		if err != nil {
			b.Fatal(err)
		}
		if !v.OK {
			b.Fatalf("verification failed: %s", v.Reason)
		}
		events = v.Periodic.Events
		total += v.SelfTimed.Events + v.Periodic.Events
	}
	b.ReportMetric(float64(events), "events")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(total)/s, "events/sec")
	}
}

// BenchmarkSection5MP3Minimize measures the empirical capacity search on the
// §5 MP3 chain — the heaviest minimisation in the repo: each probe simulates
// 2205 DAC firings (50 ms of audio) through both verification phases. The
// probes_sim/probes_cached/probes_bound metrics record how much of the
// coordinate descent the monotone feasibility cache and the analytic α̂/α̌
// bounds answer without simulating; sim_events and events_per_probe record
// the residual simulation effort after checkpointed warm starts replay the
// shared probe prefixes (neither counts replayed events).
func BenchmarkSection5MP3Minimize(b *testing.B) { benchmarkMP3Minimize(b, 2205) }

// BenchmarkSection5MP3MinimizeLong is the same search at 441,000 DAC firings
// (10 s of audio), a horizon at which the minimum has converged to 9082. A
// probe's cost there is the events it simulates, not the firings it covers:
// run-length firings apply the DAC's back-to-back samples in one step, and
// Feasible records no start times.
func BenchmarkSection5MP3MinimizeLong(b *testing.B) { benchmarkMP3Minimize(b, 441_000) }

// benchmarkMP3Minimize runs the §5 minimisation serially with 8 checkpoints
// per phase machine and bound pruning on, each probe simulating the given
// number of DAC firings.
func benchmarkMP3Minimize(b *testing.B, firings int64) {
	g := mp3Graph(b)
	c := mp3.Constraint()
	res, err := Analyze(g, c, PolicyEquation4)
	if err != nil {
		b.Fatal(err)
	}
	sufficient, necessary, err := capacity.SearchBounds(res, g)
	if err != nil {
		b.Fatal(err)
	}
	bnds := &minimize.Bounds{Sufficient: sufficient, Necessary: necessary}
	names := mp3.BufferNames()
	upper := make(map[string]int64, len(names))
	for _, n := range names {
		upper[n] = res.BufferByName(n).Capacity
	}
	w := []sim.Workloads{{names[0]: {Cons: quanta.Uniform(mp3.FrameSizes(), 2008)}}}
	var total, simEvents, resumed int64
	var probes, cached, bound int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stats := &minimize.ProbeStats{}
		opts := minimize.Options{Checkpoints: 8, Bounds: bnds, Stats: stats}
		check := minimize.ThroughputCheck(g, c, firings, w, opts)
		mres, err := minimize.Search(names[:], upper, check, opts)
		if err != nil {
			b.Fatal(err)
		}
		total = mres.Total()
		probes = mres.Checks
		cached = mres.CacheHits
		bound = mres.BoundHits
		simEvents = stats.SimEvents.Load()
		resumed = stats.ResumedEvents.Load()
	}
	if total >= res.TotalCapacity() {
		b.Fatalf("empirical minimum %d not below the analytic sizing %d", total, res.TotalCapacity())
	}
	b.ReportMetric(float64(total), "min_total_capacity")
	b.ReportMetric(float64(probes), "probes_sim")
	b.ReportMetric(float64(cached), "probes_cached")
	b.ReportMetric(float64(bound), "probes_bound")
	b.ReportMetric(float64(simEvents), "sim_events")
	b.ReportMetric(float64(resumed), "resumed_events")
	if probes > 0 {
		b.ReportMetric(float64(simEvents)/float64(probes), "events_per_probe")
	}
}

// BenchmarkSection5MP3MinimizeWarm reruns the §5 minimisation against a
// pre-warmed shared feasibility frontier (what a second CLI run with
// -cache-dir sees): every probe of the coordinate descent is answered by
// the cache, so probes_sim must be exactly zero and the found minimum must
// match the cold search bit for bit.
func BenchmarkSection5MP3MinimizeWarm(b *testing.B) {
	g := mp3Graph(b)
	c := mp3.Constraint()
	res, err := Analyze(g, c, PolicyEquation4)
	if err != nil {
		b.Fatal(err)
	}
	names := mp3.BufferNames()
	upper := make(map[string]int64, len(names))
	for _, n := range names {
		upper[n] = res.BufferByName(n).Capacity
	}
	w := []sim.Workloads{{names[0]: {Cons: quanta.Uniform(mp3.FrameSizes(), 2008)}}}
	shared := probecache.NewFrontier(names[:])
	opts := minimize.Options{Cache: shared}
	cold, err := minimize.Search(names[:], upper, minimize.ThroughputCheck(g, c, 2205, w), opts)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	var probes, cached int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check := minimize.ThroughputCheck(g, c, 2205, w)
		mres, err := minimize.Search(names[:], upper, check, opts)
		if err != nil {
			b.Fatal(err)
		}
		total = mres.Total()
		probes = mres.Checks
		cached = mres.CacheHits
	}
	if probes != 0 {
		b.Fatalf("warm search simulated %d probes, want 0", probes)
	}
	if total != cold.Total() {
		b.Fatalf("warm minimum %d diverged from cold minimum %d", total, cold.Total())
	}
	b.ReportMetric(float64(total), "min_total_capacity")
	b.ReportMetric(float64(probes), "probes_sim")
	b.ReportMetric(float64(cached), "probes_cached")
}

// BenchmarkSourceConstrainedChain exercises §4.4 on the mirrored MP3 chain:
// the source reads strictly periodically, rates propagate downstream.
func BenchmarkSourceConstrainedChain(b *testing.B) {
	g, err := Chain(
		[]Stage{
			{Name: "adc", WCRT: Rat(1, 44100)},
			{Name: "src", WCRT: Rat(1, 100)},
			{Name: "enc", WCRT: Rat(3, 125)},
			{Name: "store", WCRT: Rat(32, 625)},
		},
		[]Link{
			{Prod: Quanta(1), Cons: Quanta(441)},
			{Prod: Quanta(480), Cons: Quanta(1152)},
			{Prod: mp3.FrameSizes(), Cons: Quanta(2048)},
		},
	)
	if err != nil {
		b.Fatal(err)
	}
	c := Constraint{Task: "adc", Period: Rat(1, 44100)}
	var total int64
	for i := 0; i < b.N; i++ {
		res, err := Analyze(g, c, PolicyEquation4)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Valid {
			b.Fatalf("source-constrained chain invalid: %v", res.Diagnostics)
		}
		total = res.TotalCapacity()
	}
	b.ReportMetric(float64(total), "total_capacity")
}

// BenchmarkAblationVariabilitySweep quantifies how capacity grows with the
// spread of the consumption quanta while the maximum stays fixed at 960:
// the cost of variability that constant-rate techniques cannot see.
func BenchmarkAblationVariabilitySweep(b *testing.B) {
	mins := []int64{960, 768, 480, 96}
	caps := make([]int64, len(mins))
	c := mp3.Constraint()
	for i := 0; i < b.N; i++ {
		for j, lo := range mins {
			var set taskgraph.QuantaSet
			if lo == 960 {
				set = Quanta(960)
			} else {
				set = Quanta(lo, 960)
			}
			g, err := mp3.GraphWithFrameQuanta(set)
			if err != nil {
				b.Fatal(err)
			}
			res, err := Analyze(g, c, PolicyHybrid)
			if err != nil {
				b.Fatal(err)
			}
			caps[j] = res.BufferByName(mp3.BufferNames()[0]).Capacity
		}
	}
	// Under the hybrid policy the singleton (CBR) case enjoys the
	// gcd-granularity bound (5888); any variability at all forfeits it
	// and Equation (4) takes over (6015), independent of the spread —
	// Equation (4) depends only on the maxima.
	if caps[0] != 5888 {
		b.Fatalf("CBR capacity = %d, want 5888", caps[0])
	}
	for j := 1; j < len(caps); j++ {
		if caps[j] != 6015 {
			b.Fatalf("VBR capacity[%d] = %d, want 6015", j, caps[j])
		}
	}
	b.ReportMetric(float64(caps[0]), "cap_cbr960")
	b.ReportMetric(float64(caps[len(caps)-1]), "cap_vbr")
	b.ReportMetric(float64(caps[1]-caps[0]), "variability_cost")
}

// BenchmarkAblationPolicyGap measures the tightness gap between Equation
// (4), the hybrid refinement and the empirical deadlock-free minimum on the
// Figure-1 pair.
func BenchmarkAblationPolicyGap(b *testing.B) {
	g := figure1Graph(b)
	c := Constraint{Task: "wb", Period: Rat(3, 1)}
	var eq4, empirical int64
	for i := 0; i < b.N; i++ {
		res, err := Analyze(g, c, PolicyEquation4)
		if err != nil {
			b.Fatal(err)
		}
		eq4 = res.Buffers[0].Capacity
		check := minimize.ThroughputCheck(g, c, 200, []sim.Workloads{
			{"wa->wb": {Cons: quanta.Constant(2)}},
			{"wa->wb": {Cons: quanta.Constant(3)}},
			{"wa->wb": {Cons: quanta.Cycle(2, 3)}},
		})
		m, err := minimize.Search([]string{"wa->wb"}, map[string]int64{"wa->wb": eq4}, check)
		if err != nil {
			b.Fatal(err)
		}
		empirical = m.Caps["wa->wb"]
	}
	b.ReportMetric(float64(eq4), "cap_eq4")
	b.ReportMetric(float64(empirical), "cap_empirical")
	b.ReportMetric(float64(eq4-empirical), "gap")
}

// BenchmarkRationalVsFloat shows why the analysis uses exact rationals:
// evaluating Equation (4) in float64 across a parameter sweep mis-floors
// capacities near integer boundaries.
func BenchmarkRationalVsFloat(b *testing.B) {
	var mismatches int
	for i := 0; i < b.N; i++ {
		mismatches = 0
		for den := int64(1); den <= 60; den++ {
			for num := int64(1); num <= 60; num++ {
				mu := ratio.MustNew(num, den*7)
				rhoP := ratio.MustNew(num+den, 3)
				rhoC := ratio.MustNew(den, 9)
				d, err := bounds.Distances(mu, rhoP, rhoC, 5, 3)
				if err != nil {
					b.Fatal(err)
				}
				exact, err := d.SufficientTokens()
				if err != nil {
					b.Fatal(err)
				}
				f := (rhoP.Float64()+rhoC.Float64())/mu.Float64() + (5 - 1) + (3 - 1) + 1
				if int64(math.Floor(f)) != exact {
					mismatches++
				}
			}
		}
	}
	if mismatches == 0 {
		b.Log("float evaluation matched on this sweep; exactness still required in general")
	}
	b.ReportMetric(float64(mismatches), "float_mismatches")
}

// BenchmarkEngineVsNaiveStepping compares the event-calendar engine with a
// naive unit-tick stepper on the Figure-1 pair: same trajectory, very
// different cost profile as the time base grows.
func BenchmarkEngineVsNaiveStepping(b *testing.B) {
	g := figure1Graph(b)
	g.Buffers()[0].Capacity = 7
	const firings = 500

	b.Run("event-calendar", func(b *testing.B) {
		var fired, events int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg, _, err := sim.TaskGraphConfig(g, sim.Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}})
			if err != nil {
				b.Fatal(err)
			}
			cfg.Stop = sim.Stop{Actor: "wb", Firings: firings}
			res, err := sim.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Outcome != sim.Completed {
				b.Fatalf("outcome %v", res.Outcome)
			}
			fired = res.Finished["wb"]
			events += res.Events
		}
		if fired != firings {
			b.Fatalf("fired %d", fired)
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(events)/s, "events/sec")
		}
	})

	// The naive stepper's cost scales with the clock resolution (ticks
	// per response time); the event calendar's does not. Response times
	// in real graphs (e.g. 1/44100 s against 51.2 ms) force resolutions
	// in the hundreds of thousands, which is why the engine is
	// event-driven.
	for _, res := range []int64{1, 1000} {
		res := res
		b.Run(map[int64]string{1: "naive-stepper/res=1", 1000: "naive-stepper/res=1000"}[res], func(b *testing.B) {
			var fired int64
			for i := 0; i < b.N; i++ {
				fired = naivePairStepper(7, firings, res)
			}
			if fired != firings {
				b.Fatalf("fired %d", fired)
			}
		})
	}
}

// naivePairStepper is a deliberately simple tick-stepping reference
// simulation of the Figure-1 pair (producer quantum 3, consumer cycle
// 2,3): it advances time one tick at a time instead of event to event.
// rho is the response time of both tasks in ticks — the clock resolution.
func naivePairStepper(capacity, consumerFirings, rho int64) int64 {
	space, data := capacity, int64(0)
	var prodLeft, consLeft int64 // remaining busy ticks, 0 = idle
	var prodQ, consQ int64
	var consFired, consStarted int64
	consSeq := []int64{2, 3}
	for t := int64(0); consFired < consumerFirings; t++ {
		// Finishes first (production at finish).
		if prodLeft > 0 {
			prodLeft--
			if prodLeft == 0 {
				data += prodQ
			}
		}
		if consLeft > 0 {
			consLeft--
			if consLeft == 0 {
				space += consQ
				consFired++
			}
		}
		// Starts (consumption at start).
		if prodLeft == 0 && space >= 3 {
			space -= 3
			prodQ = 3
			prodLeft = rho
		}
		if consLeft == 0 {
			need := consSeq[consStarted%2]
			if data >= need {
				data -= need
				consQ = need
				consStarted++
				consLeft = rho
			}
		}
	}
	return consFired
}

// BenchmarkAnalyticMCR measures the classical exact throughput analysis on
// a multirate credit loop — the machinery whose HSDF blowup motivates
// run-time approaches for big graphs.
func BenchmarkAnalyticMCR(b *testing.B) {
	g := vrdf.New()
	if _, err := g.AddActor("u", Rat(1, 3)); err != nil {
		b.Fatal(err)
	}
	if _, err := g.AddActor("v", Rat(5, 7)); err != nil {
		b.Fatal(err)
	}
	if _, err := g.AddEdge(vrdf.Edge{Name: "data", Src: "u", Dst: "v",
		Prod: Quanta(2), Cons: Quanta(3)}); err != nil {
		b.Fatal(err)
	}
	if _, err := g.AddEdge(vrdf.Edge{Name: "space", Src: "v", Dst: "u",
		Prod: Quanta(3), Cons: Quanta(2), Initial: 7}); err != nil {
		b.Fatal(err)
	}
	var period ratio.Rat
	for i := 0; i < b.N; i++ {
		var err error
		period, err = sdf.AnalyticPeriod(g, "v")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(period.Float64(), "period")
}

// BenchmarkCHEAPPipeline measures the concurrent C-HEAP runtime on the
// Figure-1 pair with the Equation-4 capacity: end-to-end firings per
// second through real goroutine synchronisation.
func BenchmarkCHEAPPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stages := []cheap.Stage[int64]{
			{
				Name: "wa",
				Prod: quanta.Constant(3),
				Work: func(k int64, _ []int64) []int64 { return []int64{k, k, k} },
			},
			{
				Name: "wb",
				Cons: quanta.Cycle(2, 3),
				Work: func(int64, []int64) []int64 { return nil },
			},
		}
		p, err := cheap.NewPipeline(stages, []int64{7})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Run(2000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactAdversarialMinimum computes the true minimum deadlock-free
// capacity of the Figure-1 pair over ALL quanta sequences by state-space
// search (with witness extraction), pinning the gap to Equation (4)'s
// untimed floor π̂+γ̂−1.
func BenchmarkExactAdversarialMinimum(b *testing.B) {
	prod := Quanta(3)
	cons := Quanta(2, 3)
	var min int64
	for i := 0; i < b.N; i++ {
		var err error
		min, err = exact.MinCapacity(prod, cons)
		if err != nil {
			b.Fatal(err)
		}
	}
	if min != 5 {
		b.Fatalf("exact minimum = %d, want 5", min)
	}
	b.ReportMetric(float64(min), "cap_exact")
	b.ReportMetric(float64(prod.Max()+cons.Max()-1), "cap_eq4_untimed")
}
