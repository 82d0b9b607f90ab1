package minimize

import (
	"errors"
	"maps"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

func r(n, d int64) ratio.Rat { return ratio.MustNew(n, d) }

func figure1Graph(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

const buf = "wa->wb"

func TestFigure1MinimalCapacities(t *testing.T) {
	// The paper's §1 numbers: the minimum buffer capacity for
	// deadlock-free execution is 3 when the consumption quantum is
	// always 3, but 4 when it is always 2 — "maximising the consumption
	// quantum does not lead to buffer capacities that are sufficient for
	// other consumption quanta."
	g := figure1Graph(t)
	cases := []struct {
		name string
		seq  quanta.Sequence
		want int64
	}{
		{"n=3 every execution", quanta.Constant(3), 3},
		{"n=2 every execution", quanta.Constant(2), 4},
		// Mixing is harder still: the alternating sequence needs 5.
		{"n alternating 2,3", quanta.Cycle(2, 3), 5},
	}
	for _, c := range cases {
		check := DeadlockFreeCheck(g, "wb", 200, []sim.Workloads{
			{buf: {Cons: c.seq}},
		})
		res, err := Search([]string{buf}, map[string]int64{buf: 20}, check)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := res.Caps[buf]; got != c.want {
			t.Errorf("%s: minimal capacity = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestThroughputMinimumAtMostEquation4(t *testing.T) {
	// Equation (4) gives 7 for this pair at τ = 3; the empirical
	// throughput-preserving minimum cannot exceed it.
	g := figure1Graph(t)
	c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
	workloads := []sim.Workloads{
		{buf: {Cons: quanta.Constant(2)}},
		{buf: {Cons: quanta.Constant(3)}},
		{buf: {Cons: quanta.Cycle(2, 3)}},
		{buf: {Cons: quanta.Uniform(taskgraph.MustQuanta(2, 3), 5)}},
	}
	check := ThroughputCheck(g, c, 300, workloads)
	res, err := Search([]string{buf}, map[string]int64{buf: 7}, check)
	if err != nil {
		t.Fatal(err)
	}
	if res.Caps[buf] > 7 {
		t.Errorf("empirical minimum %d exceeds Equation (4)'s 7", res.Caps[buf])
	}
	if res.Caps[buf] < 5 {
		t.Errorf("empirical minimum %d below the deadlock-free floor 5", res.Caps[buf])
	}
}

func TestSearchChainCoordinateDescent(t *testing.T) {
	// Three-stage constant-rate chain: every buffer shrinks to its local
	// minimum independently.
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{
			{Name: "a", WCRT: r(1, 1)}, {Name: "b", WCRT: r(1, 1)}, {Name: "c", WCRT: r(1, 1)},
		},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(2), Cons: taskgraph.MustQuanta(2)},
			{Prod: taskgraph.MustQuanta(3), Cons: taskgraph.MustQuanta(3)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a->b", "b->c"}
	check := DeadlockFreeCheck(g, "c", 100, []sim.Workloads{{}})
	res, err := Search(names, map[string]int64{"a->b": 50, "b->c": 50}, check)
	if err != nil {
		t.Fatal(err)
	}
	// Constant-rate pair with p == c: a single quantum of slack
	// suffices for progress (no overlap), so the minimum is p.
	if res.Caps["a->b"] != 2 {
		t.Errorf("a->b minimal capacity = %d, want 2", res.Caps["a->b"])
	}
	if res.Caps["b->c"] != 3 {
		t.Errorf("b->c minimal capacity = %d, want 3", res.Caps["b->c"])
	}
	if res.Total() != 5 {
		t.Errorf("Total = %d, want 5", res.Total())
	}
	if res.Passes < 1 || res.Checks < 2 {
		t.Errorf("suspicious search stats: %+v", res)
	}
}

func TestSearchRejectsInfeasibleUpper(t *testing.T) {
	g := figure1Graph(t)
	check := DeadlockFreeCheck(g, "wb", 100, []sim.Workloads{
		{buf: {Cons: quanta.Constant(2)}},
	})
	if _, err := Search([]string{buf}, map[string]int64{buf: 3}, check); err == nil {
		t.Error("infeasible upper bound accepted")
	}
}

func TestSearchInputValidation(t *testing.T) {
	if _, err := Search(nil, nil, nil); err == nil {
		t.Error("empty buffer list accepted")
	}
	if _, err := Search([]string{"x"}, map[string]int64{}, nil); err == nil {
		t.Error("missing upper bound accepted")
	}
	if _, err := Search([]string{"x"}, map[string]int64{"x": 0}, nil); err == nil {
		t.Error("zero upper bound accepted")
	}
	if _, err := Search([]string{"x", "y", "x"}, map[string]int64{"x": 1, "y": 1}, nil); err == nil || !strings.Contains(err.Error(), "listed twice") {
		t.Errorf("duplicate buffer accepted: %v", err)
	}
}

// TestFeasibleOutcomeSet pins the accepted/rejected outcome mapping:
// Completed and Deadlocked are evidence about capacities; every other
// outcome — including ones this package has never heard of — is an error,
// never a silent "infeasible".
func TestFeasibleOutcomeSet(t *testing.T) {
	cases := []struct {
		outcome sim.Outcome
		ok      bool
		err     bool
	}{
		{sim.Completed, true, false},
		{sim.Deadlocked, false, false},
		{sim.Underrun, false, true},
		{sim.LimitExceeded, false, true},
		{sim.Outcome(99), false, true},
	}
	for _, c := range cases {
		ok, err := feasibleOutcome(&sim.Result{Outcome: c.outcome})
		if ok != c.ok || (err != nil) != c.err {
			t.Errorf("feasibleOutcome(%v) = (%v, %v), want ok=%v err=%v", c.outcome, ok, err, c.ok, c.err)
		}
	}
}

// TestMaxEventsIsErrorNotInfeasible is the regression test for the outcome
// conflation bug: a simulation cut short by the runaway guard used to be
// reported as "infeasible", which silently inflated the minimal capacities
// the search returned. It must surface as an error instead.
func TestMaxEventsIsErrorNotInfeasible(t *testing.T) {
	g := figure1Graph(t)
	check := DeadlockFreeCheck(g, "wb", 200, []sim.Workloads{
		{buf: {Cons: quanta.Constant(3)}},
	}, Options{MaxEvents: 5})
	ok, err := check(map[string]int64{buf: 20})
	if err == nil {
		t.Fatalf("truncated simulation reported (%v, nil); want an error", ok)
	}
	if !strings.Contains(err.Error(), "says nothing about capacity feasibility") {
		t.Errorf("unexpected error text: %v", err)
	}
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Errorf("truncated simulation error %v does not satisfy budget.ErrBudgetExceeded", err)
	}
	if _, serr := Search([]string{buf}, map[string]int64{buf: 20}, check); serr == nil {
		t.Error("Search swallowed the truncated-simulation error")
	}
}

// TestThroughputMaxEventsIsErrorNotInfeasible is the ThroughputCheck twin
// of TestMaxEventsIsErrorNotInfeasible. On the §5 MP3 chain at 200 firings
// under a 300-event cap, α̂ decides the first probe and every simulated
// probe after it is cut short. Those probes used to read as "infeasible",
// so the search returned the Equation-4 sizing as its minimum with a nil
// error; the cap must surface as an exhausted budget instead.
func TestThroughputMaxEventsIsErrorNotInfeasible(t *testing.T) {
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	c := mp3.Constraint()
	res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	sufficient, necessary, err := capacity.SearchBounds(res, g)
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	upper := make(map[string]int64, len(names))
	for _, n := range names {
		upper[n] = res.BufferByName(n).Capacity
	}
	w := []sim.Workloads{{names[0]: {Cons: quanta.Uniform(mp3.FrameSizes(), 2008)}}}
	opts := Options{MaxEvents: 300, Bounds: &Bounds{Sufficient: sufficient, Necessary: necessary}}
	check := ThroughputCheck(g, c, 200, w, opts)
	if ok, err := check(upper); !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("capped probe = (%v, %v); want an error satisfying budget.ErrBudgetExceeded", ok, err)
	}
	mres, err := Search(names[:], upper, check, opts)
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("Search = (%+v, %v); want an error satisfying budget.ErrBudgetExceeded", mres, err)
	}
}

// TestSearchSerialParallelEquivalence pins that the capacities found are
// pointwise minimal — each buffer one token smaller, with the others held,
// is infeasible — on the paper's Figure 1 pair and on seeded random chains.
// CI runs this package under -cpu 1,2, so every case is checked at one and
// at two cores.
func TestSearchSerialParallelEquivalence(t *testing.T) {
	run := func(t *testing.T, g *taskgraph.Graph, task string, buffers []string, upper map[string]int64, workloads []sim.Workloads) {
		t.Helper()
		check := DeadlockFreeCheck(g, task, 60, workloads)
		res, err := Search(buffers, upper, check)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range buffers {
			if res.Caps[b] == 1 {
				continue
			}
			caps := maps.Clone(res.Caps)
			caps[b]--
			if ok, err := check(caps); err != nil || ok {
				t.Errorf("%s shrinks from %d to %d: (%v, %v)", b, res.Caps[b], caps[b], ok, err)
			}
		}
	}

	t.Run("figure1", func(t *testing.T) {
		g := figure1Graph(t)
		run(t, g, "wb", []string{buf}, map[string]int64{buf: 20}, []sim.Workloads{
			{buf: {Cons: quanta.Constant(2)}},
			{buf: {Cons: quanta.Cycle(2, 3)}},
		})
	})
	for seed := int64(0); seed < 4; seed++ {
		cfg := graphgen.Defaults(seed + 300)
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bufs := g.Buffers()
		buffers := make([]string, 0, len(bufs))
		upper := make(map[string]int64, len(bufs))
		for _, b := range bufs {
			buffers = append(buffers, b.Name)
			upper[b.Name] = 40
		}
		t.Run("chain", func(t *testing.T) {
			run(t, g, c.Task, buffers, upper, []sim.Workloads{
				sim.UniformWorkloads(g, seed),
				sim.AdversarialWorkloads(g, sim.AdversaryMin),
				sim.AdversarialWorkloads(g, sim.AdversaryAlternate),
			})
		})
	}
}

// TestSearchCacheSubsumesConfirmationProbes pins the feasibility cache's
// effect on a three-buffer chain: the confirmation passes of the coordinate
// descent re-probe assignments whose verdicts monotonicity already
// determines (each probe at or below a known-infeasible vector, or at or
// above a known-feasible one), so the cached search must simulate strictly
// fewer probes while finding identical capacities. In serial the probe
// sequence is identical with and without the cache, so simulated plus
// cache-answered probes add up exactly to the uncached check count.
func TestSearchCacheSubsumesConfirmationProbes(t *testing.T) {
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{
			{Name: "a", WCRT: r(1, 1)}, {Name: "b", WCRT: r(1, 1)},
			{Name: "c", WCRT: r(1, 1)}, {Name: "d", WCRT: r(1, 1)},
		},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(2), Cons: taskgraph.MustQuanta(2)},
			{Prod: taskgraph.MustQuanta(3), Cons: taskgraph.MustQuanta(3)},
			{Prod: taskgraph.MustQuanta(4), Cons: taskgraph.MustQuanta(4)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a->b", "b->c", "c->d"}
	upper := map[string]int64{"a->b": 50, "b->c": 50, "c->d": 50}
	serial := Options{}
	cached, err := Search(names, upper,
		DeadlockFreeCheck(g, "d", 100, []sim.Workloads{{}}, serial), serial)
	if err != nil {
		t.Fatal(err)
	}
	plainOpts := Options{NoCache: true}
	plain, err := Search(names, upper,
		DeadlockFreeCheck(g, "d", 100, []sim.Workloads{{}}, plainOpts), plainOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached.Caps, plain.Caps) {
		t.Fatalf("cache changed the result: cached %v, uncached %v", cached.Caps, plain.Caps)
	}
	if cached.Passes != plain.Passes {
		t.Errorf("cache changed the pass count: %d vs %d", cached.Passes, plain.Passes)
	}
	if plain.CacheHits != 0 {
		t.Errorf("NoCache search reported %d cache hits", plain.CacheHits)
	}
	if cached.CacheHits == 0 {
		t.Error("cached search answered no probe from the cache")
	}
	if cached.Checks >= plain.Checks {
		t.Errorf("cache did not reduce simulated probes: %d cached vs %d uncached", cached.Checks, plain.Checks)
	}
	if got, want := cached.Checks+cached.CacheHits, plain.Checks; got != want {
		t.Errorf("serial probe sequence changed: %d simulated + %d cached = %d, want %d",
			cached.Checks, cached.CacheHits, got, want)
	}
}

// TestSearchCacheParityOnRandomChains pins the acceptance contract that the
// feasibility cache never changes the capacities the search finds — on
// seeded random chains.
func TestSearchCacheParityOnRandomChains(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		cfg := graphgen.Defaults(seed + 300)
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bufs := g.Buffers()
		buffers := make([]string, 0, len(bufs))
		upper := make(map[string]int64, len(bufs))
		for _, b := range bufs {
			buffers = append(buffers, b.Name)
			upper[b.Name] = 40
		}
		workloads := []sim.Workloads{
			sim.UniformWorkloads(g, seed),
			sim.AdversarialWorkloads(g, sim.AdversaryMin),
		}
		cached, err := Search(buffers, upper, DeadlockFreeCheck(g, c.Task, 60, workloads))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opts := Options{NoCache: true}
		plain, err := Search(buffers, upper, DeadlockFreeCheck(g, c.Task, 60, workloads, opts), opts)
		if err != nil {
			t.Fatalf("seed %d (no cache): %v", seed, err)
		}
		if !reflect.DeepEqual(cached.Caps, plain.Caps) {
			t.Fatalf("seed %d: cache changed the result\ncached:   %v\nuncached: %v",
				seed, cached.Caps, plain.Caps)
		}
		if cached.Passes != plain.Passes {
			t.Errorf("seed %d: pass count %d vs %d", seed, cached.Passes, plain.Passes)
		}
	}
}

func TestDeadlockCheckUnknownBuffer(t *testing.T) {
	g := figure1Graph(t)
	check := DeadlockFreeCheck(g, "wb", 10, []sim.Workloads{
		{buf: {Cons: quanta.Constant(3)}},
	})
	if _, err := check(map[string]int64{"nope": 3}); err == nil {
		t.Error("unknown buffer accepted")
	}
}

// bytesPerCall calls f n times and returns the least and the most heap
// bytes one call allocated.
func bytesPerCall(n int, f func()) (least, most uint64) {
	var ms runtime.MemStats
	for i := range n {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		b := ms.TotalAlloc - before
		if i == 0 || b < least {
			least = b
		}
		most = max(most, b)
	}
	return least, most
}

// warmSearchAllocs is what a search answered entirely by its bounds and a
// warm frontier allocates: the working vector, the result's name-keyed
// map, the compiled bounds' vectors, the Result and Search's check
// adapter — a per-search constant, never one allocation per probe.
const warmSearchAllocs = 5

// TestSearchWarmFrontierAllocs pins the allocation cost of a fully warm
// search: no probe simulates, and a probe answered by the bounds or the
// frontier allocates nothing, so the §5 MP3 search (65 probes) allocates
// as much as the Figure 1 pair's. It also pins the bytes: every warm
// search allocates the same bytes, so none grow with the number of
// searches. A frontier that kept something per lookup would allocate
// nothing on most searches and a doubling on a few, which AllocsPerRun
// rounds away. Bytes come from TotalAlloc at GOMAXPROCS 1.
func TestSearchWarmFrontierAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mp3Graph, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		g       *taskgraph.Graph
		c       taskgraph.Constraint
		firings int64
	}{
		{"figure1", figure1Graph(t), taskgraph.Constraint{Task: "wb", Period: r(3, 1)}, 300},
		{"mp3", mp3Graph, mp3.Constraint(), 441},
	}
	counts := make([]float64, len(cases))
	for i, tc := range cases {
		sized, res := sizedProblem(t, tc.g, tc.c)
		sufficient, necessary, err := capacity.SearchBounds(res, tc.g)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		upper := map[string]int64{}
		for _, b := range sized.Buffers() {
			names = append(names, b.DefaultName())
			upper[b.DefaultName()] = b.Capacity
		}
		opts := Options{
			Cache:  probecache.NewFrontier(names),
			Bounds: &Bounds{Sufficient: sufficient, Necessary: necessary},
		}
		cold, err := Search(names, upper, ThroughputCheck(tc.g, tc.c, tc.firings, []sim.Workloads{sim.UniformWorkloads(sized, 1)}), opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		simulate := func(map[string]int64) (bool, error) {
			t.Errorf("%s: warm search simulated a probe", tc.name)
			return false, nil
		}
		var warm *Result
		counts[i] = testing.AllocsPerRun(20, func() {
			if warm, err = Search(names, upper, simulate, opts); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if !reflect.DeepEqual(warm.Caps, cold.Caps) || warm.CacheHits+warm.BoundHits != cold.Checks+cold.CacheHits+cold.BoundHits {
			t.Errorf("%s: warm search %+v does not replay cold search %+v", tc.name, warm, cold)
		}
		least, most := bytesPerCall(64, func() {
			if _, err := Search(names, upper, simulate, opts); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		t.Logf("%s: %d probes, %v allocs and %d-%d B per search", tc.name, warm.CacheHits+warm.BoundHits, counts[i], least, most)
		if counts[i] > warmSearchAllocs {
			t.Errorf("%s: warm search allocates %v times, want at most %d", tc.name, counts[i], warmSearchAllocs)
		}
		if most != least {
			t.Errorf("%s: warm searches allocate from %d to %d B; want the same bytes on every search", tc.name, least, most)
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("warm search allocations grow with the probe count: figure1 %v, mp3 %v", counts[0], counts[1])
	}
}

// coldMP3SearchAllocs is what one cold §5 MP3 search allocates, as
// BenchmarkSection5MP3Minimize records it in BENCH_sim.json: compiling
// its one verifier, the checkpoint arena, the frontier and the search's
// own vectors. No simulated probe allocates.
const coldMP3SearchAllocs = 63

// TestSearchColdMP3Allocs pins the allocation count of the cold §5 MP3
// search at 2205 DAC firings, with 8 checkpoints and bound pruning, as
// BenchmarkSection5MP3Minimize runs it: a fresh check and frontier per
// search, 27 probes simulated. One allocation per simulated probe, or per
// warm restore, would add tens, far past the benchmark gate's 10%.
func TestSearchColdMP3Allocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	c := mp3.Constraint()
	sized, res := sizedProblem(t, g, c)
	sufficient, necessary, err := capacity.SearchBounds(res, g)
	if err != nil {
		t.Fatal(err)
	}
	bounds := &Bounds{Sufficient: sufficient, Necessary: necessary}
	names := mp3.BufferNames()
	upper := map[string]int64{}
	for _, n := range names {
		upper[n] = sized.BufferByName(n).Capacity
	}
	w := []sim.Workloads{{names[0]: {Cons: quanta.Uniform(mp3.FrameSizes(), 2008)}}}
	var found *Result
	allocs := testing.AllocsPerRun(20, func() {
		opts := Options{Checkpoints: 8, Bounds: bounds, Stats: &ProbeStats{}}
		if found, err = Search(names[:], upper, ThroughputCheck(g, c, 2205, w, opts), opts); err != nil {
			t.Fatal(err)
		}
	})
	if found.Total() != 5426 || found.Checks != 27 || found.CacheHits != 20 || found.BoundHits != 18 {
		t.Fatalf("search found total %d with %d/%d/%d probes simulated/cached/bound; want 5426 with 27/20/18",
			found.Total(), found.Checks, found.CacheHits, found.BoundHits)
	}
	t.Logf("cold §5 MP3 search: %v allocs", allocs)
	if allocs > coldMP3SearchAllocs {
		t.Errorf("cold §5 MP3 search allocates %v times; want at most %d", allocs, coldMP3SearchAllocs)
	}
}
