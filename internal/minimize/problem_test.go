package minimize

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"vrdfcap/internal/budget"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// sizedProblem sizes g under c with Equation 4.
func sizedProblem(t *testing.T, g *taskgraph.Graph, c taskgraph.Constraint) (*taskgraph.Graph, *capacity.Result) {
	t.Helper()
	res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	sized, err := capacity.Sized(g, res)
	if err != nil {
		t.Fatal(err)
	}
	return sized, res
}

// TestProblemMatchesColdSearch pins that the bounds, the frontier and the
// warm-started checks a Problem wires in change only the probe
// accounting: its minimum equals a plain search with cold checks and no
// cache, and a nil store caches nothing.
func TestProblemMatchesColdSearch(t *testing.T) {
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
	for _, tc := range cases {
		sized, res := sizedProblem(t, tc.g, tc.c)
		wl := sim.UniformWorkloads(sized, 1)
		p, err := NewProblem(tc.g, sized, res, tc.c, tc.firings, wl, "uniform:seed=1", nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := p.Search(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cold := ThroughputCheck(tc.g, tc.c, tc.firings, []sim.Workloads{wl})
		want, err := Search(p.Buffers, p.Upper, cold, Options{NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got.Caps, want.Caps) {
			t.Errorf("%s: problem found %v, cold search %v", tc.name, got.Caps, want.Caps)
		}
		if got.CacheHits != 0 {
			t.Errorf("%s: nil store answered %d probes from a cache", tc.name, got.CacheHits)
		}
		if got.BoundHits == 0 {
			t.Errorf("%s: no probe was decided by the analytic bounds", tc.name)
		}
	}
}

// TestProblemSharesStoreByFingerprint pins the store wiring: a second
// Problem for the same inputs reads the first one's verdicts and
// simulates nothing, while a different horizon is a different problem.
func TestProblemSharesStoreByFingerprint(t *testing.T) {
	g := figure1Graph(t)
	c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
	sized, res := sizedProblem(t, g, c)
	store := probecache.NewStore("")
	search := func(firings int64) (*Problem, *Result) {
		t.Helper()
		p, err := NewProblem(g, sized, res, c, firings, sim.UniformWorkloads(sized, 1), "uniform:seed=1", store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return p, out
	}
	p1, cold := search(300)
	p2, warm := search(300)
	if p1.Fingerprint != p2.Fingerprint {
		t.Fatalf("same inputs, fingerprints %s and %s", p1.Fingerprint, p2.Fingerprint)
	}
	if cold.Checks == 0 || warm.Checks != 0 {
		t.Errorf("cold run simulated %d probes, warm run %d; want >0 and 0", cold.Checks, warm.Checks)
	}
	if !reflect.DeepEqual(cold.Caps, warm.Caps) {
		t.Errorf("warm store changed the minimum: cold %v, warm %v", cold.Caps, warm.Caps)
	}
	if p3, _ := search(200); p3.Fingerprint == p1.Fingerprint {
		t.Error("a different horizon shares the fingerprint")
	}
}

// TestNewProblemChainOrder pins that a Problem's buffers are in chain
// order whatever order the graph was built in: the MP3 chain built in
// reverse has the same fingerprint, so it must be able to share the
// frontier the forward build left in the store, and find the same minimum
// from it without simulating.
func TestNewProblemChainOrder(t *testing.T) {
	forward, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	reversed := taskgraph.New()
	for i := len(forward.Tasks()) - 1; i >= 0; i-- {
		w := forward.Tasks()[i]
		if _, err := reversed.AddTask(w.Name, w.WCRT); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(forward.Buffers()) - 1; i >= 0; i-- {
		if _, err := reversed.AddBuffer(*forward.Buffers()[i]); err != nil {
			t.Fatal(err)
		}
	}
	c := mp3.Constraint()
	store := probecache.NewStore("")
	var problems []*Problem
	var results []*Result
	for _, g := range []*taskgraph.Graph{forward, reversed} {
		sized, res := sizedProblem(t, g, c)
		p, err := NewProblem(g, sized, res, c, 441, sim.UniformWorkloads(sized, 1), "uniform:seed=1", store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Search(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		problems, results = append(problems, p), append(results, out)
	}
	names := mp3.BufferNames()
	for i, p := range problems {
		if !reflect.DeepEqual(p.Buffers, names[:]) {
			t.Errorf("build %d: Problem.Buffers = %v, want chain order %v", i, p.Buffers, names)
		}
	}
	if problems[0].Fingerprint != problems[1].Fingerprint {
		t.Errorf("build order changed the fingerprint: %s and %s", problems[0].Fingerprint, problems[1].Fingerprint)
	}
	if results[1].Checks != 0 || !reflect.DeepEqual(results[0].Caps, results[1].Caps) {
		t.Errorf("reversed build simulated %d probes and found %v; want 0 and %v", results[1].Checks, results[1].Caps, results[0].Caps)
	}
}

func TestNewProblemRejectsNonPositiveHorizon(t *testing.T) {
	g := figure1Graph(t)
	c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
	sized, res := sizedProblem(t, g, c)
	wl := sim.UniformWorkloads(sized, 1)
	for _, firings := range []int64{0, -5} {
		if _, err := NewProblem(g, sized, res, c, firings, wl, "uniform:seed=1", nil, Options{}); err == nil ||
			!strings.Contains(err.Error(), "horizon must be positive") {
			t.Errorf("firings=%d: err = %v, want a non-positive horizon error", firings, err)
		}
	}
}

// trippingCtx is a context whose Err reports an expired deadline from its
// n-th call on, so a search can be stopped deterministically at a chosen
// budget check.
type trippingCtx struct {
	context.Context
	calls, n int64
}

func (c *trippingCtx) Err() error {
	if atomic.AddInt64(&c.calls, 1) >= c.n {
		return context.DeadlineExceeded
	}
	return nil
}

// TestProblemSearchContextReachesRunningProbe pins that the context a
// Problem is searched with is the one its running simulation checks: the
// budget check that trips is the engine's, mid-run, not the search's check
// between probes. The problem stays usable, and a later search under a
// live context finds the same minimum as a fresh problem.
func TestProblemSearchContextReachesRunningProbe(t *testing.T) {
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	c := mp3.Constraint()
	sized, res := sizedProblem(t, g, c)
	wl := sim.UniformWorkloads(sized, 1)
	newProblem := func() *Problem {
		t.Helper()
		p, err := NewProblem(g, sized, res, c, 4410, wl, "uniform:seed=1", probecache.NewStore(""), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := newProblem()
	// Checks 1-3 are the search's two probe checks (the upper bound is
	// bound-decided) and the check's own; 4 and 5 are the engine's at
	// events 0 and 4096 of the first simulated probe.
	_, err = p.Search(&trippingCtx{Context: context.Background(), n: 5})
	if !errors.Is(err, budget.ErrBudgetExceeded) || !strings.Contains(err.Error(), "sim: run aborted after 4096 events") ||
		!strings.HasSuffix(err.Error(), "wall-clock budget exceeded: context deadline exceeded") {
		t.Fatalf("err = %v; want the running probe aborted at its 4096-event budget check with budget.ErrBudgetExceeded", err)
	}
	got, err := p.Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := newProblem().Search(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Caps, want.Caps) {
		t.Errorf("search after an aborted one found %v, a fresh problem %v", got.Caps, want.Caps)
	}
}
