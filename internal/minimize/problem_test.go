package minimize

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

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
		got, err := p.Search(context.Background(), time.Time{})
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
		out, err := p.Search(context.Background(), time.Time{})
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
