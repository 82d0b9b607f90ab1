package sdf

import (
	"strings"
	"testing"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// exactMinimum returns the smallest capacity δ ≤ upper whose isolated
// credit loop lets the consumer v fire at least once per period, or 0 when
// none does. Only a deadlock counts as missing the period; any other error
// fails the test.
func exactMinimum(t *testing.T, rhoU, rhoV ratio.Rat, p, c, upper int64, period ratio.Rat) int64 {
	t.Helper()
	for d := int64(1); d <= upper; d++ {
		got, err := AnalyticPeriod(credit(t, rhoU, rhoV, p, c, d), "v")
		if err != nil {
			if strings.Contains(err.Error(), "deadlock") {
				continue
			}
			t.Fatalf("δ=%d: %v", d, err)
		}
		if !period.Less(got) {
			return d
		}
	}
	return 0
}

// rung holds one constant-rate pair's capacities under the three policies
// and its exact minimum.
type rung struct {
	eq4, baseline, hybrid, exact int64
}

func rungOf(t *testing.T, g *taskgraph.Graph, con taskgraph.Constraint) rung {
	t.Helper()
	var r rung
	for policy, dst := range map[capacity.Policy]*int64{
		capacity.PolicyEquation4: &r.eq4, capacity.PolicyBaseline: &r.baseline, capacity.PolicyHybrid: &r.hybrid,
	} {
		res, err := capacity.Compute(g, con, policy)
		if err != nil || !res.Valid {
			t.Fatalf("%v: err %v, valid %v", policy, err, res != nil && res.Valid)
		}
		*dst = res.Buffers[0].Capacity
	}
	tasks, b := g.Tasks(), g.Buffers()[0]
	r.exact = exactMinimum(t, tasks[0].WCRT, tasks[1].WCRT, b.Prod.Max(), b.Cons.Max(), r.eq4, con.Period)
	if r.exact == 0 {
		t.Fatalf("Equation (4)'s %d misses the period", r.eq4)
	}
	return r
}

// TestExactRungOnConstantRateChains is the exact rung of the oracle ladder
// as a property over random constant-rate producer-consumer chains. Each
// chain's buffer, modelled as an isolated credit loop like the MP3 edges of
// TestExactMinimaOfConstantMP3Edges, has an exact minimum capacity. With
// every response time at its φ — the paper's setting, where the MP3 ρs are
// derived from the constraint — the constant-rate baseline [10,14]
// computes exactly that minimum. As drawn, with slack below φ, the
// baseline is still sufficient but not always exact
// (TestBaselineOverProvisionsWithSlack pins a counterexample). The hybrid
// policy never exceeds Equation (4).
func TestExactRungOnConstantRateChains(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		g, con, err := graphgen.Random(graphgen.Config{
			Seed: seed, MinTasks: 2, MaxTasks: 2, MaxQuantum: 8, MaxSetSize: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		drawn := rungOf(t, g, con)
		if drawn.exact > drawn.baseline || drawn.hybrid > drawn.eq4 {
			t.Errorf("seed %d as drawn: %+v, want exact ≤ baseline and hybrid ≤ eq4", seed, drawn)
		}
		res, err := capacity.Compute(g, con, capacity.PolicyEquation4)
		if err != nil {
			t.Fatal(err)
		}
		for _, ck := range res.Checks {
			g.Task(ck.Task).WCRT = ck.Phi
		}
		tight := rungOf(t, g, con)
		if tight.baseline != tight.exact || tight.hybrid > tight.eq4 {
			t.Errorf("seed %d with ρ = φ: %+v, want baseline = exact and hybrid ≤ eq4", seed, tight)
		}
	}
}

// TestBaselineOverProvisionsWithSlack pins a counterexample to the
// baseline's exactness when a response time is below its φ: a producer
// writing 4 tokens per firing in 1 time unit (φ = 4)
// feeding a consumer taking 1 per period τ = 1 in 1/8 needs 4 containers;
// the baseline and Equation (4) both provision 5.
func TestBaselineOverProvisionsWithSlack(t *testing.T) {
	g, err := taskgraph.Pair("u", r(1, 1), "v", r(1, 8), taskgraph.MustQuanta(4), taskgraph.MustQuanta(1))
	if err != nil {
		t.Fatal(err)
	}
	got := rungOf(t, g, taskgraph.Constraint{Task: "v", Period: r(1, 1)})
	if want := (rung{eq4: 5, baseline: 5, hybrid: 5, exact: 4}); got != want {
		t.Errorf("rung %+v, want %+v", got, want)
	}
}
