package faults

import (
	"context"
	"errors"
	"strings"
	"testing"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

func r(n, d int64) ratio.Rat { return ratio.MustNew(n, d) }

// figure1 builds the paper's motivating pair (m = {3}, n = {2, 3},
// ρ = 1/1) sized at the Equation 4 capacity for period τ.
func figure1(t *testing.T, period ratio.Rat, policy capacity.Policy) (*taskgraph.Graph, taskgraph.Constraint) {
	t.Helper()
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	c := taskgraph.Constraint{Task: "wb", Period: period}
	res, err := capacity.Compute(g, c, policy)
	if err != nil {
		t.Fatal(err)
	}
	sized, err := capacity.Sized(g, res)
	if err != nil {
		t.Fatal(err)
	}
	return sized, c
}

func TestSpecValidation(t *testing.T) {
	g, _ := figure1(t, r(3, 1), capacity.PolicyEquation4)
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"jitter one", Spec{Jitter: r(1, 1)}, "outside [0, 1)"},
		{"jitter above one", Spec{Jitter: r(3, 2)}, "outside [0, 1)"},
		{"jitter negative", Spec{Jitter: r(-1, 2)}, "outside [0, 1)"},
		{"overrun below one", Spec{Overrun: r(1, 2)}, "below 1"},
		{"negative resolution", Spec{Jitter: r(1, 2), Resolution: -1}, "resolution"},
		{"negative cadence", Spec{Overrun: r(2, 1), OverrunEvery: -3}, "cadence"},
		{"unknown task", Spec{Jitter: r(1, 2), Tasks: []string{"nope"}}, "unknown task"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(g, tc.spec)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%+v) err = %v, want %q", tc.spec, err, tc.want)
			}
		})
	}
}

func TestInjectorDeterministic(t *testing.T) {
	g, _ := figure1(t, r(3, 1), capacity.PolicyEquation4)
	spec := Spec{Jitter: r(1, 2), Overrun: r(2, 1), OverrunEvery: 5, Seed: 42}
	a, err := New(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range []string{"wa", "wb"} {
		for k := int64(0); k < 200; k++ {
			if va, vb := a.exec[task](k), b.exec[task](k); !va.Equal(vb) {
				t.Fatalf("exec[%s](%d) differs between equal specs: %v vs %v", task, k, va, vb)
			}
		}
	}
	other, err := New(g, Spec{Jitter: r(1, 2), Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for k := int64(0); k < 200 && same; k++ {
		same = a.exec["wa"](k).Equal(other.exec["wa"](k))
	}
	if same {
		t.Error("seeds 42 and 43 produced identical jitter streams")
	}
}

// TestJitterWithinBounds pins admissibility: jitter-only exec values stay
// in (0, ρ] for every firing and task.
func TestJitterWithinBounds(t *testing.T) {
	g, _ := figure1(t, r(3, 1), capacity.PolicyEquation4)
	for _, jitter := range []ratio.Rat{r(1, 10), r(1, 2), r(9, 10), r(99, 100)} {
		inj, err := New(g, Spec{Jitter: jitter, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if inj.Overruns() {
			t.Fatalf("jitter-only injector reports overruns")
		}
		rho := r(1, 1)
		for k := int64(0); k < 500; k++ {
			et := inj.exec["wb"](k)
			if et.Sign() <= 0 || rho.Less(et) {
				t.Fatalf("jitter %v firing %d: exec %v outside (0, %v]", jitter, k, et, rho)
			}
		}
	}
}

func TestApplySetsOptions(t *testing.T) {
	g, _ := figure1(t, r(3, 1), capacity.PolicyEquation4)
	inj, err := New(g, Spec{Jitter: r(1, 4), Overrun: r(3, 2), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var opts sim.VerifyOptions
	inj.Apply(&opts)
	if !opts.AllowOverrun {
		t.Error("Apply did not enable AllowOverrun for an overrunning spec")
	}
	if len(opts.Exec) != 2 {
		t.Errorf("Apply set %d Exec models, want 2", len(opts.Exec))
	}
	if len(opts.ExtraTimes) == 0 {
		t.Error("Apply listed no extra times; injected values may be unrepresentable")
	}

	// A no-fault spec must leave the options untouched.
	noop, err := New(g, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	var clean sim.VerifyOptions
	noop.Apply(&clean)
	if clean.AllowOverrun || clean.Exec != nil || clean.ExtraTimes != nil {
		t.Errorf("no-fault Apply mutated options: %+v", clean)
	}
}

// TestJitterAdmissibleAlwaysVerifies is the robustness guarantee as a
// table test: at Equation 4 capacities, any admissible jitter combined
// with any adversarial or random workload must pass verification. The fuzz
// target FuzzJitterAdmissible explores the same property with generated
// inputs.
func TestJitterAdmissibleAlwaysVerifies(t *testing.T) {
	g, c := figure1(t, r(3, 1), capacity.PolicyEquation4)
	workloads := map[string]sim.Workloads{
		"min":    sim.AdversarialWorkloads(g, sim.AdversaryMin),
		"max":    sim.AdversarialWorkloads(g, sim.AdversaryMax),
		"alt":    sim.AdversarialWorkloads(g, sim.AdversaryAlternate),
		"bursty": BurstyWorkloads(g, 8, 3),
		"random": sim.UniformWorkloads(g, 99),
	}
	for wname, w := range workloads {
		for _, jitter := range []ratio.Rat{{}, r(1, 4), r(1, 2), r(7, 8)} {
			inj, err := New(g, Spec{Jitter: jitter, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			opts := sim.VerifyOptions{Firings: 300, Workloads: w, Validate: true}
			inj.Apply(&opts)
			v, err := sim.VerifyThroughput(g, c, opts)
			if err != nil {
				t.Fatalf("workload %s jitter %v: %v", wname, jitter, err)
			}
			if !v.OK {
				t.Errorf("workload %s jitter %v: verification failed at Eq4 capacities: %s", wname, jitter, v.Reason)
			}
		}
	}
}

// TestOverrunOnConstrainedTaskFailsDiagnosably pins the other half of the
// robustness contract: an overrun that stretches the constrained task
// beyond its period cannot be absorbed by any sizing, and the failure is
// reported with a structured underrun, not an opaque error.
func TestOverrunOnConstrainedTaskFailsDiagnosably(t *testing.T) {
	g, c := figure1(t, r(3, 1), capacity.PolicyEquation4)
	inj, err := New(g, Spec{Overrun: r(4, 1), OverrunEvery: 1, Tasks: []string{"wb"}})
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.VerifyOptions{
		Firings:   100,
		Workloads: sim.AdversarialWorkloads(g, sim.AdversaryAlternate),
	}
	inj.Apply(&opts)
	v, err := sim.VerifyThroughput(g, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("4x overrun on the constrained task verified")
	}
	if v.Underrun == nil {
		t.Fatalf("no structured underrun; reason: %s", v.Reason)
	}
	if v.Underrun.Actor != "wb" {
		t.Errorf("Underrun.Actor = %q, want wb", v.Underrun.Actor)
	}
}

func TestSweepDegradationCurve(t *testing.T) {
	g, c := figure1(t, r(3, 1), capacity.PolicyEquation4)
	var parallelEffort, serialEffort sim.Effort
	curve, err := Sweep(DegradationConfig{
		Graph:        g,
		Constraint:   c,
		Factors:      []ratio.Rat{r(1, 1), r(3, 2), r(2, 1), r(4, 1)},
		OverrunEvery: 1,
		Tasks:        []string{"wb"},
		Firings:      100,
		Workloads:    sim.Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}},
		Effort:       &parallelEffort,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(curve.Points))
	}
	if !curve.Points[0].OK {
		t.Errorf("nominal point failed: %s", curve.Points[0].Reason)
	}
	last := curve.Points[3]
	if last.OK {
		t.Error("4x overrun on the constrained task passed")
	}
	if last.Underrun == nil && last.Deadlock == nil {
		t.Error("failing point carries no structured diagnostic")
	}
	ff := curve.FirstFailure()
	if ff == nil {
		t.Fatal("FirstFailure = nil with a failing point present")
	}
	if got := curve.Slack(); got.Less(ratio.FromInt(0)) {
		t.Errorf("Slack = %v, want >= 0 (nominal point passed)", got)
	}
	// Serial and parallel sweeps agree point-for-point.
	serial, err := Sweep(DegradationConfig{
		Graph:        g,
		Constraint:   c,
		Factors:      []ratio.Rat{r(1, 1), r(3, 2), r(2, 1), r(4, 1)},
		OverrunEvery: 1,
		Tasks:        []string{"wb"},
		Firings:      100,
		Workloads:    sim.Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}},
		Workers:      1,
		Effort:       &serialEffort,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range curve.Points {
		if curve.Points[i].OK != serial.Points[i].OK {
			t.Errorf("point %d: parallel OK=%v, serial OK=%v", i, curve.Points[i].OK, serial.Points[i].OK)
		}
	}
	// Every point's simulation is counted, whatever the worker count.
	if p, s := parallelEffort.Counts(), serialEffort.Counts(); p.SimEvents == 0 || p.ColdResets < 4 || p != s {
		t.Errorf("sweep effort: parallel %+v, serial %+v; want equal, nonzero, one cold reset per point or more", p, s)
	}
}

func TestSweepValidation(t *testing.T) {
	g, c := figure1(t, r(3, 1), capacity.PolicyEquation4)
	if _, err := Sweep(DegradationConfig{Constraint: c}); err == nil {
		t.Error("Sweep without a graph accepted")
	}
	if _, err := Sweep(DegradationConfig{Graph: g, Constraint: c}); err == nil {
		t.Error("Sweep without factors accepted")
	}
	if _, err := Sweep(DegradationConfig{Graph: g, Constraint: c, Factors: []ratio.Rat{r(1, 2)}}); err == nil {
		t.Error("Sweep with factor < 1 accepted")
	}
}

func TestSweepCanceled(t *testing.T) {
	g, c := figure1(t, r(3, 1), capacity.PolicyEquation4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Sweep(DegradationConfig{
		Graph:      g,
		Constraint: c,
		Factors:    FactorRange(r(1, 1), r(2, 1), 8),
		Firings:    100,
		Context:    ctx,
	})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestFactorRange(t *testing.T) {
	fs := FactorRange(r(1, 1), r(2, 1), 5)
	if len(fs) != 5 {
		t.Fatalf("got %d factors, want 5", len(fs))
	}
	if !fs[0].Equal(r(1, 1)) || !fs[4].Equal(r(2, 1)) {
		t.Errorf("endpoints %v..%v, want 1..2", fs[0], fs[4])
	}
	for i := 1; i < len(fs); i++ {
		if !fs[i-1].Less(fs[i]) {
			t.Errorf("factors not increasing at %d: %v, %v", i, fs[i-1], fs[i])
		}
	}
	if one := FactorRange(r(1, 1), r(1, 1), 3); len(one) != 1 {
		t.Errorf("degenerate range has %d factors, want 1", len(one))
	}
}
