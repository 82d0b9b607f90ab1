package vrdfcap

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestFaultInjectionFacade(t *testing.T) {
	g := pairForExtras(t)
	c := Constraint{Task: "wb", Period: Rat(3, 1)}
	sized, _, err := Size(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := NewFaultInjector(sized, FaultSpec{Jitter: Rat(1, 2), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := VerifyOptions{Firings: 200, Workloads: UniformWorkloads(sized, 3)}
	inj.Apply(&opts)
	v, err := Verify(sized, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Errorf("admissible jitter failed at Eq4 capacities: %s", v.Reason)
	}
}

func TestSweepDegradationFacadeAndReport(t *testing.T) {
	g := pairForExtras(t)
	c := Constraint{Task: "wb", Period: Rat(3, 1)}
	sized, _, err := Size(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := SweepDegradation(DegradationConfig{
		Graph:        sized,
		Constraint:   c,
		Factors:      OverrunFactors(Rat(1, 1), Rat(4, 1), 4),
		OverrunEvery: 1,
		Tasks:        []string{"wb"},
		Firings:      100,
		Workloads:    Workloads{"wa->wb": {Cons: CycleSeq(2, 3)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if curve.FirstFailure() == nil {
		t.Fatal("4x overrun on the constrained task did not degrade")
	}
	var sb strings.Builder
	if err := WriteDegradation(&sb, curve); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"overrun factor", "FAILED", "first failure", "slack"} {
		if !strings.Contains(out, want) {
			t.Errorf("degradation report missing %q:\n%s", want, out)
		}
	}
}

func TestVerificationDiagnosticsFacade(t *testing.T) {
	g := pairForExtras(t)
	c := Constraint{Task: "wb", Period: Rat(3, 1)}
	// Undersize deliberately: capacity 4 deadlocks under the alternating
	// consumer, and the structured diagnostic must surface in the report.
	for _, b := range g.Buffers() {
		b.Capacity = 4
	}
	v, err := Verify(g, c, VerifyOptions{
		Firings:   100,
		Workloads: Workloads{"wa->wb": {Cons: CycleSeq(2, 3)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("undersized graph verified")
	}
	if v.Deadlock == nil {
		t.Fatal("Verification.Deadlock is nil on a deadlocked run")
	}
	var sb strings.Builder
	if err := WriteVerification(&sb, v); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "deadlock at tick") {
		t.Errorf("report missing structured deadlock:\n%s", sb.String())
	}
}

func TestTypedErrorsFacade(t *testing.T) {
	g := pairForExtras(t)
	c := Constraint{Task: "wb", Period: Rat(3, 1)}
	sized, _, err := Size(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Verify(sized, c, VerifyOptions{
		Firings:   100,
		Workloads: Workloads{"wa->wb": {Cons: CycleSeq(2, 3)}},
		Context:   ctx,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("cancelled Verify: err = %v, want ErrCanceled", err)
	}
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	_, err = Verify(sized, c, VerifyOptions{
		Firings:   100,
		Workloads: Workloads{"wa->wb": {Cons: CycleSeq(2, 3)}},
		Context:   expired,
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("expired Verify: err = %v, want ErrBudgetExceeded", err)
	}
}
