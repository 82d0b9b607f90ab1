package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg, _ := pairConfig(t, 4, quanta.Constant(2), 1000)
	cfg.Context = ctx
	_, err := Run(cfg)
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("Run with cancelled context: err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to also satisfy context.Canceled", err)
	}
}

// TestRunCanceledMidRun cancels the context from inside an Exec callback
// and pins the cooperative bound: the run must stop within one
// budget-check interval of the cancellation taking effect.
func TestRunCanceledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg, _ := pairConfig(t, 4, quanta.Constant(2), 1<<40)
	cfg.Context = ctx
	fired := int64(0)
	cfg.Actors = map[string]ActorConfig{"wa": {Exec: func(k int64) ratio.Rat {
		if fired++; fired == 100 {
			cancel()
		}
		return r(1, 1)
	}}}
	m, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Every firing of wa is at least one event; cancellation at firing
	// 100 must be honoured within one check interval.
	if m.events > 100*4+budgetCheckInterval {
		t.Errorf("run processed %d events after cancellation at firing 100 (interval %d)", m.events, budgetCheckInterval)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cfg, _ := pairConfig(t, 4, quanta.Constant(2), 1000)
	cfg.Context = ctx
	_, err := Run(cfg)
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("Run past its deadline: err = %v, want ErrBudgetExceeded", err)
	}
}

func TestRunWithinBudgetUnaffected(t *testing.T) {
	// A generous budget must not change the result at all.
	plainCfg, _ := pairConfig(t, 4, quanta.Constant(2), 500)
	plain, err := Run(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	cfg, _ := pairConfig(t, 4, quanta.Constant(2), 500)
	cfg.Context = ctx
	budgeted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Outcome != budgeted.Outcome || plain.EndTick != budgeted.EndTick || plain.Events != budgeted.Events {
		t.Errorf("budgeted run diverged: %+v vs %+v", plain, budgeted)
	}
}

func TestResetKeepsBudgetArmed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg, _ := pairConfig(t, 4, quanta.Constant(2), 100)
	cfg.Context = ctx
	m, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("first run: %v", err)
	}
	cancel()
	if err := m.Reset(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("run after cancel: err = %v, want ErrCanceled", err)
	}
}

func TestOverrunRejectedByDefault(t *testing.T) {
	cfg, _ := pairConfig(t, 4, quanta.Constant(2), 10)
	cfg.Actors = map[string]ActorConfig{"wa": {Exec: func(k int64) ratio.Rat { return r(2, 1) }}}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("Exec > ρ accepted without AllowOverrun")
	}
}

func TestOverrunAllowedFinishesLate(t *testing.T) {
	cfg, _ := pairConfig(t, 4, quanta.Constant(2), 10)
	cfg.Actors = map[string]ActorConfig{"wa": {Exec: func(k int64) ratio.Rat { return r(2, 1) }}}
	cfg.AllowOverrun = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Completed {
		t.Fatalf("outcome %v, want completed", res.Outcome)
	}
	// wa needs 2 ticks per firing instead of 1; wb consumes 2 of 3
	// produced, so the run is producer-paced and must end later than the
	// admissible-time run.
	plainCfg, _ := pairConfig(t, 4, quanta.Constant(2), 10)
	plain, err := Run(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EndTick <= plain.EndTick {
		t.Errorf("overrun run ended at tick %d, not later than the nominal run's %d", res.EndTick, plain.EndTick)
	}
}

// TestOverrunPeriodicUnderrunsDiagnosably pins the structured diagnostic:
// a periodic actor whose stretched firing is still running at its next
// scheduled start underruns with the "previous firing still running" info
// rather than erroring out.
func TestOverrunPeriodicUnderrunsDiagnosably(t *testing.T) {
	cfg, _ := pairConfig(t, 7, quanta.Cycle(2, 3), 50)
	cfg.AllowOverrun = true
	cfg.Actors = map[string]ActorConfig{
		"wb": {
			Mode:   Periodic,
			Offset: r(10, 1),
			Period: r(3, 1),
			// Firing 3 stalls for two periods; firing 4's scheduled
			// start lands while it still runs.
			Exec: func(k int64) ratio.Rat {
				if k == 3 {
					return r(7, 1)
				}
				return r(1, 1)
			},
		},
	}
	cfg.ExtraTimes = []ratio.Rat{r(7, 1)}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Underrun {
		t.Fatalf("outcome %v, want underrun", res.Outcome)
	}
	u := res.Underrun
	if u == nil {
		t.Fatal("Underrun info missing")
	}
	if u.Actor != "wb" || u.Firing != 4 || u.Edge != "" {
		t.Errorf("underrun info = %+v, want wb firing 4 blocked on its own previous firing", u)
	}
}

// TestVerificationStructuredDiagnostics pins the satellite bugfix: a failing
// verification surfaces UnderrunInfo/DeadlockInfo on the Verification, not
// just a flattened Reason string.
func TestVerificationStructuredDiagnostics(t *testing.T) {
	t.Run("deadlock", func(t *testing.T) {
		// Capacity 4 deadlocks under the alternating 2,3 consumer, so
		// the self-timed phase fails with a structured deadlock.
		tg := pairGraph(t, 4)
		c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
		v, err := VerifyThroughput(tg, c, VerifyOptions{
			Firings:   100,
			Workloads: Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if v.OK {
			t.Fatal("undersized graph verified")
		}
		if v.Deadlock == nil || len(v.Deadlock.Blocked) == 0 {
			t.Fatalf("Verification.Deadlock = %+v, want blocked actors", v.Deadlock)
		}
		if v.Underrun != nil {
			t.Errorf("Verification.Underrun = %+v, want nil on a deadlock", v.Underrun)
		}
		if v.Reason == "" {
			t.Error("Reason is empty")
		}
	})
	t.Run("underrun", func(t *testing.T) {
		// Period 1/2 is below wb's response time ρ = 1, so every firing
		// is still running at the next scheduled start: the periodic
		// phase underruns at any offset.
		tg := pairGraph(t, 7)
		c := taskgraph.Constraint{Task: "wb", Period: r(1, 2)}
		v, err := VerifyThroughput(tg, c, VerifyOptions{
			Firings:   50,
			Workloads: Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if v.OK {
			t.Fatal("infeasible period verified")
		}
		if v.Underrun == nil {
			t.Fatal("Verification.Underrun missing")
		}
		if v.Underrun.Actor != "wb" {
			t.Errorf("Underrun.Actor = %q, want wb", v.Underrun.Actor)
		}
		if v.Reason == "" {
			t.Error("Reason is empty")
		}
	})
	t.Run("success leaves diagnostics nil", func(t *testing.T) {
		tg := pairGraph(t, 7)
		c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
		v, err := VerifyThroughput(tg, c, VerifyOptions{
			Firings:   100,
			Workloads: Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !v.OK {
			t.Fatalf("sufficient sizing failed: %s", v.Reason)
		}
		if v.Underrun != nil || v.Deadlock != nil {
			t.Errorf("diagnostics on success: underrun %+v, deadlock %+v", v.Underrun, v.Deadlock)
		}
	})
}

func TestVerifyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tg := pairGraph(t, 7)
	c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
	_, err := VerifyThroughput(tg, c, VerifyOptions{
		Firings:   100,
		Workloads: Workloads{"wa->wb": {Cons: quanta.Cycle(2, 3)}},
		Context:   ctx,
	})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
