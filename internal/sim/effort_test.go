package sim

import (
	"context"
	"errors"
	"testing"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/quanta"
)

// cancelAfter is a context whose Err reports cancellation from its n+1st
// call on, so a run is aborted at a known event count.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestEffortCountsStoppedRuns pins that a run counts its effort however it
// ends: one cut short by MaxEvents and one aborted by its context both
// add the events they executed, as cold runs.
func TestEffortCountsStoppedRuns(t *testing.T) {
	var e Effort
	cfg, _, err := TaskGraphConfig(pairGraph(t, 100), Workloads{"wa->wb": {Cons: quanta.Constant(2)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stop = Stop{Actor: "wb", Firings: 1 << 40}
	cfg.Effort = &e
	cfg.MaxEvents = 1000
	res, err := Run(cfg)
	if err != nil || res.Outcome != LimitExceeded {
		t.Fatalf("outcome %v, err %v; want limit-exceeded", res.Outcome, err)
	}
	cfg.MaxEvents = 0
	cfg.Context = &cancelAfter{Context: context.Background(), n: 2}
	if _, err := Run(cfg); !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err %v, want budget.ErrCanceled", err)
	}
	// The context is polled at events 0, 4096 and 8192.
	want := EffortCounts{SimEvents: 1000 + 2*budgetCheckInterval, ColdResets: 2}
	if got := e.Counts(); got != want {
		t.Errorf("effort %+v, want %+v", got, want)
	}
}
