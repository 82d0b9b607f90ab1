package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/quanta"
)

// TestReusedMachineHonorsCanceledContext pins the budget bugfix: the event
// counter that paces Context checks is per-run state, so a reused machine
// must notice an already-canceled Context within the first
// budgetCheckInterval window of its next Run — not after inheriting a stale
// counter from the previous run.
func TestReusedMachineHonorsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg, _ := pairConfig(t, 7, quanta.Cycle(2, 3), 50)
	cfg.Context = ctx
	m, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := m.Reset(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, budget.ErrCanceled) {
		t.Errorf("Run on a reused machine with a canceled Context returned %v, want budget.ErrCanceled", err)
	}
}

// TestResetClearsRecordings pins that no recording buffer — starts,
// transfers, occupancy — leaks across a Reset: the second run of a reused
// machine reports exactly the recordings of a fresh run.
func TestResetClearsRecordings(t *testing.T) {
	cfg, _ := pairConfig(t, 7, quanta.Cycle(2, 3), 30)
	cfg.RecordStarts = []string{"wa", "wb"}
	cfg.RecordTransfers = []string{"data:wa->wb", "space:wa->wb"}
	cfg.RecordOccupancy = []string{"data:wa->wb"}
	fresh, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(nil); err != nil {
		t.Fatal(err)
	}
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Starts, got.Starts) {
		t.Errorf("starts leaked across Reset\nfresh: %v\ngot:   %v", fresh.Starts, got.Starts)
	}
	if !reflect.DeepEqual(fresh.Transfers, got.Transfers) {
		t.Errorf("transfers leaked across Reset\nfresh: %v\ngot:   %v", fresh.Transfers, got.Transfers)
	}
	if !reflect.DeepEqual(fresh.Occupancy, got.Occupancy) {
		t.Errorf("occupancy leaked across Reset\nfresh: %v\ngot:   %v", fresh.Occupancy, got.Occupancy)
	}
	if !reflect.DeepEqual(fresh, got) {
		t.Errorf("reused run diverged from fresh run\nfresh: %+v\ngot:   %+v", fresh, got)
	}
}
