// Package sim is a stub of vrdfcap/internal/sim for analyzer fixtures: it
// declares the Machine surface machinereuse keys on (the analyzer matches
// the package by final import-path element, so fixtures/internal/sim
// qualifies) with no behavior behind it.
package sim

// Result mirrors sim.Result.
type Result struct {
	Events int64
}

// Snapshot mirrors sim.Snapshot.
type Snapshot struct {
	events int64
}

// Machine mirrors the reuse-protocol surface of sim.Machine.
type Machine struct {
	ran bool
}

func Compile() (*Machine, error) { return &Machine{}, nil }

func (m *Machine) Run() (*Result, error)                              { m.ran = true; return &Result{}, nil }
func (m *Machine) Reset(tok map[string]int64) error                   { m.ran = false; return nil }
func (m *Machine) ResetWarm(tok map[string]int64) (int64, error)      { m.ran = false; return 0, nil }
func (m *Machine) Snapshot(into *Snapshot) *Snapshot                  { return &Snapshot{} }
func (m *Machine) Restore(s *Snapshot) error                          { return nil }
func (m *Machine) SetStopFirings(n int64) error                       { return nil }
func (m *Machine) SetPeriodicOffsetTicks(actor string, t int64) error { return nil }
