// Package sim is a stub of vrdfcap/internal/sim for analyzer fixtures: it
// declares the Machine surface machinereuse keys on (the analyzer matches
// the package by final import-path element, so fixtures/internal/sim
// qualifies) with no behavior behind it.
package sim

// Result mirrors sim.Result.
type Result struct {
	Events int64
}

// Machine mirrors the reuse-protocol surface of sim.Machine.
type Machine struct {
	ran bool
}

func (m *Machine) Run() (*Result, error)            { m.ran = true; return &Result{}, nil }
func (m *Machine) Reset(tok map[string]int64) error { m.ran = false; return nil }
