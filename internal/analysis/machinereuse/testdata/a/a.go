// Package a exercises the machinereuse analyzer: flagged and allowed uses
// of the sim.Machine reuse protocol.
package a

import "fixtures/internal/sim"

// --- double Run ---

func doubleRun(m *sim.Machine) {
	m.Run()
	m.Run() // want `second Run on m without an intervening Reset`
}

func runResetRun(m *sim.Machine) {
	m.Run()
	m.Reset(nil)
	m.Run() // ok: reset in between
}

func loopRunNoReset(m *sim.Machine) {
	for i := 0; i < 3; i++ {
		m.Run() // want `second Run on m without an intervening Reset`
	}
}

func loopRunReset(m *sim.Machine) {
	for i := 0; i < 3; i++ {
		m.Run() // ok: every iteration resets before looping back
		m.Reset(nil)
	}
}

func deferredReset(m *sim.Machine) {
	m.Run()
	defer m.Reset(nil)
	m.Run() // want `second Run on m without an intervening Reset`
}

func branchRuns(m *sim.Machine, b bool) {
	if b {
		m.Run() // ok: the arms are alternatives
	} else {
		m.Run()
	}
}

func branchThenRun(m *sim.Machine, b bool) {
	if b {
		m.Run()
	}
	m.Run() // want `second Run on m without an intervening Reset`
}

func fieldReceiver(w struct{ M *sim.Machine }) {
	w.M.Run()
	w.M.Run() // want `second Run on w.M without an intervening Reset`
}

// --- escapes stay silent ---

func escapes(m *sim.Machine, f func(*sim.Machine)) {
	m.Run()
	f(m)    // m escapes: the callee may reset it
	m.Run() // ok: unknown state never reports
}
