// Package a exercises the machinereuse analyzer: flagged and allowed uses
// of the sim.Machine reuse protocol.
package a

import "fixtures/internal/sim"

// --- double Run ---

func doubleRun(m *sim.Machine) {
	m.Run()
	m.Run() // want `second Run on m without an intervening Reset or ResetWarm`
}

func runResetRun(m *sim.Machine) {
	m.Run()
	m.Reset(nil)
	m.Run() // ok: reset in between
}

func runResetWarmRun(m *sim.Machine) {
	m.Run()
	m.ResetWarm(nil)
	m.Run() // ok: warm reset counts
}

func loopRunNoReset(m *sim.Machine) {
	for i := 0; i < 3; i++ {
		m.Run() // want `second Run on m without an intervening Reset or ResetWarm`
	}
}

func loopRunReset(m *sim.Machine) {
	for i := 0; i < 3; i++ {
		m.Run() // ok: every iteration resets before looping back
		m.Reset(nil)
	}
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
	m.Run() // want `second Run on m without an intervening Reset or ResetWarm`
}

func fieldReceiver(w struct{ M *sim.Machine }) {
	w.M.Run()
	w.M.Run() // want `second Run on w.M without an intervening Reset or ResetWarm`
}

// --- escaping knob overrides ---

func overrideLeaks(m *sim.Machine) {
	m.SetStopFirings(5) // want `SetStopFirings on m is not reverted by a Reset or ResetWarm`
	m.Run()
}

func overrideReset(m *sim.Machine) {
	m.SetStopFirings(5)
	m.Run()
	m.Reset(nil) // ok: reverted before returning
}

func overrideDeferredReset(m *sim.Machine) {
	defer m.Reset(nil) // ok: discharged at every return
	m.SetStopFirings(5)
	m.Run()
}

func offsetLeaks(m *sim.Machine) {
	m.SetPeriodicOffsetTicks("src", 3) // want `SetPeriodicOffsetTicks on m is not reverted by a Reset or ResetWarm`
}

func overrideWaived(m *sim.Machine) {
	//vrdf:reuseok(the caller resets before every run by protocol)
	m.SetStopFirings(5) // ok: waived with a reason
}

func overrideWaivedNoReason(m *sim.Machine) {
	//vrdf:reuseok() // want `vrdf:reuseok waiver needs a reason`
	m.SetStopFirings(5)
}

func localOverride() {
	m, _ := sim.Compile()
	m.SetStopFirings(5) // ok: the machine does not outlive this function
	m.Run()
}

// --- snapshots across reset epochs ---

func staleSnapshot(m *sim.Machine) {
	s := m.Snapshot(nil)
	m.Reset(nil)
	m.Restore(s) // want `Restore of snapshot s taken before the last Reset of m`
}

func freshSnapshot(m *sim.Machine) {
	m.Reset(nil)
	s := m.Snapshot(nil)
	m.Restore(s) // ok: same epoch
}

// --- escapes stay silent ---

func escapes(m *sim.Machine, f func(*sim.Machine)) {
	m.Run()
	f(m)    // m escapes: the callee may reset it
	m.Run() // ok: unknown state never reports
}
