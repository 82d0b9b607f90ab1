package sim

import "sync/atomic"

// Effort counts the simulation work of the runs that report into it (see
// Config.Effort and VerifyOptions.Effort). Every run adds itself when it
// ends, however it ends: completed, deadlocked, underrun, cut short by
// MaxEvents or aborted by its context. The fields are atomic, so the runs
// of concurrent searches or verifications can share one Effort; the
// counters are cumulative, so use a fresh Effort to measure one search.
type Effort struct {
	// SimEvents counts events executed, excluding the prefix a warm run
	// resumed from a checkpoint instead of replaying.
	SimEvents atomic.Int64
	// ResumedEvents counts events skipped by resuming from checkpoints.
	ResumedEvents atomic.Int64
	// WarmResets counts runs that resumed from a checkpoint.
	WarmResets atomic.Int64
	// ColdResets counts runs that started from tick 0.
	ColdResets atomic.Int64
}

// note records one run that executed simulated events after resuming
// resumed events from a checkpoint (0: a cold run). Nil-safe.
func (e *Effort) note(simulated, resumed int64) {
	if e == nil {
		return
	}
	e.SimEvents.Add(simulated)
	e.ResumedEvents.Add(resumed)
	if resumed > 0 {
		e.WarmResets.Add(1)
	} else {
		e.ColdResets.Add(1)
	}
}

// EffortCounts is a copy of an Effort's counters, under the JSON keys
// vrdfserve's /statsz reports them with.
type EffortCounts struct {
	SimEvents     int64 `json:"simEvents"`
	ResumedEvents int64 `json:"resumedEvents"`
	WarmResets    int64 `json:"warmResets"`
	ColdResets    int64 `json:"coldResets"`
}

// Counts loads the counters.
func (e *Effort) Counts() EffortCounts {
	return EffortCounts{
		SimEvents:     e.SimEvents.Load(),
		ResumedEvents: e.ResumedEvents.Load(),
		WarmResets:    e.WarmResets.Load(),
		ColdResets:    e.ColdResets.Load(),
	}
}
