package minimize

import "sync/atomic"

// ProbeStats accumulates simulation-effort counters across the probes of a
// check or search. All fields are atomic so the checks of concurrent
// searches — the service's requests, for example — can share one instance;
// pass it via Options.Stats. Counters are cumulative — zero the
// struct (or use a fresh one) to measure a single search.
type ProbeStats struct {
	// SimEvents counts events actually simulated, excluding events replayed
	// for free from a warm-start checkpoint.
	SimEvents atomic.Int64
	// ResumedEvents counts events skipped by resuming from a checkpoint
	// instead of replaying from t=0.
	ResumedEvents atomic.Int64
	// WarmResets counts machine resets that resumed from a checkpoint.
	WarmResets atomic.Int64
	// ColdResets counts machine resets that replayed from t=0.
	ColdResets atomic.Int64
}

// note records one run's effort: total events simulated after the resume
// point and the events the resume skipped. Nil-safe.
func (s *ProbeStats) note(simulated, resumed int64) {
	if s == nil {
		return
	}
	s.SimEvents.Add(simulated)
	s.ResumedEvents.Add(resumed)
	if resumed > 0 {
		s.WarmResets.Add(1)
	} else {
		s.ColdResets.Add(1)
	}
}
