package probecache

// Periods once cached period-feasibility verdicts for capacity's period
// queries. Those queries now decide by the chain's validity threshold and
// keep no verdicts, so a Periods holds nothing.
//
// Deprecated: nothing reads a Periods; it stays only until the perfbench
// harness stops naming it.
type Periods struct{}

// NewPeriods returns an empty Periods.
//
// Deprecated: see Periods.
func NewPeriods() *Periods { return &Periods{} }

// Counters returns 0 hits and 0 misses: nothing probes a Periods.
//
// Deprecated: see Periods.
func (p *Periods) Counters() (hits, misses int64) { return 0, 0 }
