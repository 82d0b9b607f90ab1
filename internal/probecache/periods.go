package probecache

import (
	"sync"
	"sync/atomic"

	"vrdfcap/internal/ratio"
)

// Verdict is the cached outcome of one analytic period probe: whether the
// chain is schedulable at that period and, when it is relevant, the summed
// buffer capacity the policy selected.
type Verdict struct {
	Valid bool
	Total int64
}

// Periods caches period-feasibility verdicts for one (graph, constrained
// task, policy) triple — the axis capacity.SweepPeriods and
// MinimalFeasiblePeriod probe. Validity is monotone in the period: every
// per-task check compares a fixed response time against φ(w) = τ·const
// with a positive constant, so relaxing τ can only turn checks from
// failing to passing. Probe exploits that monotonicity; only an exact
// repeat carries a Total (it is period-specific and not
// monotone-derivable). A Periods lives in memory only.
//
// Safe for concurrent use.
type Periods struct {
	mu       sync.Mutex
	verdicts map[ratio.Rat]Verdict
	hits     atomic.Int64
	misses   atomic.Int64
}

// NewPeriods returns an empty period-verdict cache.
func NewPeriods() *Periods {
	return &Periods{verdicts: make(map[ratio.Rat]Verdict)}
}

// Probe answers one period probe with a single counter update: the
// verdict recorded for exactly this period (with its Total), otherwise a
// monotone-dominance validity answer (Total zero) — a valid verdict at a
// period ≤ this one proves validity, an invalid one at a period ≥ this one
// proves invalidity — otherwise a miss. One Probe per candidate period
// keeps hits + misses equal to the number of probes.
func (p *Periods) Probe(period ratio.Rat) (v Verdict, hit bool) {
	p.mu.Lock()
	if v, ok := p.verdicts[period]; ok {
		p.mu.Unlock()
		p.hits.Add(1)
		return v, true
	}
	for rec, rv := range p.verdicts {
		if rv.Valid && rec.LessEq(period) {
			p.mu.Unlock()
			p.hits.Add(1)
			return Verdict{Valid: true}, true
		}
		if !rv.Valid && period.LessEq(rec) {
			p.mu.Unlock()
			p.hits.Add(1)
			return Verdict{Valid: false}, true
		}
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return Verdict{}, false
}

// Insert records a verdict. A repeat insert overwrites: the sweep always
// trusts the verdict it just computed over anything previously stored, so
// a stale or wrong entry heals itself the next time its period is
// actually analysed.
func (p *Periods) Insert(period ratio.Rat, v Verdict) {
	p.mu.Lock()
	p.verdicts[period] = v
	p.mu.Unlock()
}

// Counters returns the lookups answered from the cache (hits) and the
// lookups that had to analyse (misses).
func (p *Periods) Counters() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}
