// Package probecache caches feasibility-probe verdicts across searches,
// sweeps and CLI invocations.
//
// Every layer of this library that sizes buffers probes candidates against
// a monotone predicate: minimize.Search asks "is this capacity vector
// feasible?" (monotone in every coordinate by Definition 1 of Wiggers et
// al., DATE 2008 — more space never delays a start), and
// capacity.MinimalFeasiblePeriod asks "is this period schedulable?"
// (monotone in the period: relaxing the constraint only relaxes every
// per-task check). Monotone verdicts are reusable: any vector dominating a
// known-feasible one is feasible without simulating, and symmetrically for
// infeasible ones. This package holds those verdicts:
//
//   - Frontier: an antichain pair (minimal feasible / maximal infeasible
//     capacity vectors) answering dominated probes — extracted from
//     minimize.Search so independent searches can share it.
//   - Store: a map from a canonical graph fingerprint (GraphKey) to one
//     Frontier, owned by whoever creates it and passed explicitly to the
//     searches that use it, optionally persisted as versioned JSON files
//     so repeated CLI invocations warm-start. Disk content is advisory: a
//     file that fails to parse, carries the wrong version or fingerprint,
//     or contradicts monotonicity is ignored, never trusted.
//   - Periods: in-memory period verdicts a caller shares between
//     capacity.SweepPeriods and MinimalFeasiblePeriod. A sweep recomputes
//     every point and only records into it, so it is never persisted.
//
// A cache can change how many probes run, never which answer a search
// returns; the equivalence tests in internal/minimize and
// internal/capacity pin that contract.
package probecache

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Frontier remembers probed capacity vectors as two minimal antichains and
// answers dominated probes without simulating. Inserting a feasible vector
// drops the feasible entries it dominates, and symmetrically for
// infeasible ones, so lookups scan only non-redundant frontiers. A
// contradiction between the frontiers (a feasible vector at or below an
// infeasible one) can only come from a non-monotone check and is reported
// as an error, preserving the caller's non-monotone-check semantics.
//
// Safe for concurrent use; concurrent searches may share one Frontier.
type Frontier struct {
	keys       []string // buffer order of the vectors
	mu         sync.Mutex
	feasible   side // minimal known-feasible vectors
	infeasible side // maximal known-infeasible vectors
	hits       atomic.Int64
	misses     atomic.Int64
}

// side is one frontier: n vectors of k entries each, back to back in one
// backing array in insertion order. A feasible vector (up) answers every
// probe at or above it, an infeasible one every probe at or below it.
type side struct {
	k, n int
	up   bool
	vals []int64
}

// NewFrontier returns an empty frontier over the given buffer order.
func NewFrontier(buffers []string) *Frontier {
	k := len(buffers)
	return &Frontier{
		keys:       append([]string(nil), buffers...),
		feasible:   side{k: k, up: true},
		infeasible: side{k: k},
	}
}

// vec returns the side's i-th vector.
func (s *side) vec(i int) []int64 { return s.vals[i*s.k : (i+1)*s.k : (i+1)*s.k] }

// covers reports whether the vector e of the side answers a probe of v.
//
//vrdf:noalloc
func (s *side) covers(e, v []int64) bool {
	if s.up {
		return leq(e, v)
	}
	return leq(v, e)
}

// find returns the index of the first vector that answers a probe of v,
// or -1.
//
//vrdf:noalloc
func (s *side) find(v []int64) int {
	for i := 0; i < s.n; i++ {
		if s.covers(s.vec(i), v) {
			return i
		}
	}
	return -1
}

// add appends a copy of v, first compacting away in place the vectors v
// answers for, which the side no longer needs.
func (s *side) add(v []int64) {
	n := 0
	for i := 0; i < s.n; i++ {
		if e := s.vec(i); !s.covers(v, e) {
			copy(s.vals[n*s.k:], e)
			n++
		}
	}
	s.vals = append(s.vals[:n*s.k], v...)
	s.n = n + 1
}

// Keys returns a copy of the buffer order the frontier projects vectors
// onto.
func (c *Frontier) Keys() []string { return append([]string(nil), c.keys...) }

// SameKeys reports whether the frontier's buffer order matches buffers
// exactly. Sharing a frontier between searches is only sound when they
// agree on the projection order.
func (c *Frontier) SameKeys(buffers []string) bool {
	if len(buffers) != len(c.keys) {
		return false
	}
	for i, k := range c.keys {
		if buffers[i] != k {
			return false
		}
	}
	return true
}

// leq reports a ≤ b pointwise.
//
//vrdf:noalloc
func leq(a, b []int64) bool {
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

func (c *Frontier) fmtVec(v []int64) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range c.keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s:%d", k, v[i])
	}
	sb.WriteByte('}')
	return sb.String()
}

// Lookup answers a probe by dominance: (feasible, true) when the capacity
// vector v is at or above a known-feasible vector, (false, true) when it
// is at or below a known-infeasible one, and (_, false) when the cache
// cannot decide and the probe must simulate. v holds one capacity per
// buffer in Keys() order; a vector of any other length panics. Lookup
// neither keeps nor allocates anything.
func (c *Frontier) Lookup(v []int64) (feasible, hit bool) {
	if len(v) != len(c.keys) {
		panic(fmt.Sprintf("probecache: Lookup of a %d-entry vector on a frontier over %d buffers", len(v), len(c.keys)))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	feasible, hit = c.lookupLocked(v)
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return feasible, hit
}

// lookupLocked answers a probe vector against the two frontiers by
// dominance. It is the per-probe hot path of the shared cache.
//
//vrdf:noalloc
func (c *Frontier) lookupLocked(v []int64) (feasible, hit bool) {
	if c.feasible.find(v) >= 0 {
		return true, true
	}
	if c.infeasible.find(v) >= 0 {
		return false, true
	}
	return false, false
}

// Insert records a probe's verdict for the capacity vector v (in Keys()
// order), keeping the frontiers minimal. A verdict that contradicts the
// opposite frontier exposes a non-monotone check and is returned as an
// error, as is a vector of the wrong length. The frontier keeps a copy of
// v, never v itself, so the caller may go on mutating it.
func (c *Frontier) Insert(v []int64, feasible bool) error {
	if len(v) != len(c.keys) {
		return fmt.Errorf("probecache: a %d-entry vector cannot be inserted into a frontier over %d buffers", len(v), len(c.keys))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(v, feasible)
}

// insertLocked records v's verdict. v stays the caller's: an entry that
// joins a frontier is a copy.
func (c *Frontier) insertLocked(v []int64, feasible bool) error {
	same, other := &c.feasible, &c.infeasible
	if !feasible {
		same, other = other, same
	}
	if i := other.find(v); i >= 0 {
		if feasible {
			return fmt.Errorf("probecache: check is not monotone: %s is feasible but the pointwise-larger %s was infeasible",
				c.fmtVec(v), c.fmtVec(other.vec(i)))
		}
		return fmt.Errorf("probecache: check is not monotone: %s is infeasible but the pointwise-smaller %s was feasible",
			c.fmtVec(v), c.fmtVec(other.vec(i)))
	}
	if same.find(v) < 0 { // else an existing entry already answers v
		same.add(v)
	}
	return nil
}

// Size returns the number of vectors on the feasible and infeasible
// frontiers.
func (c *Frontier) Size() (feasible, infeasible int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.feasible.n, c.infeasible.n
}

// Counters returns the number of lookups answered by dominance (hits) and
// the number that had to simulate (misses) since the frontier was created
// or loaded.
func (c *Frontier) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// SelfCheck verifies the frontier's structural invariants: the feasible
// and infeasible sets are antichains (no member dominates another, so
// every entry is load-bearing) and they never contradict (no feasible
// vector pointwise at or below an infeasible one — monotonicity). The
// merge tests run it after folding in verdicts another process flushed:
// no merge may ever smuggle a non-monotone verdict into a live frontier.
func (c *Frontier) SelfCheck() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < c.feasible.n; i++ {
		if j := c.infeasible.find(c.feasible.vec(i)); j >= 0 {
			return fmt.Errorf("probecache: frontier contradiction: feasible %s at or below infeasible %s",
				c.fmtVec(c.feasible.vec(i)), c.fmtVec(c.infeasible.vec(j)))
		}
	}
	for _, s := range []*side{&c.feasible, &c.infeasible} {
		for i := 0; i < s.n; i++ {
			for j := 0; j < s.n; j++ {
				if a, b := s.vec(i), s.vec(j); i != j && leq(a, b) {
					if s.up {
						return fmt.Errorf("probecache: feasible frontier is not an antichain: %s dominated by %s",
							c.fmtVec(b), c.fmtVec(a))
					}
					return fmt.Errorf("probecache: infeasible frontier is not an antichain: %s dominated by %s",
						c.fmtVec(a), c.fmtVec(b))
				}
			}
		}
	}
	return nil
}

// snapshot copies the frontiers for persistence.
func (c *Frontier) snapshot() frontierSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := frontierSnapshot{Buffers: append([]string(nil), c.keys...)}
	for i := 0; i < c.feasible.n; i++ {
		s.Feasible = append(s.Feasible, slices.Clone(c.feasible.vec(i)))
	}
	for i := 0; i < c.infeasible.n; i++ {
		s.Infeasible = append(s.Infeasible, slices.Clone(c.infeasible.vec(i)))
	}
	return s
}

// absorb merges a persisted snapshot into the frontier. It validates the
// buffer order, vector arity and mutual consistency of the snapshot; any
// violation aborts with an error and the caller must discard the snapshot
// (on-disk data is advisory, never trusted).
func (c *Frontier) absorb(s frontierSnapshot) error {
	if !c.SameKeys(s.Buffers) {
		return fmt.Errorf("probecache: snapshot buffer order %v does not match frontier %v", s.Buffers, c.keys)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range append(s.Feasible, s.Infeasible...) {
		if len(v) != len(c.keys) {
			return fmt.Errorf("probecache: snapshot vector has %d entries, want %d", len(v), len(c.keys))
		}
		for _, x := range v {
			if x < 0 {
				return fmt.Errorf("probecache: snapshot vector holds negative capacity %d", x)
			}
		}
	}
	for _, v := range s.Feasible {
		if err := c.insertLocked(v, true); err != nil {
			return err
		}
	}
	for _, v := range s.Infeasible {
		if err := c.insertLocked(v, false); err != nil {
			return err
		}
	}
	return nil
}
