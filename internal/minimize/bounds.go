package minimize

import "math"

// Bounds carries conservative linear feasibility bounds for a search, in the
// spirit of the paper's α̂/α̌ bounding argument (§4): the analysis' sufficient
// capacities α̂ guarantee feasibility for any pointwise-larger assignment,
// and per-buffer necessary minima α̌ (capacities below which even the most
// favourable token production cannot satisfy a single firing) guarantee
// infeasibility below them. Both directions are sound for every probe by the
// monotonicity of VRDF execution (Definition 1), so a probe the bounds
// decide never needs to simulate.
//
// capacity.SearchBounds derives both maps from an analysis result; a
// zero-value Bounds decides nothing.
type Bounds struct {
	// Sufficient is a complete assignment known feasible (typically the
	// analysis' Equation-4 capacities). Any probe over exactly these
	// buffers that dominates it pointwise is feasible. Nil disables the
	// sufficient direction.
	Sufficient map[string]int64
	// Necessary maps a buffer to a capacity strictly below which no
	// assignment is feasible, regardless of the other buffers. A probe
	// with caps[b] < Necessary[b] for any b is infeasible. Nil disables
	// the necessary direction.
	Necessary map[string]int64
}

// decider is Bounds compiled against one search's buffer order, so a probe
// is decided by reading the search's capacity vector by index. The zero
// decider decides nothing.
type decider struct {
	// necessary holds Necessary[buffers[i]], or math.MinInt64 where
	// Necessary names no bound for buffer i. Entries naming buffers outside
	// the search bound nothing and are dropped.
	necessary []int64
	// sufficient holds Sufficient[buffers[i]]. It is nil unless Sufficient
	// covers exactly the search's buffers: a partial or foreign assignment
	// is not known feasible.
	sufficient []int64
}

// compile returns the decider of the bounds over buffers, which must be
// distinct; a nil Bounds compiles to the zero decider.
func (b *Bounds) compile(buffers []string) decider {
	if b == nil {
		return decider{}
	}
	n := len(buffers)
	vecs := make([]int64, 2*n)
	d := decider{necessary: vecs[:n:n]}
	for i, name := range buffers {
		d.necessary[i] = math.MinInt64
		if min, ok := b.Necessary[name]; ok {
			d.necessary[i] = min
		}
	}
	if len(b.Sufficient) > 0 && len(b.Sufficient) == n {
		d.sufficient = vecs[n:]
		for i, name := range buffers {
			suf, ok := b.Sufficient[name]
			if !ok {
				d.sufficient = nil
				break
			}
			d.sufficient[i] = suf
		}
	}
	return d
}

// decide reports whether the bounds determine the verdict of the capacity
// vector caps (in the compiled buffer order) without simulation. decided
// is false when neither direction applies; feasible is meaningful only
// when decided is true.
//
//vrdf:noalloc
func (d *decider) decide(caps []int64) (feasible, decided bool) {
	for i, min := range d.necessary {
		if caps[i] < min {
			return false, true
		}
	}
	if d.sufficient == nil {
		return false, false
	}
	for i, suf := range d.sufficient {
		if caps[i] < suf {
			return false, false
		}
	}
	return true, true
}
