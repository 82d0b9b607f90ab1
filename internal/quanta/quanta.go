// Package quanta provides deterministic per-firing transfer-quantum
// sequences for simulating variable-rate dataflow graphs.
//
// In the model of Wiggers et al. (DATE 2008) the number of tokens a task
// transfers may change every execution, driven by the data in the processed
// stream (e.g. the byte size of each variable-bit-rate MP3 frame). For
// analysis the values are only known to lie in a finite set; for simulation
// a concrete sequence must be chosen. A Sequence maps the 0-based firing
// index to the quantum of that firing as a pure function, which makes
// simulation runs replayable: two engines reading the same Sequence observe
// the same stream, regardless of interleaving.
package quanta

import (
	"fmt"

	"vrdfcap/internal/mix"
	"vrdfcap/internal/taskgraph"
)

// Sequence yields the transfer quantum of each firing. Implementations must
// be pure: At(k) always returns the same value for the same k.
type Sequence interface {
	// At returns the quantum of firing k (0-based). k must be >= 0.
	At(k int64) int64
}

// Func adapts a pure function to a Sequence.
type Func func(k int64) int64

// At implements Sequence.
func (f Func) At(k int64) int64 { return f(k) }

// Constant returns the sequence that is always v — a data-independent rate.
func Constant(v int64) Sequence { return constantSeq(v) }

type constantSeq int64

func (c constantSeq) At(int64) int64 { return int64(c) }

// Cycle returns the sequence vals[k mod len(vals)]. It panics if vals is
// empty. Cycle(2, 3) reproduces the alternating consumption of the paper's
// Figure 3.
func Cycle(vals ...int64) Sequence {
	if len(vals) == 0 {
		panic("quanta: Cycle of no values")
	}
	out := make([]int64, len(vals))
	copy(out, vals)
	return cycleSeq(out)
}

type cycleSeq []int64

func (c cycleSeq) At(k int64) int64 { return c[int(k%int64(len(c)))] }

// Sticky returns a sequence that yields vals[k] while k is in range and the
// last value forever after. It panics if vals is empty.
func Sticky(vals ...int64) Sequence {
	if len(vals) == 0 {
		panic("quanta: Sticky of no values")
	}
	out := make([]int64, len(vals))
	copy(out, vals)
	return stickySeq(out)
}

type stickySeq []int64

func (s stickySeq) At(k int64) int64 {
	if k >= int64(len(s)) {
		return s[len(s)-1]
	}
	return s[k]
}

// MinOf returns the constant sequence at the set's minimum — the adversarial
// "always consume as little as possible" stream of the motivating example.
// If the minimum is zero the smallest positive member is used instead, since
// a stream that never transfers anything makes no progress.
func MinOf(q taskgraph.QuantaSet) Sequence {
	m := q.Min()
	if m == 0 {
		for _, v := range q.Values() {
			if v > 0 {
				m = v
				break
			}
		}
	}
	return Constant(m)
}

// MaxOf returns the constant sequence at the set's maximum.
func MaxOf(q taskgraph.QuantaSet) Sequence { return Constant(q.Max()) }

// AlternateMinMax returns the sequence min, max, min, max, … over the set.
func AlternateMinMax(q taskgraph.QuantaSet) Sequence {
	return Cycle(q.Min(), q.Max())
}

// Bursty returns a sequence alternating runs: lowLen firings at the set's
// minimum followed by highLen at its maximum — the bursty bit-rate shape
// (silence then peak) that stresses buffer sizing hardest. Panics if either
// length is non-positive.
func Bursty(q taskgraph.QuantaSet, lowLen, highLen int64) Sequence {
	if lowLen <= 0 || highLen <= 0 {
		panic(fmt.Sprintf("quanta: Bursty needs positive run lengths, got %d and %d", lowLen, highLen))
	}
	lo, hi := q.Min(), q.Max()
	period := lowLen + highLen
	return Func(func(k int64) int64 {
		if k%period < lowLen {
			return lo
		}
		return hi
	})
}

// Uniform returns a pseudo-random sequence drawn uniformly from the set,
// deterministic in (seed, k): the value of firing k never depends on which
// other firings were sampled first.
func Uniform(q taskgraph.QuantaSet, seed int64) Sequence {
	vals := q.Values()
	return Func(func(k int64) int64 {
		h := mix.SplitMix64(uint64(seed) ^ mix.SplitMix64(uint64(k)))
		return vals[h%uint64(len(vals))]
	})
}

// Walk returns a pseudo-random walk over the sorted members of the set:
// each firing moves at most one position up or down from the previous
// firing's position. This mimics slowly varying bit rates. Deterministic in
// (seed, k).
func Walk(q taskgraph.QuantaSet, seed int64) Sequence {
	vals := q.Values()
	n := int64(len(vals))
	return Func(func(k int64) int64 {
		// Position after k steps: prefix sum of {-1, 0, +1} increments,
		// computed incrementally but memo-free by hashing each step.
		// To stay O(1) per call we derive the position from a hash of a
		// coarse epoch plus fine steps; for exactness and purity we walk
		// from the epoch boundary (at most 64 steps).
		const epoch = 64
		start := (k / epoch) * epoch
		pos := int64(mix.SplitMix64(uint64(seed)^uint64(start)) % uint64(n))
		for i := start; i <= k; i++ {
			step := int64(mix.SplitMix64(uint64(seed)+uint64(i)*0x6a09e667f3bcc909) % 3)
			pos += step - 1
			if pos < 0 {
				pos = 0
			}
			if pos >= n {
				pos = n - 1
			}
		}
		return vals[pos]
	})
}

// FromSlice returns a sequence reading successive values from vals and
// failing loudly (panicking) when read past the end; for trace-driven
// simulation where exhausting the trace is a harness bug.
func FromSlice(vals []int64) Sequence {
	out := make([]int64, len(vals))
	copy(out, vals)
	return Func(func(k int64) int64 {
		if k < 0 || k >= int64(len(out)) {
			panic(fmt.Sprintf("quanta: trace exhausted at firing %d (len %d)", k, len(out)))
		}
		return out[k]
	})
}

// Checked wraps seq so that every value is verified to be a member of the
// set; a value outside the set panics, flagging a misconfigured workload
// before it corrupts a simulation.
func Checked(seq Sequence, set taskgraph.QuantaSet) Sequence {
	return Func(func(k int64) int64 {
		v := seq.At(k)
		if !set.Contains(v) {
			panic(fmt.Sprintf("quanta: firing %d drew quantum %d outside the declared set %v", k, v, set))
		}
		return v
	})
}

// Validate eagerly checks the first n values of seq against the set and
// returns an error on the first violation. Useful at configuration
// boundaries where a panic is inappropriate.
func Validate(seq Sequence, set taskgraph.QuantaSet, n int64) error {
	for k := int64(0); k < n; k++ {
		if v := seq.At(k); !set.Contains(v) {
			return fmt.Errorf("quanta: firing %d has quantum %d outside set %v", k, v, set)
		}
	}
	return nil
}
