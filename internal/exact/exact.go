// Package exact computes, by exhaustive state-space search, the *exact*
// minimum buffer capacity that keeps a producer–consumer pair deadlock-free
// for every admissible sequence of transfer quanta — the quantity the
// paper's Figure-1 discussion reasons about by example ("if the consumption
// quantum equals two in every task execution, then the minimum buffer
// capacity for deadlock-free execution is four") — and certifies whole
// chains the same way.
//
// The search plays an adaptive adversary: at every state it may pick any
// quantum from the declared sets for the next producer or consumer firing.
// For the safety property checked here (reachability of a stuck state) the
// adaptive adversary is exactly as strong as the worst fixed sequence — the
// choices made along a deadlocking path *are* a fixed sequence — so the
// result is the true minimum over all data-dependent behaviours, unlike
// sampling-based search (internal/minimize), which can only refute.
//
// States are untimed: timing cannot avert a deadlock that token counting
// allows, because starting later never adds tokens (and the eager schedule
// reaches every token-reachable state). A found deadlock comes with a
// witness — the per-firing quanta sequences that reproduce it in the timed
// simulator.
//
// One engine serves pairs and chains: a pair is searched as a two-task
// chain (see ChainCertifier).
package exact

import (
	"fmt"

	"vrdfcap/internal/taskgraph"
)

// pairMaxStates is the state guard of the pair entry points, ten times the
// chain default: MinCapacity's last probe of the constant MP3 edge (1152
// produced, 480 consumed), at its minimum 1536, is estimated at 4.7
// million states.
const pairMaxStates = 20_000_000

// Witness is an adversarial counterexample: feeding these sequences to the
// pair (producer quanta and consumer quanta per firing, in order) drives it
// into the deadlock.
type Witness struct {
	Prod []int64
	Cons []int64
}

// compilePair validates the quanta sets and compiles the pair as a
// two-task chain.
func compilePair(prod, cons taskgraph.QuantaSet) (*ChainCertifier, error) {
	if !prod.IsValid() || !cons.IsValid() {
		return nil, fmt.Errorf("exact: invalid quanta sets")
	}
	return compile([]taskgraph.QuantaSet{prod}, []taskgraph.QuantaSet{cons}, pairMaxStates), nil
}

// DeadlockFree reports whether the pair with the given capacity is
// deadlock-free under every quanta sequence, returning a witness otherwise.
//
// The adversary commits each firing's quantum when the previous firing of
// that task finishes — before knowing whether it will ever become startable
// — which is exactly the information structure of a fixed data-dependent
// sequence. (An adversary that could re-choose at start time would be
// weaker: it could escape deadlocks a fixed sequence runs into.) A state is
// stuck when both tasks are idle and their committed quanta exceed the
// available tokens. Zero-quantum firings transfer nothing and cannot
// unstick the peer, so the adversary never needs them and they are omitted.
func DeadlockFree(prod, cons taskgraph.QuantaSet, capacity int64) (bool, *Witness, error) {
	c, err := compilePair(prod, cons)
	if err != nil {
		return false, nil, err
	}
	if capacity <= 0 {
		return false, nil, fmt.Errorf("exact: capacity must be positive, got %d", capacity)
	}
	c.caps[0] = capacity
	stuck, err := c.run()
	if err != nil || stuck < 0 {
		return err == nil, nil, err
	}
	return false, &Witness{Prod: c.picks(stuck, 0, true), Cons: c.picks(stuck, 1, false)}, nil
}

// MinCapacity returns the exact minimum deadlock-free capacity of the pair,
// searching upwards from the largest single transfer. The untimed limit of
// Equation (4), π̂ + γ̂ − 1, is a guaranteed-sufficient upper bound, so the
// search always terminates. All capacities are probed on one compiled
// pair, reusing its state arena across probes.
func MinCapacity(prod, cons taskgraph.QuantaSet) (int64, error) {
	c, err := compilePair(prod, cons)
	if err != nil {
		return 0, err
	}
	lo := max(prod.Max(), cons.Max())
	hi := prod.Max() + cons.Max() - 1
	for z := lo; z <= hi; z++ {
		c.caps[0] = z
		stuck, err := c.run()
		if err != nil {
			return 0, err
		}
		if stuck < 0 {
			return z, nil
		}
	}
	// Unreachable if the upper bound argument holds; keep a defensive
	// return for malformed inputs.
	return 0, fmt.Errorf("exact: no deadlock-free capacity up to %d; this contradicts the Equation-4 bound", hi)
}

// positive returns the set's positive members (zero-quantum firings cannot
// affect reachability of a stuck state).
func positive(q taskgraph.QuantaSet) []int64 {
	vals := q.Values()
	out := vals[:0]
	for _, v := range vals {
		if v > 0 {
			out = append(out, v)
		}
	}
	return out
}
