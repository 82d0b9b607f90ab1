// Package sdf implements classical Synchronous Dataflow analysis for
// constant-rate graphs: repetition vectors via the balance equations,
// consistency checking, an iteration-level deadlock check, and self-timed
// throughput measurement.
//
// This is the world the paper's related work lives in ([10] Sriram &
// Bhattacharyya, [11] Stuijk et al., [14] Wiggers et al. 2006): every actor
// transfers a fixed number of tokens per firing, so a finite repetition
// vector and a periodic schedule exist, and buffer capacities can be
// derived from them. The paper's contribution is exactly the case this
// package rejects — data-dependent rates, where no repetition vector
// exists because the balance equations change every firing.
//
// On constant-rate edges it is the exact rung of the oracle ladder that
// checks Equation (4): AnalyticPeriod on an isolated credit loop gives the
// exact minimum capacity of each constant edge of the §5 MP3 chain
// (TestExactMinimaOfConstantMP3Edges).
//
// An SDF graph is represented as a vrdf.Graph whose quanta sets are all
// singletons; IsSDF checks the restriction.
package sdf

import (
	"fmt"
	"sort"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/vrdf"
)

// IsSDF reports whether every edge of g has constant production and
// consumption quanta, returning a descriptive error otherwise.
func IsSDF(g *vrdf.Graph) error {
	for _, e := range g.Edges() {
		if !e.Prod.IsConstant() {
			return fmt.Errorf("sdf: edge %s has variable production quanta %v; SDF requires constant rates (use the VRDF analysis instead)", e.Name, e.Prod)
		}
		if !e.Cons.IsConstant() {
			return fmt.Errorf("sdf: edge %s has variable consumption quanta %v; SDF requires constant rates (use the VRDF analysis instead)", e.Name, e.Cons)
		}
		if e.Prod.Max() == 0 || e.Cons.Max() == 0 {
			return fmt.Errorf("sdf: edge %s has a zero rate; SDF rates must be positive", e.Name)
		}
	}
	return nil
}

// RepetitionVector solves the balance equations q(src)·π(e) = q(dst)·γ(e)
// for every edge and returns the smallest positive integer solution per
// weakly connected component. It fails if the graph is inconsistent (the
// equations admit only the zero solution) or not constant-rate.
func RepetitionVector(g *vrdf.Graph) (map[string]int64, error) {
	if err := IsSDF(g); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Assign each actor a rational multiplier by graph traversal, then
	// scale the component to the smallest integer vector.
	frac := make(map[string]ratio.Rat, len(g.Actors()))
	adj := make(map[string][]*vrdf.Edge)
	for _, e := range g.Edges() {
		adj[e.Src] = append(adj[e.Src], e)
		adj[e.Dst] = append(adj[e.Dst], e)
	}
	for _, start := range g.Actors() {
		if _, seen := frac[start.Name]; seen {
			continue
		}
		frac[start.Name] = ratio.One
		stack := []string{start.Name}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range adj[n] {
				// q(src)·prod = q(dst)·cons.
				prod := ratio.FromInt(e.Prod.Max())
				cons := ratio.FromInt(e.Cons.Max())
				var other string
				var want ratio.Rat
				if e.Src == n {
					other = e.Dst
					want = frac[n].Mul(prod).Div(cons)
				} else {
					other = e.Src
					want = frac[n].Mul(cons).Div(prod)
				}
				if have, seen := frac[other]; seen {
					if !have.Equal(want) {
						return nil, fmt.Errorf("sdf: graph is inconsistent: actor %s requires rate %v via edge %s but %v via another path", other, want, e.Name, have)
					}
					continue
				}
				frac[other] = want
				stack = append(stack, other)
			}
		}
	}
	// Scale to integers: multiply by the LCM of denominators, divide by
	// the GCD of numerators (per connected component; for simplicity we
	// scale globally, which keeps each component minimal when the graph
	// is connected — the usual case after Validate).
	lcm := int64(1)
	for _, f := range frac {
		lcm = ratio.LCM(lcm, f.Den())
	}
	q := make(map[string]int64, len(frac))
	gcd := int64(0)
	for name, f := range frac {
		v := f.MulInt(lcm).Num()
		q[name] = v
		gcd = ratio.GCD(gcd, v)
	}
	if gcd > 1 {
		for name := range q {
			q[name] /= gcd
		}
	}
	return q, nil
}

// IterationTokens returns, per edge, the net token change after one
// complete iteration (every actor fires its repetition count). For a
// consistent graph this is zero on every edge — the defining property.
func IterationTokens(g *vrdf.Graph, q map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(g.Edges()))
	for _, e := range g.Edges() {
		out[e.Name] = q[e.Src]*e.Prod.Max() - q[e.Dst]*e.Cons.Max()
	}
	return out
}

// DeadlockInfo describes why an iteration cannot complete.
type DeadlockInfo struct {
	// Fired holds the firing counts reached before the deadlock.
	Fired map[string]int64
	// Blocked names the actors that still owe firings, with the first
	// edge lacking tokens.
	Blocked []string
}

// CheckDeadlockFree verifies that one complete iteration can execute from
// the initial token distribution — the classical SDF liveness check: if one
// iteration completes, the token distribution returns to the initial state
// and execution can repeat forever. Returns nil when deadlock-free.
//
// The check is untimed: it greedily fires any actor that is enabled and has
// not exhausted its repetition count. Greedy order is irrelevant because
// firings in SDF are persistent (an enabled firing stays enabled until
// taken).
func CheckDeadlockFree(g *vrdf.Graph, q map[string]int64) *DeadlockInfo {
	tokens := make(map[string]int64, len(g.Edges()))
	for _, e := range g.Edges() {
		tokens[e.Name] = e.Initial
	}
	fired := make(map[string]int64, len(g.Actors()))
	remaining := int64(0)
	for _, a := range g.Actors() {
		remaining += q[a.Name]
	}
	for remaining > 0 {
		progress := false
		for _, a := range g.Actors() {
			for fired[a.Name] < q[a.Name] {
				ok := true
				for _, e := range g.In(a.Name) {
					if tokens[e.Name] < e.Cons.Max() {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
				for _, e := range g.In(a.Name) {
					tokens[e.Name] -= e.Cons.Max()
				}
				for _, e := range g.Out(a.Name) {
					tokens[e.Name] += e.Prod.Max()
				}
				fired[a.Name]++
				remaining--
				progress = true
			}
		}
		if !progress {
			info := &DeadlockInfo{Fired: fired}
			for _, a := range g.Actors() {
				if fired[a.Name] < q[a.Name] {
					info.Blocked = append(info.Blocked, a.Name)
				}
			}
			sort.Strings(info.Blocked)
			return info
		}
	}
	return nil
}

// IterationLength returns the total number of firings in one iteration.
func IterationLength(q map[string]int64) int64 {
	var n int64
	for _, v := range q {
		n += v
	}
	return n
}
