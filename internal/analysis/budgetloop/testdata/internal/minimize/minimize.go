// Package minimize exercises the budgetloop analyzer inside a core package
// (matched by final import-path element): unbounded loops with and without
// budget checks, probe-shaped range loops, waivers.
package minimize

import (
	"context"

	"fixtures/internal/budget"
)

func simulate(x int) int { return x }
func plain(x int) int    { return x }

func probeUnder(ctx context.Context, x int) bool { return x > 0 }

// --- flagged ---

func unbudgetedBinarySearch(lo, hi int) int {
	for lo < hi { // want `unbudgeted loop: the body never consults a budget or context`
		mid := (lo + hi) / 2
		if plain(mid) > 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func unbudgetedInfinite() {
	for { // want `unbudgeted loop: the body never consults a budget or context`
		if plain(1) > 0 {
			return
		}
	}
}

func unbudgetedProbeRange(periods []int) int {
	total := 0
	for _, p := range periods { // want `unbudgeted loop: the body never consults a budget or context`
		total += simulate(p)
	}
	return total
}

// --- allowed: budget or context consulted ---

func budgetedSearch(ctx context.Context, lo, hi int) int {
	for lo < hi { // ok: checks the context
		if ctx.Err() != nil {
			return lo
		}
		lo++
	}
	return lo
}

func budgetedByDelegation(ctx context.Context, lo, hi int) int {
	for lo < hi { // ok: hands the context to the callee
		if probeUnder(ctx, lo) {
			return lo
		}
		lo++
	}
	return lo
}

func budgetPackageCall(errs []error) int {
	i := 0
	for { // ok: calls into package budget
		if budget.Classify(errs[i]) != nil {
			return i
		}
		i++
	}
}

func contextLoop(ctx context.Context) {
	for { // ok: checks the context
		if ctx.Err() != nil {
			return
		}
	}
}

func closureProbe(ctx context.Context, lo, hi int) int {
	probe := func(x int) bool {
		if ctx.Err() != nil {
			return false
		}
		return plain(x) > 0
	}
	for lo < hi { // ok: the local probe closure checks the budget
		if probe(lo) {
			return lo
		}
		lo++
	}
	return lo
}

func boundedThreeClause(periods []int) int {
	total := 0
	for i := 0; i < len(periods); i++ { // ok: three-clause loops are bounded
		total += periods[i]
	}
	return total
}

func plainRange(periods []int) int {
	total := 0
	for _, p := range periods { // ok: no probe-shaped call in the body
		total += p
	}
	return total
}

// --- waivers ---

func waived(lo, hi int) int {
	//vrdf:unbudgeted(bisection over a 64-bit range terminates in 64 steps)
	for lo < hi { // ok: waived with a reason
		lo = (lo + hi + 1) / 2
	}
	return lo
}

func waiverNeedsReason(lo, hi int) int {
	//vrdf:unbudgeted() // want `vrdf:unbudgeted waiver needs a reason`
	for lo < hi {
		lo++
	}
	return lo
}
