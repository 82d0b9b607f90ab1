// Package capacity exercises the budgetloop analyzer on a minimal-period
// bisection whose probe closure must consult the caller's context.
package capacity

import "context"

func feasible(i int) bool { return i > 3 }

func minimalPeriodIgnoringContext(ctx context.Context, n int) int {
	_ = ctx // in scope, but the probe never consults it
	probe := func(i int) bool { return feasible(i) }
	lo, hi := 0, n
	for lo < hi { // want `unbudgeted loop: the body never consults a budget or context`
		mid := (lo + hi) / 2
		if probe(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func minimalPeriod(ctx context.Context, n int) (int, error) {
	probe := func(i int) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return feasible(i), nil
	}
	lo, hi := 0, n
	for lo < hi { // ok: the probe closure checks the context
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
