package capacity

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
)

// countdownCtx is a context whose Err trips after a fixed number of budget
// checks, so a sweep can be canceled deterministically mid-flight — after
// some periods have been analysed and recorded, but before all of them.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} {
	// The sweep's budget checks use Err, not Done; an always-open channel
	// keeps parallel.Map's select from racing ahead of the countdown.
	return nil
}

// TestSweepCanceledWarmCacheReusable is the satellite contract: verdicts
// recorded by a sweep that was canceled mid-flight stay reusable and
// correct — a later sweep and minimal-period search against the same cache
// return exactly what a cold run returns.
func TestSweepCanceledWarmCacheReusable(t *testing.T) {
	g := sweepPair(t)
	periods := sweepPeriodList()
	cache := probecache.NewPeriods()

	_, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4,
		SweepOptions{Parallel: 1, Context: newCountdownCtx(17), Cache: cache})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	warmed := cache.Len()
	if warmed == 0 || warmed >= len(periods) {
		t.Fatalf("canceled sweep recorded %d verdicts, want a strict mid-flight subset of %d", warmed, len(periods))
	}

	// The partially warmed cache must not perturb a full re-sweep.
	cold, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i].Valid != warm[i].Valid || cold[i].Total != warm[i].Total {
			t.Errorf("point %d diverged after cancel+resume: %+v vs %+v", i, cold[i], warm[i])
		}
	}

	// And the minimal-period search over the warm cache agrees with the
	// cold ground truth.
	wantPt, err := MinimalFeasiblePeriodOpt(g, "wb", periods, PolicyEquation4, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gotPt, err := MinimalFeasiblePeriodOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !gotPt.Period.Equal(wantPt.Period) || gotPt.Total != wantPt.Total {
		t.Errorf("warm minimal period = (%v, %d), want (%v, %d)",
			gotPt.Period, gotPt.Total, wantPt.Period, wantPt.Total)
	}
}

// TestMinimalFeasiblePeriodReusesSweepVerdicts is the bugfix contract:
// after a SweepPeriods over the candidates, MinimalFeasiblePeriod on the
// same shared cache answers every probe from recorded verdicts instead of
// re-analysing them.
func TestMinimalFeasiblePeriodReusesSweepVerdicts(t *testing.T) {
	g := sweepPair(t)
	periods := sweepPeriodList()
	cache := probecache.NewPeriods()
	if _, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := cache.Counters()
	pt, err := MinimalFeasiblePeriodOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Counters()
	if misses != missesBefore {
		t.Errorf("minimal-period search re-analysed %d already-swept periods", misses-missesBefore)
	}
	if hits == 0 {
		t.Error("minimal-period search hit the cache zero times")
	}
	want, err := MinimalFeasiblePeriodOpt(g, "wb", periods, PolicyEquation4, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Period.Equal(want.Period) || pt.Total != want.Total || pt.Valid != want.Valid {
		t.Errorf("cached search returned (%v, %d), want (%v, %d)", pt.Period, pt.Total, want.Period, want.Total)
	}
	if pt.Result == nil || pt.Result.TotalCapacity() != pt.Total {
		t.Error("cached search returned no materialised Result")
	}
}

// TestMinimalFeasiblePeriodSharedDefault pins how callers share period
// verdicts now that there is no process-wide default: a sweep and a later
// minimal-period search that each fetch the probecache.Store entry under
// SweepKey get one Periods, so the search after the sweep is pure cache
// hits.
func TestMinimalFeasiblePeriodSharedDefault(t *testing.T) {
	g := sweepPair(t)
	var periods []ratio.Rat
	for i := int64(1); i <= 32; i++ {
		periods = append(periods, r(i*7, 13))
	}
	store := probecache.NewStore("")
	periodsOf := func() *probecache.Periods {
		return store.Entry(SweepKey(g, "wb", PolicyEquation4)).Periods()
	}
	if _, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: periodsOf()}); err != nil {
		t.Fatal(err)
	}
	_, missesBefore := periodsOf().Counters()
	pt, err := MinimalFeasiblePeriodOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: periodsOf()})
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := periodsOf().Counters(); misses != missesBefore {
		t.Errorf("search re-analysed %d periods after a sweep through the same store entry", misses-missesBefore)
	}
	want, err := MinimalFeasiblePeriod(g, "wb", periods, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Period.Equal(want.Period) || pt.Total != want.Total {
		t.Errorf("shared-cache search = (%v, %d), want (%v, %d)", pt.Period, pt.Total, want.Period, want.Total)
	}
}

// TestMinimalFeasiblePeriodMatchesLinearScan cross-checks the binary
// search against the exhaustive scan on seeded random chains, cached and
// uncached.
func TestMinimalFeasiblePeriodMatchesLinearScan(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := graphgen.Defaults(seed + 40)
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var periods []ratio.Rat
		for k := int64(2); k < 18; k++ {
			periods = append(periods, c.Period.MulInt(k).DivInt(8))
		}
		pts, err := SweepPeriodsOpt(g, c.Task, periods, PolicyEquation4, SweepOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var want *SweepPoint
		for i := range pts {
			if pts[i].Valid {
				want = &pts[i]
				break
			}
		}
		for _, opts := range []SweepOptions{{}, {Cache: probecache.NewPeriods()}} {
			got, err := MinimalFeasiblePeriodOpt(g, c.Task, periods, PolicyEquation4, opts)
			if want == nil {
				if err == nil {
					t.Fatalf("seed %d: no candidate is feasible but search returned %v", seed, got.Period)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !got.Period.Equal(want.Period) || got.Total != want.Total {
				t.Fatalf("seed %d: binary search = (%v, %d), linear scan = (%v, %d)",
					seed, got.Period, got.Total, want.Period, want.Total)
			}
		}
	}
}

// TestSweepHealsPoisonedCache pins the advisory-cache contract: a wrong
// verdict planted in the cache cannot change a sweep's points (each point
// is recomputed) and is overwritten by the fresh verdict.
func TestSweepHealsPoisonedCache(t *testing.T) {
	g := sweepPair(t)
	periods := sweepPeriodList()
	cache := probecache.NewPeriods()
	poisoned := periods[10]
	cache.Insert(poisoned, probecache.Verdict{Valid: false, Total: -1})

	pts, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i].Valid != pts[i].Valid || cold[i].Total != pts[i].Total {
			t.Errorf("point %d poisoned: %+v vs %+v", i, pts[i], cold[i])
		}
	}
	if v, ok := cache.Lookup(poisoned); !ok || v.Total == -1 {
		t.Errorf("poisoned verdict not healed: %+v, %v", v, ok)
	}
}
