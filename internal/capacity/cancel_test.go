package capacity

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/ratio"
)

func noLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

func sweepPeriodList() []ratio.Rat {
	out := make([]ratio.Rat, 0, 64)
	for i := int64(1); i <= 64; i++ {
		out = append(out, r(i, 4))
	}
	return out
}

func TestSweepCanceled(t *testing.T) {
	g := sweepPair(t)
	for _, workers := range []int{1, 0} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := SweepPeriodsOpt(g, "wb", sweepPeriodList(), PolicyEquation4,
			SweepOptions{Parallel: workers, Context: ctx})
		if !errors.Is(err, budget.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		noLeakedGoroutines(t, before)
	}
}

func TestSweepDeadlineExceeded(t *testing.T) {
	g := sweepPair(t)
	for _, workers := range []int{1, 0} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		_, err := SweepPeriodsOpt(g, "wb", sweepPeriodList(), PolicyEquation4,
			SweepOptions{Parallel: workers, Context: ctx})
		cancel()
		if !errors.Is(err, budget.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err = %v, want ErrBudgetExceeded", workers, err)
		}
		noLeakedGoroutines(t, before)
	}
}

// TestMinimalFeasiblePeriodCanceled pins that the minimal-period search
// consults its context on every probe: a cancelled context and a passed
// deadline stop it with the typed errors before it analyses a period.
func TestMinimalFeasiblePeriodCanceled(t *testing.T) {
	g := sweepPair(t)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"canceled", canceled, budget.ErrCanceled},
		{"deadline", expired, budget.ErrBudgetExceeded},
	} {
		_, err := MinimalFeasiblePeriodOpt(g, "wb", sweepPeriodList(), PolicyEquation4, SweepOptions{Context: tc.ctx})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSweepBudgetedMatchesUnbudgeted pins that an unexpired budget does not
// perturb the curve.
func TestSweepBudgetedMatchesUnbudgeted(t *testing.T) {
	g := sweepPair(t)
	periods := sweepPeriodList()
	plain, err := SweepPeriods(g, "wb", periods, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	budgeted, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i].Valid != budgeted[i].Valid || plain[i].Total != budgeted[i].Total {
			t.Errorf("point %d diverged: %+v vs %+v", i, plain[i], budgeted[i])
		}
	}
}
