package capacity

import (
	"context"
	"errors"
	"testing"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/ratio"
)

func sweepPeriodList() []ratio.Rat {
	out := make([]ratio.Rat, 0, 64)
	for i := int64(1); i <= 64; i++ {
		out = append(out, r(i, 4))
	}
	return out
}

func TestSweepCanceled(t *testing.T) {
	g := sweepPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SweepPeriodsOpt(g, "wb", sweepPeriodList(), PolicyEquation4, SweepOptions{Context: ctx})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestSweepDeadlineExceeded(t *testing.T) {
	g := sweepPair(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := SweepPeriodsOpt(g, "wb", sweepPeriodList(), PolicyEquation4, SweepOptions{Context: ctx})
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestMinimalFeasiblePeriodCanceled pins that the minimal-period query
// consults its context before deciding: a cancelled context and a passed
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
