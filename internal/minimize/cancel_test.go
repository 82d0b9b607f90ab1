package minimize

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
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

func TestSearchCanceled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := figure1Graph(t)
	o := Options{Context: ctx}
	check := DeadlockFreeCheck(g, "wb", 200, []sim.Workloads{
		{buf: {Cons: quanta.Cycle(2, 3)}},
	}, o)
	_, err := Search([]string{buf}, map[string]int64{buf: 20}, check, o)
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to also satisfy context.Canceled", err)
	}
	noLeakedGoroutines(t, before)
}

func TestSearchCanceledMidSearch(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := figure1Graph(t)
	// Cancel from inside the CheckFunc after a few probes; the search
	// must stop with the typed error instead of completing.
	probes := 0
	inner := DeadlockFreeCheck(g, "wb", 200, []sim.Workloads{
		{buf: {Cons: quanta.Cycle(2, 3)}},
	}, Options{Context: ctx})
	check := func(caps map[string]int64) (bool, error) {
		if probes++; probes == 2 {
			cancel()
		}
		return inner(caps)
	}
	_, err := Search([]string{buf}, map[string]int64{buf: 1 << 20}, check, Options{Context: ctx})
	if !errors.Is(err, budget.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	noLeakedGoroutines(t, before)
}

func TestSearchDeadlineExceeded(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	g := figure1Graph(t)
	o := Options{Context: ctx}
	check := DeadlockFreeCheck(g, "wb", 200, []sim.Workloads{
		{buf: {Cons: quanta.Cycle(2, 3)}},
	}, o)
	_, err := Search([]string{buf}, map[string]int64{buf: 20}, check, o)
	if !errors.Is(err, budget.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	noLeakedGoroutines(t, before)
}

// TestSearchBudgetedMatchesUnbudgeted pins that a generous budget changes
// nothing: same assignment, same probe counts.
func TestSearchBudgetedMatchesUnbudgeted(t *testing.T) {
	g := figure1Graph(t)
	run := func(o Options) *Result {
		t.Helper()
		c := taskgraph.Constraint{Task: "wb", Period: r(3, 1)}
		check := ThroughputCheck(g, c, 100, []sim.Workloads{
			{buf: {Cons: quanta.Cycle(2, 3)}},
		}, o)
		res, err := Search([]string{buf}, map[string]int64{buf: 20}, check, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	plain := run(Options{})
	budgeted := run(Options{Context: ctx})
	if plain.Caps[buf] != budgeted.Caps[buf] || plain.Checks != budgeted.Checks {
		t.Errorf("budgeted search diverged: %+v vs %+v", plain, budgeted)
	}
}
