package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := Map(context.Background(), workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if got, err := Map(context.Background(), 4, 0, func(int) (int, error) { return 0, nil }); err != nil || got != nil {
		t.Fatalf("n=0: got %v, %v", got, err)
	}
	got, err := Map(context.Background(), 4, 1, func(i int) (string, error) { return "x", nil })
	if err != nil || len(got) != 1 || got[0] != "x" {
		t.Fatalf("n=1: got %v, %v", got, err)
	}
}

// TestMapLowestIndexError pins the determinism contract: when several
// evaluations fail, Map reports the failure a serial loop would have hit
// first, not whichever goroutine lost the race.
func TestMapLowestIndexError(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		var evaluated [32]atomic.Bool
		_, err := Map(context.Background(), 8, 32, func(i int) (int, error) {
			evaluated[i].Store(true)
			// Make the higher-index failure finish first.
			if i == 19 {
				return 0, fmt.Errorf("fail at %d", i)
			}
			if i == 5 {
				time.Sleep(time.Millisecond)
				return 0, fmt.Errorf("fail at %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail at 5" {
			t.Fatalf("trial %d: err = %v, want fail at 5", trial, err)
		}
		for i := 0; i < 5; i++ {
			if !evaluated[i].Load() {
				t.Fatalf("trial %d: index %d below the failure was skipped", trial, i)
			}
		}
	}
}

func TestMapWorkerBound(t *testing.T) {
	var cur, peak atomic.Int64
	const workers = 3
	_, err := Map(context.Background(), workers, 50, func(i int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent evaluations, bound is %d", p, workers)
	}
}

func TestMapContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, 2, 1_000_000, func(i int) (int, error) {
			if ran.Add(1) == 10 {
				cancel()
			}
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not stop the pool")
	}
	if n := ran.Load(); n > 10_000 {
		t.Errorf("%d evaluations ran after cancellation", n)
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}
