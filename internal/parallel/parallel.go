// Package parallel is the small, dependency-free worker-pool layer shared
// by the exploration paths of this library that simulate: the degradation
// sweeps of internal/faults and the verification fan-outs of the
// commands.
//
// Map is the only scheduling primitive: it evaluates an indexed pure
// function across a bounded pool of goroutines and returns the results in
// index order. Its error semantics deliberately mirror the serial loop it
// replaces — if any evaluation fails, the error returned is the one with
// the smallest index, regardless of goroutine scheduling — so callers can
// switch between Workers == 1 and Workers == GOMAXPROCS without observing
// different results. Those explorations are embarrassingly parallel
// (every probe is an independent pure computation); this package supplies
// the bound, the cancellation, the determinism and the panic isolation (a
// panicking worker is recovered into a *PanicError instead of killing the
// process), and nothing else.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalises a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0), the number of OS threads executing Go code.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// PanicError is a worker panic recovered by Map, carrying the panic value
// and the goroutine stack captured at the panic site. Map converts panics
// into errors so that one faulty evaluation cannot take down the process or
// leak the pool's goroutines; the stack makes the fault debuggable after
// the fact. Error names the panic value only, so the stack never leaks into
// a message shown to a client.
type PanicError struct {
	// Index is the evaluation index whose fn call panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the formatted stack of the panicking goroutine.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: evaluation %d panicked: %v", e.Index, e.Value)
}

// call evaluates fn(i), converting a panic into a *PanicError. Map runs
// every evaluation through it, so the worker goroutine survives and the
// pool's first-error semantics apply to panics exactly as they do to
// returned errors.
func call[T any](fn func(i int) (T, error), i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map evaluates fn(i) for every i in [0, n) using at most workers
// goroutines (<= 0 means GOMAXPROCS) and returns the n results in index
// order.
//
// Error semantics mirror a serial loop that stops at the first failure: if
// any evaluation fails, Map returns the error of the smallest failing
// index, every index below that one is guaranteed to have been evaluated,
// and indices above it may be skipped. A cancelled context is reported the
// same way, as the failure of the smallest unevaluated index. A panicking
// evaluation is recovered into a *PanicError carrying the stack and ranked
// like any other failure, so a panic neither crashes the process nor leaks
// a goroutine. fn must be safe for concurrent calls when more than one
// worker runs.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var firstBad atomic.Int64 // lowest failing index; n = no failure
	firstBad.Store(int64(n))
	fail := func(i int64, err error) {
		errs[i] = err
		for {
			cur := firstBad.Load()
			if i >= cur || firstBad.CompareAndSwap(cur, i) {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || i >= firstBad.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				v, err := call(fn, int(i))
				if err != nil {
					fail(i, err)
					continue
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	if bad := firstBad.Load(); bad < int64(n) {
		return nil, errs[bad]
	}
	return results, nil
}
