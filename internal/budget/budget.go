// Package budget supplies the typed cancellation and wall-clock-budget
// errors shared by every long-running path of this library — the simulator
// event loop, the capacity searches of internal/minimize and the period
// sweeps of internal/capacity — together with a tiny cooperative checker.
//
// The paper's analyses are closed-form and fast, but the empirical side
// (50M-event simulations, coordinate-descent capacity searches) can run for
// a long time. A production sizing service must be able to walk away: every
// such path accepts a context.Context and an optional wall-clock deadline,
// checks them cooperatively (the simulator every few thousand events, the
// searches per probe) and returns ErrCanceled or ErrBudgetExceeded so
// callers can tell "the caller hung up" from "the time budget ran out" from
// a genuine analysis error.
package budget

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrCanceled reports that the caller's context was cancelled before the
// computation finished. Errors returned by this library that stem from a
// cancelled context satisfy errors.Is(err, ErrCanceled) as well as
// errors.Is(err, context.Canceled).
var ErrCanceled = errors.New("canceled")

// ErrBudgetExceeded reports that a wall-clock budget (an explicit deadline
// or a context deadline) ran out before the computation finished. Errors
// marked by Exhausted — another budget, such as a simulation's event cap,
// ran out — satisfy it too.
var ErrBudgetExceeded = errors.New("wall-clock budget exceeded")

// Exhausted marks err as a budget that ran out before the computation
// reached its answer, for budgets other than wall-clock time (a
// simulation's event cap). The result keeps err's message and satisfies
// errors.Is(·, ErrBudgetExceeded) as well as every identity err has.
func Exhausted(err error) error { return exhaustedError{err} }

type exhaustedError struct{ error }

func (e exhaustedError) Unwrap() []error { return []error{e.error, ErrBudgetExceeded} }

// Budget combines a context and an optional absolute wall-clock deadline
// into one cheap cooperative checker. The zero-cost unconstrained form is a
// nil *Budget: all methods are nil-safe and never trip.
type Budget struct {
	ctx      context.Context
	deadline time.Time
}

// At returns a budget enforcing ctx (nil means none) and, when deadline is
// non-zero, the wall-clock deadline. It returns nil — the valid, never
// tripping budget — when both are absent, so hot loops pay only a nil
// check.
func At(ctx context.Context, deadline time.Time) *Budget {
	if ctx == nil && deadline.IsZero() {
		return nil
	}
	return &Budget{ctx: ctx, deadline: deadline}
}

// New is At with a relative timeout: a non-positive timeout means no
// wall-clock bound.
func New(ctx context.Context, timeout time.Duration) *Budget {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	return At(ctx, deadline)
}

// Err reports whether the budget still holds: nil while it does,
// ErrCanceled once the context is cancelled, ErrBudgetExceeded once the
// deadline (or the context's own deadline) has passed. Safe on a nil
// receiver.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if b.ctx != nil {
		if err := b.ctx.Err(); err != nil {
			return Classify(err)
		}
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return ErrBudgetExceeded
	}
	return nil
}

// Deadline returns the absolute wall-clock deadline and whether one is set
// (directly or through the context). Safe on a nil receiver.
func (b *Budget) Deadline() (time.Time, bool) {
	if b == nil {
		return time.Time{}, false
	}
	d, ok := b.deadline, !b.deadline.IsZero()
	if b.ctx != nil {
		if cd, cok := b.ctx.Deadline(); cok && (!ok || cd.Before(d)) {
			d, ok = cd, true
		}
	}
	return d, ok
}

// Context returns the budget's context, never nil. Safe on a nil receiver.
func (b *Budget) Context() context.Context {
	if b == nil || b.ctx == nil {
		return context.Background()
	}
	return b.ctx
}

// Classify maps the raw context errors onto the typed sentinels, wrapping so
// both identities remain visible to errors.Is: context.Canceled becomes
// ErrCanceled, context.DeadlineExceeded becomes ErrBudgetExceeded. Errors
// already classified, and errors of any other kind, pass through unchanged.
func Classify(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCanceled) || errors.Is(err, ErrBudgetExceeded):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrBudgetExceeded, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	default:
		return err
	}
}
