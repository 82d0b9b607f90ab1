// Package budget supplies the typed cancellation and budget errors shared
// by every long-running path of this library: the simulator event loop,
// the capacity searches of internal/minimize and the period sweeps of
// internal/capacity and internal/faults.
//
// The paper's analyses are closed-form and fast, but the empirical side
// (50M-event simulations, coordinate-descent capacity searches) can run for
// a long time. A production sizing service must be able to walk away, so
// every such path takes a context.Context, the one carrier of both
// cancellation and a wall-clock budget (context.WithTimeout). The paths
// poll ctx.Err() cooperatively (the simulator every few thousand events,
// the searches per probe, the sweeps per period) and pass what they find
// through Classify, so callers can tell "the caller hung up" (ErrCanceled)
// from "the time budget ran out" (ErrBudgetExceeded) from a genuine
// analysis error.
package budget

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled reports that the caller's context was cancelled before the
// computation finished. Errors returned by this library that stem from a
// cancelled context satisfy errors.Is(err, ErrCanceled) as well as
// errors.Is(err, context.Canceled).
var ErrCanceled = errors.New("canceled")

// ErrBudgetExceeded reports that a wall-clock budget (a context deadline)
// ran out before the computation finished. Errors marked by Exhausted —
// another budget, such as a simulation's event cap, ran out — satisfy it
// too.
var ErrBudgetExceeded = errors.New("wall-clock budget exceeded")

// Exhausted marks err as a budget that ran out before the computation
// reached its answer, for budgets other than wall-clock time (a
// simulation's event cap). The result keeps err's message and satisfies
// errors.Is(·, ErrBudgetExceeded) as well as every identity err has.
func Exhausted(err error) error { return exhaustedError{err} }

type exhaustedError struct{ error }

func (e exhaustedError) Unwrap() []error { return []error{e.error, ErrBudgetExceeded} }

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
