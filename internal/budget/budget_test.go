package budget

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestErrCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	if err := Classify(ctx.Err()); err != nil {
		t.Fatalf("Classify(ctx.Err()) before cancel = %v", err)
	}
	cancel()
	err := Classify(ctx.Err())
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("Classify(ctx.Err()) = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Classify(ctx.Err()) = %v, want to also satisfy context.Canceled", err)
	}
}

func TestErrBudgetExceeded(t *testing.T) {
	past, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := Classify(past.Err()); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("expired deadline Classify(ctx.Err()) = %v, want ErrBudgetExceeded", err)
	}
	future, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if err := Classify(future.Err()); err != nil {
		t.Errorf("future deadline Classify(ctx.Err()) = %v, want nil", err)
	}
}

// TestContextDeadlineClassifiesAsBudget pins the error text every surface
// reports for an exhausted wall-clock budget.
func TestContextDeadlineClassifiesAsBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	err := Classify(ctx.Err())
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("context past its deadline classified as %v, want ErrBudgetExceeded and context.DeadlineExceeded", err)
	}
	if want := "wall-clock budget exceeded: context deadline exceeded"; err.Error() != want {
		t.Errorf("message = %q, want %q", err.Error(), want)
	}
}

func TestClassify(t *testing.T) {
	if got := Classify(nil); got != nil {
		t.Errorf("Classify(nil) = %v", got)
	}
	if got := Classify(context.Canceled); !errors.Is(got, ErrCanceled) {
		t.Errorf("Classify(Canceled) = %v", got)
	}
	if got := Classify(context.DeadlineExceeded); !errors.Is(got, ErrBudgetExceeded) {
		t.Errorf("Classify(DeadlineExceeded) = %v", got)
	}
	// Already classified errors pass through unchanged (no double wrap).
	wrapped := fmt.Errorf("sim: %w", ErrCanceled)
	if got := Classify(wrapped); got != wrapped {
		t.Errorf("Classify(already classified) = %v, want identical", got)
	}
	other := errors.New("boom")
	if got := Classify(other); got != other {
		t.Errorf("Classify(other) = %v, want passthrough", got)
	}
}

func TestExhaustedKeepsMessageAndIdentity(t *testing.T) {
	inner := errors.New("sim: periodic phase hit the event cap after 300 events, before a verdict")
	err := Exhausted(inner)
	if err.Error() != inner.Error() {
		t.Errorf("message = %q, want %q", err.Error(), inner.Error())
	}
	if !errors.Is(err, ErrBudgetExceeded) || !errors.Is(err, inner) {
		t.Errorf("Exhausted(%v) loses an identity", inner)
	}
	if errors.Is(err, ErrCanceled) {
		t.Error("an exhausted budget must not read as a cancellation")
	}
	if Classify(err) != err {
		t.Error("Classify must pass an exhausted budget through unchanged")
	}
}
