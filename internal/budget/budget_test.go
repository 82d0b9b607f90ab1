package budget

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNilBudgetNeverTrips(t *testing.T) {
	var b *Budget
	if err := b.Err(); err != nil {
		t.Errorf("nil budget Err() = %v", err)
	}
	if _, ok := b.Deadline(); ok {
		t.Error("nil budget reports a deadline")
	}
	if b.Context() == nil {
		t.Error("nil budget Context() is nil")
	}
	if At(nil, time.Time{}) != nil {
		t.Error("At with no constraints should return the nil budget")
	}
	if New(nil, 0) != nil {
		t.Error("New with no constraints should return the nil budget")
	}
}

func TestErrCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := At(ctx, time.Time{})
	if err := b.Err(); err != nil {
		t.Fatalf("Err() before cancel = %v", err)
	}
	cancel()
	err := b.Err()
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("Err() = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want to also satisfy context.Canceled", err)
	}
}

func TestErrBudgetExceeded(t *testing.T) {
	b := At(nil, time.Now().Add(-time.Second))
	if err := b.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("expired deadline Err() = %v, want ErrBudgetExceeded", err)
	}
	if err := At(nil, time.Now().Add(time.Hour)).Err(); err != nil {
		t.Errorf("future deadline Err() = %v, want nil", err)
	}
}

func TestContextDeadlineClassifiesAsBudget(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := At(ctx, time.Time{}).Err()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("context past its deadline Err() = %v, want ErrBudgetExceeded", err)
	}
}

func TestDeadlineMergesContextDeadline(t *testing.T) {
	far := time.Now().Add(time.Hour)
	near := time.Now().Add(time.Minute)
	ctx, cancel := context.WithDeadline(context.Background(), near)
	defer cancel()
	d, ok := At(ctx, far).Deadline()
	if !ok || !d.Equal(near) {
		t.Errorf("Deadline() = %v, %v; want the earlier context deadline %v", d, ok, near)
	}
	d, ok = At(nil, far).Deadline()
	if !ok || !d.Equal(far) {
		t.Errorf("Deadline() = %v, %v; want explicit deadline %v", d, ok, far)
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
