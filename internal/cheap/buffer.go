// Package cheap implements a C-HEAP-style runtime: real circular FIFO
// buffers and tasks running as goroutines, following the communication
// protocol the paper's task model abstracts (Nieuwland et al., "C-HEAP",
// reference [8] of the paper).
//
// A buffer holds a fixed number of containers. The producer acquires empty
// containers before it starts an execution and commits them (now full) when
// it finishes; the consumer acquires full containers at the start of an
// execution and releases them (empty again) at the finish. This is exactly
// the timing of the VRDF model: space is consumed at the producer's start,
// data appears at its finish; data is consumed at the consumer's start,
// space reappears at its finish. The capacity computed by the analysis is
// the number of containers that makes this protocol deadlock-free and fast
// enough — which this package lets you validate in a genuinely concurrent
// execution (run the tests with -race).
//
// It is the goroutine rung of the oracle ladder that checks Equation (4):
// beside the closed form (internal/capacity), the exact constant-edge
// minima (internal/sdf) and the discrete-event simulator (internal/sim),
// TestPipelineVariableRates runs the Figure-1 pair at the capacity
// capacity.Compute returns, on real goroutines and blocking buffers.
//
// Buffers are single-producer single-consumer, as in a task-graph chain.
package cheap

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by blocking operations after Close.
var ErrClosed = errors.New("cheap: buffer closed")

// Buffer is a bounded circular FIFO of containers carrying values of type
// T. The zero value is unusable; call NewBuffer.
type Buffer[T any] struct {
	mu    sync.Mutex
	data  *sync.Cond // signalled when full containers appear
	space *sync.Cond // signalled when empty containers appear

	ring []T
	head int // index of the oldest full container
	full int // committed, unread containers
	free int // containers available to claim
	// claimed: acquired by the producer, not yet committed.
	// held: read by the consumer, space not yet released.
	claimed int
	held    int
	closed  bool
}

// NewBuffer returns a buffer with the given capacity in containers.
func NewBuffer[T any](capacity int) (*Buffer[T], error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cheap: capacity must be positive, got %d", capacity)
	}
	b := &Buffer[T]{
		ring: make([]T, capacity),
		free: capacity,
	}
	b.data = sync.NewCond(&b.mu)
	b.space = sync.NewCond(&b.mu)
	return b, nil
}

// Capacity returns the buffer's capacity in containers.
func (b *Buffer[T]) Capacity() int { return len(b.ring) }

// AcquireSpace blocks until n empty containers are claimable, then claims
// them. Call at the start of a producer execution.
func (b *Buffer[T]) AcquireSpace(n int) error {
	if err := b.checkQuantum(n); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.free < n && !b.closed {
		b.space.Wait()
	}
	if b.closed {
		return ErrClosed
	}
	b.free -= n
	b.claimed += n
	return nil
}

// CommitData publishes values into previously claimed containers. Call at
// the finish of a producer execution; len(vals) must not exceed the
// outstanding claim.
func (b *Buffer[T]) CommitData(vals []T) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if len(vals) > b.claimed {
		return fmt.Errorf("cheap: committing %d containers with only %d claimed", len(vals), b.claimed)
	}
	cap := len(b.ring)
	tail := (b.head + b.full) % cap
	for _, v := range vals {
		b.ring[tail] = v
		tail = (tail + 1) % cap
	}
	b.claimed -= len(vals)
	b.full += len(vals)
	b.data.Broadcast()
	return nil
}

// AcquireData blocks until n full containers are present, then removes and
// returns their values in FIFO order. Call at the start of a consumer
// execution. The containers stay occupied until ReleaseSpace.
func (b *Buffer[T]) AcquireData(n int) ([]T, error) {
	if err := b.checkQuantum(n); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.full < n && !b.closed {
		b.data.Wait()
	}
	if b.closed {
		return nil, ErrClosed
	}
	out := make([]T, n)
	cap := len(b.ring)
	for i := 0; i < n; i++ {
		out[i] = b.ring[(b.head+i)%cap]
	}
	b.head = (b.head + n) % cap
	b.full -= n
	b.held += n
	return out, nil
}

// ReleaseSpace returns n previously read containers to the free pool. Call
// at the finish of a consumer execution.
func (b *Buffer[T]) ReleaseSpace(n int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	if n > b.held {
		return fmt.Errorf("cheap: releasing %d containers with only %d held", n, b.held)
	}
	b.held -= n
	b.free += n
	b.space.Broadcast()
	return nil
}

// Close wakes every blocked operation with ErrClosed. Idempotent.
func (b *Buffer[T]) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.data.Broadcast()
	b.space.Broadcast()
}

// Stats returns a consistent snapshot of the container accounting.
func (b *Buffer[T]) Stats() (full, free, claimed, held int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.full, b.free, b.claimed, b.held
}

func (b *Buffer[T]) checkQuantum(n int) error {
	if n < 0 {
		return fmt.Errorf("cheap: negative quantum %d", n)
	}
	if n > len(b.ring) {
		return fmt.Errorf("cheap: quantum %d exceeds capacity %d; the transfer can never complete", n, len(b.ring))
	}
	return nil
}
