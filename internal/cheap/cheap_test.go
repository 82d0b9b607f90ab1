package cheap

import (
	"sync"
	"testing"
	"time"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

func TestBufferFIFOWrapAround(t *testing.T) {
	b, err := NewBuffer[int](3)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	push := func(n int) {
		t.Helper()
		if err := b.AcquireSpace(n); err != nil {
			t.Fatal(err)
		}
		vals := make([]int, n)
		for i := range vals {
			vals[i] = next
			next++
		}
		if err := b.CommitData(vals); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	pop := func(n int) {
		t.Helper()
		vals, err := b.AcquireData(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if v != want {
				t.Fatalf("got %d, want %d", v, want)
			}
			want++
		}
		if err := b.ReleaseSpace(n); err != nil {
			t.Fatal(err)
		}
	}
	// Drive the ring through several wrap-arounds with mixed quanta.
	push(2)
	pop(1)
	push(2)
	pop(3)
	push(3)
	pop(2)
	pop(1)
	if want != 7 {
		t.Fatalf("consumed %d values", want)
	}
	full, free, claimed, held := b.Stats()
	if full != 0 || free != 3 || claimed != 0 || held != 0 {
		t.Errorf("stats after drain: full=%d free=%d claimed=%d held=%d", full, free, claimed, held)
	}
}

func TestBufferAccountingInvariant(t *testing.T) {
	b, err := NewBuffer[byte](5)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		full, free, claimed, held := b.Stats()
		if full+free+claimed+held != 5 {
			t.Fatalf("invariant broken: %d+%d+%d+%d != 5", full, free, claimed, held)
		}
	}
	check()
	if err := b.AcquireSpace(3); err != nil {
		t.Fatal(err)
	}
	check()
	if err := b.CommitData([]byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	check() // one container still claimed
	if _, err := b.AcquireData(2); err != nil {
		t.Fatal(err)
	}
	check()
	if err := b.ReleaseSpace(1); err != nil {
		t.Fatal(err)
	}
	check()
}

func TestBufferRejectsProtocolViolations(t *testing.T) {
	b, err := NewBuffer[int](4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBuffer[int](0); err == nil {
		t.Error("zero capacity accepted")
	}
	if err := b.AcquireSpace(5); err == nil {
		t.Error("quantum above capacity accepted")
	}
	if err := b.AcquireSpace(-1); err == nil {
		t.Error("negative quantum accepted")
	}
	if err := b.CommitData([]int{1}); err == nil {
		t.Error("commit without claim accepted")
	}
	if err := b.ReleaseSpace(1); err == nil {
		t.Error("release without hold accepted")
	}
}

func TestBufferBlocksAndUnblocks(t *testing.T) {
	b, err := NewBuffer[int](2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AcquireSpace(2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Blocks until the consumer releases.
		done <- b.AcquireSpace(1)
	}()
	select {
	case err := <-done:
		t.Fatalf("AcquireSpace returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := b.CommitData([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AcquireData(1); err != nil {
		t.Fatal(err)
	}
	if err := b.ReleaseSpace(1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("unblocked AcquireSpace failed: %v", err)
	}
}

func TestBufferCloseWakesWaiters(t *testing.T) {
	b, err := NewBuffer[int](1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := b.AcquireData(1)
		errs <- err
	}()
	go func() {
		defer wg.Done()
		if err := b.AcquireSpace(1); err != nil {
			errs <- err
			return
		}
		errs <- b.AcquireSpace(1) // second acquire blocks, then closes
	}()
	time.Sleep(20 * time.Millisecond)
	b.Close()
	b.Close() // idempotent
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != ErrClosed {
			t.Errorf("waiter got %v, want ErrClosed", err)
		}
	}
}

func TestPipelineIdentityPreservesOrder(t *testing.T) {
	// Three-stage identity pipeline: the sink must observe 0, 1, 2, …
	// exactly once each, whatever the interleaving.
	const n = 5000
	var mu sync.Mutex
	var seen []int64
	stages := []Stage[int64]{
		{
			Name: "src",
			Prod: quanta.Constant(1),
			Work: func(k int64, _ []int64) []int64 { return []int64{k} },
		},
		{
			Name: "mid",
			Cons: quanta.Constant(1),
			Prod: quanta.Constant(1),
			Work: func(_ int64, in []int64) []int64 { return in },
		},
		{
			Name: "snk",
			Cons: quanta.Constant(1),
			Work: func(_ int64, in []int64) []int64 {
				mu.Lock()
				seen = append(seen, in...)
				mu.Unlock()
				return nil
			},
		},
	}
	p, err := NewPipeline(stages, []int64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(n); err != nil {
		t.Fatal(err)
	}
	if p.SinkFired() != n {
		t.Fatalf("sink fired %d, want %d", p.SinkFired(), n)
	}
	if len(seen) != n {
		t.Fatalf("sink saw %d values, want %d", len(seen), n)
	}
	for i, v := range seen {
		if v != int64(i) {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
}

func TestPipelineVariableRates(t *testing.T) {
	// The paper's Figure-1 pair on a real concurrent runtime: producer
	// emits 3 per firing, consumer takes 2 or 3 per firing. The buffer
	// gets the capacity Equation (4) computes for τ = 3; the run must
	// complete with the values in order.
	g, err := taskgraph.Pair("wa", ratio.FromInt(1), "wb", ratio.FromInt(1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := capacity.Compute(g, taskgraph.Constraint{Task: "wb", Period: ratio.FromInt(3)}, capacity.PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Fatalf("Equation 4 infeasible: %v", res.Diagnostics)
	}
	var mu sync.Mutex
	var got []int64
	next := int64(0)
	stages := []Stage[int64]{
		{
			Name: "wa",
			Prod: quanta.Constant(3),
			Work: func(k int64, _ []int64) []int64 {
				out := []int64{next, next + 1, next + 2}
				next += 3
				return out
			},
		},
		{
			Name: "wb",
			Cons: quanta.Cycle(2, 3),
			Work: func(_ int64, in []int64) []int64 {
				mu.Lock()
				got = append(got, in...)
				mu.Unlock()
				return nil
			},
		},
	}
	size := res.Buffers[0].Capacity
	p, err := NewPipeline(stages, []int64{size})
	if err != nil {
		t.Fatal(err)
	}
	// An insufficient capacity stalls the goroutines rather than
	// erroring, so a stall fails the test instead of hanging it.
	done := make(chan error, 1)
	go func() { done <- p.Run(400) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		for _, b := range p.buffers {
			b.Close()
		}
		<-done
		t.Fatalf("capacity %d stalled after %d sink firings", size, p.SinkFired())
	}
	// 400 firings of the 2,3 cycle consume 200·5 = 1000 values.
	if len(got) != 1000 {
		t.Fatalf("consumed %d values, want 1000", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
}

func TestPipelineDeadlockDetectedByStall(t *testing.T) {
	// Capacity 3 with the all-2 consumption pattern deadlocks (the
	// paper's motivating example) — the pipeline makes no progress.
	stages := []Stage[int64]{
		{Name: "wa", Prod: quanta.Constant(3)},
		{Name: "wb", Cons: quanta.Constant(2), Work: func(_ int64, _ []int64) []int64 { return nil }},
	}
	p, err := NewPipeline(stages, []int64{3})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(100) }()
	select {
	case err := <-done:
		t.Fatalf("deadlocked pipeline completed: %v (sink fired %d)", err, p.SinkFired())
	case <-time.After(200 * time.Millisecond):
	}
	// Exactly one consumer firing is possible (3 produced, 2 consumed,
	// then wa lacks space and wb lacks data).
	if f := p.SinkFired(); f > 1 {
		t.Errorf("sink fired %d times before stalling, want at most 1", f)
	}
	// Unblock and drain the goroutines.
	for _, b := range p.buffers {
		b.Close()
	}
	<-done
}

func TestPipelineValidation(t *testing.T) {
	mk := func() []Stage[int] {
		return []Stage[int]{
			{Name: "a", Prod: quanta.Constant(1)},
			{Name: "b", Cons: quanta.Constant(1)},
		}
	}
	if _, err := NewPipeline(mk()[:1], nil); err == nil {
		t.Error("single stage accepted")
	}
	if _, err := NewPipeline(mk(), []int64{}); err == nil {
		t.Error("capacity count mismatch accepted")
	}
	bad := mk()
	bad[0].Cons = quanta.Constant(1)
	if _, err := NewPipeline(bad, []int64{2}); err == nil {
		t.Error("consuming source accepted")
	}
	bad = mk()
	bad[1].Prod = quanta.Constant(1)
	if _, err := NewPipeline(bad, []int64{2}); err == nil {
		t.Error("producing sink accepted")
	}
	p, err := NewPipeline(mk(), []int64{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(0); err == nil {
		t.Error("zero firings accepted")
	}
}

func TestPipelineWorkQuantumMismatch(t *testing.T) {
	stages := []Stage[int]{
		{
			Name: "src",
			Prod: quanta.Constant(2),
			Work: func(int64, []int) []int { return []int{1} }, // wrong: 1 != 2
		},
		{Name: "snk", Cons: quanta.Constant(2), Work: func(int64, []int) []int { return nil }},
	}
	p, err := NewPipeline(stages, []int64{4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10); err == nil {
		t.Error("quantum mismatch not reported")
	}
}
