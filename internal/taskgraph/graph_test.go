package taskgraph_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// graphSizes are task counts on both sides of the size at which a graph
// starts indexing names: the buffer index starts one task later than the
// task index, since a chain has one buffer fewer.
var graphSizes = []int{1, 2, taskgraph.SmallGraph, taskgraph.SmallGraph + 1, taskgraph.SmallGraph + 2, 4 * taskgraph.SmallGraph}

// addChain builds an n-task chain with AddTask and AddBuffer, in document
// order when shuffled is false and with the tasks added in reverse order
// when it is true.
func addChain(t testing.TB, n int, shuffled bool) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.New()
	for i := range n {
		if shuffled {
			i = n - 1 - i
		}
		if _, err := g.AddTask(fmt.Sprintf("t%d", i), ratio.MustNew(int64(i+1), 7)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		b := taskgraph.Buffer{Producer: fmt.Sprintf("t%d", i-1), Consumer: fmt.Sprintf("t%d", i),
			Prod: taskgraph.MustQuanta(int64(i)), Cons: taskgraph.MustQuanta(1, int64(i+1))}
		if _, err := g.AddBuffer(b); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestLookupBothSidesOfIndex checks Task, BufferByName, the duplicate
// checks and Chain on graphs that scan and graphs that index, and that a
// clone's index is its own.
func TestLookupBothSidesOfIndex(t *testing.T) {
	for _, n := range graphSizes {
		g := addChain(t, n, n%2 == 0)
		wantTasks, wantBuffers := len(g.Tasks()) > taskgraph.SmallGraph, len(g.Buffers()) > taskgraph.SmallGraph
		if tasks, buffers := g.Indexed(); tasks != wantTasks || buffers != wantBuffers {
			t.Errorf("n=%d: indexed tasks %v, buffers %v; want %v, %v", n, tasks, buffers, wantTasks, wantBuffers)
		}
		c := g.Clone()
		for _, h := range []*taskgraph.Graph{g, c} {
			for _, tk := range h.Tasks() {
				if h.Task(tk.Name) != tk {
					t.Fatalf("n=%d: Task(%q) is not the task added", n, tk.Name)
				}
				if _, err := h.AddTask(tk.Name, ratio.One); err == nil || !strings.Contains(err.Error(), "duplicate task") {
					t.Fatalf("n=%d: re-adding task %q: %v", n, tk.Name, err)
				}
			}
			for _, b := range h.Buffers() {
				if h.BufferByName(b.Name) != b {
					t.Fatalf("n=%d: BufferByName(%q) is not the buffer added", n, b.Name)
				}
				if _, err := h.AddBuffer(*b); err == nil || !strings.Contains(err.Error(), "duplicate buffer") {
					t.Fatalf("n=%d: re-adding buffer %q: %v", n, b.Name, err)
				}
			}
			if h.Task("missing") != nil || h.BufferByName("t0->missing") != nil {
				t.Fatalf("n=%d: lookup of a missing name found an element", n)
			}
			tasks, buffers, err := h.Chain()
			if err != nil || len(tasks) != n || len(buffers) != n-1 {
				t.Fatalf("n=%d: Chain = %d tasks, %d buffers, %v", n, len(tasks), len(buffers), err)
			}
			for i, tk := range tasks {
				if tk.Name != fmt.Sprintf("t%d", i) || h.Task(tk.Name) != tk {
					t.Fatalf("n=%d: chain task %d is %q", n, i, tk.Name)
				}
			}
		}
		if _, err := c.AddTask("extra", ratio.One); err != nil {
			t.Fatal(err)
		}
		if g.Task("extra") != nil || c.Task("extra") == nil {
			t.Errorf("n=%d: a task added to the clone is found in the original, or not in the clone", n)
		}
	}
}

// TestChainDerivedOnce checks that Chain and ChainFor hand out the same
// slices on every call, and that they are the insertion-order views when
// the graph was built in chain order.
func TestChainDerivedOnce(t *testing.T) {
	for _, shuffled := range []bool{false, true} {
		g := addChain(t, 6, shuffled)
		t1, b1, _ := g.Chain()
		t2, b2, _ := g.ChainFor("t5")
		if &t1[0] != &t2[0] || &b1[0] != &b2[0] {
			t.Errorf("shuffled=%v: ChainFor derived the chain again", shuffled)
		}
		if inOrder := &t1[0] == &g.Tasks()[0] && &b1[0] == &g.Buffers()[0]; inOrder == shuffled {
			t.Errorf("shuffled=%v: chain shares the insertion-order views: %v", shuffled, inOrder)
		}
		if cap(t1) != len(t1) || cap(b1) != len(b1) {
			t.Errorf("shuffled=%v: chain slices have spare capacity an append could write to", shuffled)
		}
	}
}

// TestAddAfterChainInvalidates checks that AddTask and AddBuffer after
// Chain make the next Chain see the graph as it now is.
func TestAddAfterChainInvalidates(t *testing.T) {
	for _, n := range graphSizes {
		g := addChain(t, n, false)
		if _, _, err := g.Chain(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		one := taskgraph.MustQuanta(1)
		// A task with no buffer disconnects the graph.
		if _, err := g.AddTask("x", ratio.One); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Chain(); err == nil || !strings.Contains(err.Error(), "not weakly connected") {
			t.Fatalf("n=%d: Chain after AddTask: %v, want not weakly connected", n, err)
		}
		// Linking it to the sink extends the chain.
		sink := fmt.Sprintf("t%d", n-1)
		if _, err := g.AddBuffer(taskgraph.Buffer{Producer: sink, Consumer: "x", Prod: one, Cons: one}); err != nil {
			t.Fatal(err)
		}
		if tasks, _, err := g.ChainFor("x"); err != nil || len(tasks) != n+1 || tasks[n].Name != "x" {
			t.Fatalf("n=%d: ChainFor(x) after extending: %d tasks, %v", n, len(tasks), err)
		}
		if err := (taskgraph.Constraint{Task: sink, Period: ratio.One}).Validate(g); n > 1 && err == nil {
			t.Fatalf("n=%d: the old sink, now a middle task, still validates as a constraint target", n)
		}
		// A second output buffer on the old sink makes it a fork.
		if _, err := g.AddTask("y", ratio.One); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddBuffer(taskgraph.Buffer{Producer: sink, Consumer: "y", Prod: one, Cons: one}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := g.Chain(); err == nil || !strings.Contains(err.Error(), "output buffers") {
			t.Fatalf("n=%d: Chain after a second output buffer: %v, want output buffers", n, err)
		}
	}
}

// snapshot copies a graph's elements, so a later change to any of them
// shows.
type snapshot struct {
	tasks   []taskgraph.Task
	buffers []taskgraph.Buffer
	ptrs    []any
	key     string
}

func snap(g *taskgraph.Graph) snapshot {
	s := snapshot{key: probecache.GraphKey(g)}
	for _, tk := range g.Tasks() {
		s.tasks, s.ptrs = append(s.tasks, *tk), append(s.ptrs, tk)
	}
	for _, b := range g.Buffers() {
		s.buffers, s.ptrs = append(s.buffers, *b), append(s.ptrs, b)
	}
	return s
}

func (s snapshot) check(t *testing.T, what string, g *taskgraph.Graph) {
	t.Helper()
	now := snap(g)
	if now.key != s.key || len(now.ptrs) != len(s.ptrs) {
		t.Fatalf("%s: the graph changed", what)
	}
	for i := range s.ptrs {
		if now.ptrs[i] != s.ptrs[i] {
			t.Fatalf("%s: element %d moved", what, i)
		}
	}
	for i := range s.tasks {
		if now.tasks[i] != s.tasks[i] {
			t.Fatalf("%s: task %d is %+v, was %+v", what, i, now.tasks[i], s.tasks[i])
		}
	}
	for i := range s.buffers {
		if a, b := now.buffers[i], s.buffers[i]; a.Name != b.Name || a.Producer != b.Producer || a.Consumer != b.Consumer ||
			!a.Prod.Equal(b.Prod) || !a.Cons.Equal(b.Cons) || a.Capacity != b.Capacity || a.ContainerBytes != b.ContainerBytes {
			t.Fatalf("%s: buffer %d is %+v, was %+v", what, i, a, b)
		}
	}
}

// grow adds a task and a buffer from the chain's sink to it, then resizes
// every buffer and slows every task.
func grow(t *testing.T, g *taskgraph.Graph, name string) {
	t.Helper()
	sink, err := g.Sink()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddTask(name, ratio.One); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddBuffer(taskgraph.Buffer{Producer: sink.Name, Consumer: name, Prod: taskgraph.MustQuanta(2), Cons: taskgraph.MustQuanta(3)}); err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Buffers() {
		b.Capacity = 99
	}
	for _, tk := range g.Tasks() {
		tk.WCRT = ratio.FromInt(5)
	}
}

// TestCloneIndependent checks that growing or resizing a clone leaves the
// original's elements, capacities and GraphKey unchanged, and the other
// way round: no backing array, spare capacity or index is shared.
func TestCloneIndependent(t *testing.T) {
	for _, n := range graphSizes {
		for _, growClone := range []bool{true, false} {
			// Most sizes leave spare slots in the original's newest
			// backing arrays, which the clone must not write to.
			g := addChain(t, n, false)
			c := g.Clone()
			kept, changed := g, c
			if !growClone {
				kept, changed = c, g
			}
			before := snap(kept)
			grow(t, changed, "z")
			grow(t, changed, "zz")
			before.check(t, fmt.Sprintf("n=%d, grew the clone: %v", n, growClone), kept)
			if kept.Task("z") != nil || kept.BufferByName("z->zz") != nil {
				t.Fatalf("n=%d: the untouched graph finds an element added to the other", n)
			}
			if tasks, _, err := changed.Chain(); err != nil || len(tasks) != n+2 {
				t.Fatalf("n=%d: the grown graph's chain: %d tasks, %v", n, len(tasks), err)
			}
			if tasks, _, err := kept.Chain(); err != nil || len(tasks) != n {
				t.Fatalf("n=%d: the untouched graph's chain: %d tasks, %v", n, len(tasks), err)
			}
		}
	}
}

// TestSharedGraphConcurrentReads calls every reading method from many
// goroutines on one graph, as a service shares a parsed graph and its
// sized copy across concurrent searches. The first Chain call races with
// the others, so the chain is derived under contention. Run it with
// -race.
func TestSharedGraphConcurrentReads(t *testing.T) {
	for _, n := range []int{4, 4 * taskgraph.SmallGraph} {
		for _, shuffled := range []bool{false, true} {
			g := addChain(t, n, shuffled)
			ref := addChain(t, n, shuffled) // an unshared twin gives the expected answers
			wantTasks, wantBuffers, err := ref.Chain()
			if err != nil {
				t.Fatal(err)
			}
			sink := wantTasks[n-1].Name
			wantKey := probecache.GraphKey(ref)
			var wg sync.WaitGroup
			for w := range 8 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range 50 {
						tasks, buffers, err := g.Chain()
						if err != nil || len(tasks) != n || len(buffers) != n-1 {
							t.Errorf("worker %d: Chain = %d tasks, %d buffers, %v", w, len(tasks), len(buffers), err)
							return
						}
						for j := range tasks {
							if tasks[j].Name != wantTasks[j].Name || j < n-1 && buffers[j].Name != wantBuffers[j].Name {
								t.Errorf("worker %d: chain element %d differs", w, j)
								return
							}
						}
						if _, _, err := g.ChainFor(sink); err != nil {
							t.Errorf("worker %d: ChainFor: %v", w, err)
							return
						}
						if err := (taskgraph.Constraint{Task: sink, Period: ratio.One}).Validate(g); err != nil {
							t.Errorf("worker %d: Validate: %v", w, err)
							return
						}
						k := (w + i) % n
						if tk := g.Task(fmt.Sprintf("t%d", k)); tk == nil || tk.Name != fmt.Sprintf("t%d", k) {
							t.Errorf("worker %d: Task(t%d) = %v", w, k, tk)
							return
						}
						if k > 0 && g.BufferByName(fmt.Sprintf("t%d->t%d", k-1, k)) == nil {
							t.Errorf("worker %d: BufferByName(t%d->t%d) = nil", w, k-1, k)
							return
						}
						c := g.Clone()
						if key := probecache.GraphKey(c); key != wantKey {
							t.Errorf("worker %d: clone's GraphKey differs", w)
							return
						}
						if _, _, err := c.Chain(); err != nil {
							t.Errorf("worker %d: clone's Chain: %v", w, err)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestLargeGraphLinear builds and derives a chain far past the size at
// which names are indexed and checks the graph's allocations per element:
// one default name per buffer, plus what the name indexes take to grow
// (a few per thousand names); backing arrays and views grow by doubling,
// never per element. A scan per lookup would make building such a chain
// quadratic, so the index must be on.
func TestLargeGraphLinear(t *testing.T) {
	const n = 1 << 14
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	one := taskgraph.MustQuanta(1)
	var g *taskgraph.Graph
	allocs := countAllocs(func() {
		g = taskgraph.New()
		for _, name := range names {
			if _, err := g.AddTask(name, ratio.One); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < n; i++ {
			if _, err := g.AddBuffer(taskgraph.Buffer{Producer: names[i-1], Consumer: names[i], Prod: one, Cons: one}); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := g.Chain(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("building a %d-task chain: %d allocations", n, allocs)
	if limit := uint64(n-1) + n/16; allocs > limit {
		t.Errorf("building a %d-task chain: %d allocations, want at most %d (one name per buffer and n/16 for growth)", n, allocs, limit)
	}
	if tasks, buffers := g.Indexed(); !tasks || !buffers {
		t.Errorf("a %d-task chain is not indexed: tasks %v, buffers %v", n, tasks, buffers)
	}
	for i, name := range names {
		if g.Task(name) != g.Tasks()[i] {
			t.Fatalf("Task(%q) is not task %d", name, i)
		}
	}
}

// countAllocs returns the heap allocations f makes.
func countAllocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
