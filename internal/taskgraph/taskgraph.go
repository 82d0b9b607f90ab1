// Package taskgraph implements the task model of Wiggers et al. (DATE 2008),
// §3.1: a weakly connected directed graph T = (W, B, ξ, λ, κ, ζ) whose
// vertices are tasks and whose arcs are circular FIFO buffers.
//
// A task only starts an execution when the previous execution has finished,
// its input buffer holds sufficient full containers and its output buffer
// holds sufficient empty containers for the whole execution (back-pressure;
// the C-HEAP execution condition). The number of containers transferred may
// differ per execution and is drawn from the finite sets ξ(b) (production)
// and λ(b) (consumption). κ(w) is the worst-case response time of task w
// under its run-time arbiter, and ζ(b) is the capacity of buffer b.
//
// The analysis of the paper — and therefore this library's capacity
// computation — is restricted to chains: every task has at most one input
// buffer and at most one output buffer, and the throughput constraint is
// placed on the task without output buffers (the sink) or the task without
// input buffers (the source).
package taskgraph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"

	"vrdfcap/internal/ratio"
)

// Task is a node of the task graph.
type Task struct {
	// Name identifies the task; unique within a graph.
	Name string
	// WCRT is the worst-case response time κ(w): the maximum difference
	// between the time sufficient containers are present to enable an
	// execution and the time that execution finishes. Must be positive.
	WCRT ratio.Rat
}

// Buffer is a circular FIFO buffer b_ab over which task Producer sends data
// to task Consumer.
type Buffer struct {
	// Name identifies the buffer; unique within a graph. Optional on
	// input: an empty name is replaced by "producer->consumer".
	Name string
	// Producer and Consumer name the communicating tasks.
	Producer string
	Consumer string
	// Prod is ξ(b): the set of possible production quanta per execution
	// of the producer (equals the number of empty containers the producer
	// requires before starting).
	Prod QuantaSet
	// Cons is λ(b): the set of possible consumption quanta per execution
	// of the consumer.
	Cons QuantaSet
	// Capacity is ζ(b), in containers. Zero means "not yet computed".
	Capacity int64
	// ContainerBytes is the fixed size of one container in bytes ("all
	// containers in a buffer have a fixed size", §3.1); optional (zero
	// means unspecified) and used only for memory reporting:
	// memory = ζ(b) · ContainerBytes.
	ContainerBytes int64
}

// DefaultName returns the buffer's name, or "producer->consumer" when unset.
func (b Buffer) DefaultName() string {
	if b.Name != "" {
		return b.Name
	}
	return b.Producer + "->" + b.Consumer
}

// Graph is a task graph. Build one with New and the Add methods; Chain (or
// ChainFor, for a constrained task) checks the paper's chain restriction
// and returns the chain in source-to-sink order.
//
// Tasks and buffers live in backing arrays the graph grows by doubling, so
// a small graph costs a few allocations and no element ever moves: every
// pointer the graph hands out stays valid for its life. Capacities,
// response times and quanta may be changed through those pointers; names,
// producers and consumers may not, since the name index and the derived
// chain are keyed by them. Every method but AddTask and AddBuffer may be
// called from any number of goroutines at once, so a built graph can be
// shared.
type Graph struct {
	tasks   []*Task   // insertion order
	buffers []*Buffer // insertion order
	// taskFree and bufferFree are the unused tails of the newest backing
	// arrays; each added element takes the first slot of its tail.
	taskFree   []Task
	bufferFree []Buffer
	// taskIdx and bufferIdx map names to indices once the graph holds more
	// than smallGraph elements of that kind; until then lookups scan,
	// which is cheaper than hashing at that size.
	taskIdx   map[string]int32
	bufferIdx map[string]int32
	// chainOnce derives chain on first use; AddTask and AddBuffer reset
	// it, so the chain reflects the graph as last built.
	chainOnce sync.Once
	chain     derivedChain
}

// smallGraph is the element count up to which names are found by a scan
// and Chain's scratch lives on the stack.
const smallGraph = 16

// derivedChain is Chain's result, derived once per built graph.
type derivedChain struct {
	tasks   []*Task
	buffers []*Buffer
	err     error
}

// New returns an empty task graph.
func New() *Graph { return &Graph{} }

// AddTask adds a task with the given name and worst-case response time.
// The name must not hold Unicode white space or '#', which the text
// format uses as separator and comment mark.
func (g *Graph) AddTask(name string, wcrt ratio.Rat) (*Task, error) {
	if name == "" {
		return nil, fmt.Errorf("taskgraph: empty task name")
	}
	if strings.IndexFunc(name, breaksName) >= 0 {
		return nil, fmt.Errorf("taskgraph: task %q: name must not contain white space or '#'", name)
	}
	if g.taskIndex(name) >= 0 {
		return nil, fmt.Errorf("taskgraph: duplicate task %q", name)
	}
	if wcrt.Sign() <= 0 {
		return nil, fmt.Errorf("taskgraph: task %q: worst-case response time must be positive, got %v", name, wcrt)
	}
	// The first backing array holds four tasks, a short chain.
	var t *Task
	g.tasks, g.taskFree, t = place(g.tasks, g.taskFree, 4, Task{Name: name, WCRT: wcrt})
	g.taskIdx = indexed(g.taskIdx, g.tasks, func(t *Task) string { return t.Name })
	g.chainOnce = sync.Once{}
	return t, nil
}

// breaksName reports whether r may not appear in a task name.
func breaksName(r rune) bool { return r == '#' || unicode.IsSpace(r) }

// AddBuffer adds a buffer from producer to consumer with production quanta
// prod (ξ) and consumption quanta cons (λ). Both tasks must already exist.
func (g *Graph) AddBuffer(b Buffer) (*Buffer, error) {
	if g.taskIndex(b.Producer) < 0 {
		return nil, fmt.Errorf("taskgraph: buffer %q: unknown producer %q", b.DefaultName(), b.Producer)
	}
	if g.taskIndex(b.Consumer) < 0 {
		return nil, fmt.Errorf("taskgraph: buffer %q: unknown consumer %q", b.DefaultName(), b.Consumer)
	}
	if b.Producer == b.Consumer {
		return nil, fmt.Errorf("taskgraph: buffer %q: self loop on %q", b.DefaultName(), b.Producer)
	}
	if !b.Prod.IsValid() {
		return nil, fmt.Errorf("taskgraph: buffer %q: invalid production quanta", b.DefaultName())
	}
	if !b.Cons.IsValid() {
		return nil, fmt.Errorf("taskgraph: buffer %q: invalid consumption quanta", b.DefaultName())
	}
	if b.Capacity < 0 {
		return nil, fmt.Errorf("taskgraph: buffer %q: negative capacity %d", b.DefaultName(), b.Capacity)
	}
	if b.ContainerBytes < 0 {
		return nil, fmt.Errorf("taskgraph: buffer %q: negative container size %d", b.DefaultName(), b.ContainerBytes)
	}
	b.Name = b.DefaultName()
	if g.bufferIndex(b.Name) >= 0 {
		return nil, fmt.Errorf("taskgraph: duplicate buffer %q", b.Name)
	}
	// A chain of n tasks has n-1 buffers, so the first backing array is
	// sized for that.
	var nb *Buffer
	g.buffers, g.bufferFree, nb = place(g.buffers, g.bufferFree, len(g.tasks)-1, b)
	g.bufferIdx = indexed(g.bufferIdx, g.buffers, func(b *Buffer) string { return b.Name })
	g.chainOnce = sync.Once{}
	return nb, nil
}

// place stores e in the first free slot and appends its address to view.
// When free is empty it allocates a backing array of max(len(view), hint,
// 1) slots, doubling the storage, and grows view's capacity to match, so
// elements never move and view grows once per backing array.
func place[E any](view []*E, free []E, hint int, e E) ([]*E, []E, *E) {
	if len(free) == 0 {
		n := max(len(view), hint, 1)
		free = make([]E, n)
		view = slices.Grow(view, n)
	}
	free[0] = e
	return append(view, &free[0]), free[1:], &free[0]
}

// indexed returns the name index of view after its last element was
// added: idx with that element recorded, or, once view holds more than
// smallGraph elements, a new index of all of them.
func indexed[E any](idx map[string]int32, view []*E, name func(*E) string) map[string]int32 {
	switch n := len(view); {
	case idx != nil:
		idx[name(view[n-1])] = int32(n - 1)
	case n > smallGraph:
		idx = make(map[string]int32, 2*n)
		for i, e := range view {
			idx[name(e)] = int32(i)
		}
	}
	return idx
}

// taskIndex returns the index of the named task, or -1.
func (g *Graph) taskIndex(name string) int {
	if g.taskIdx != nil {
		if i, ok := g.taskIdx[name]; ok {
			return int(i)
		}
		return -1
	}
	for i, t := range g.tasks {
		if t.Name == name {
			return i
		}
	}
	return -1
}

// bufferIndex returns the index of the named buffer, or -1.
func (g *Graph) bufferIndex(name string) int {
	if g.bufferIdx != nil {
		if i, ok := g.bufferIdx[name]; ok {
			return int(i)
		}
		return -1
	}
	for i, b := range g.buffers {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// Task returns the task with the given name, or nil.
func (g *Graph) Task(name string) *Task {
	if i := g.taskIndex(name); i >= 0 {
		return g.tasks[i]
	}
	return nil
}

// BufferByName returns the buffer with the given name, or nil.
func (g *Graph) BufferByName(name string) *Buffer {
	if i := g.bufferIndex(name); i >= 0 {
		return g.buffers[i]
	}
	return nil
}

// Tasks returns the tasks in insertion order. The slice is shared; callers
// must not modify it.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Buffers returns the buffers in insertion order. The slice is shared;
// callers must not modify it.
func (g *Graph) Buffers() []*Buffer { return g.buffers }

// Chain returns the tasks ordered from source to sink and the buffers in the
// same order (buffer i connects task i to task i+1). It is the one place
// that decides whether a graph is a chain in the sense of the paper: it
// fails on an empty graph, on a task with a second input or output buffer,
// on a cycle and on a graph that is not weakly connected.
//
// The chain is derived once per built graph and shared: the slices must
// not be modified, and repeated calls allocate nothing. Where the
// insertion order is the chain order, the slices are Tasks and Buffers.
func (g *Graph) Chain() (tasks []*Task, buffers []*Buffer, err error) {
	g.chainOnce.Do(g.deriveChain)
	return g.chain.tasks, g.chain.buffers, g.chain.err
}

// deriveChain makes one pass over the buffers and one walk from the
// source, so it is linear in the graph. With at most one input and one
// output buffer per task, the walk from a task without input can neither
// revisit a task nor leave the tasks it reaches connected to any other, so
// the walk reaching every task is the proof of connectivity and of the
// absence of cycles.
func (g *Graph) deriveChain() {
	g.chain = derivedChain{}
	n := len(g.tasks)
	if n == 0 {
		g.chain.err = fmt.Errorf("taskgraph: graph has no tasks")
		return
	}
	// links[i] describes task i: its input and output buffers as buffer
	// index + 1 (0 when absent) and the consumer task of its output.
	type link struct{ in, out, next int }
	var stack [smallGraph]link
	links := stack[:]
	if n > len(stack) {
		links = make([]link, n)
	}
	links = links[:n]
	for i, b := range g.buffers {
		p, c := g.taskIndex(b.Producer), g.taskIndex(b.Consumer)
		if prev := links[p].out; prev != 0 {
			g.chain.err = fmt.Errorf("taskgraph: task %q has output buffers %q and %q; chains allow at most one",
				b.Producer, g.buffers[prev-1].Name, b.Name)
			return
		}
		if prev := links[c].in; prev != 0 {
			g.chain.err = fmt.Errorf("taskgraph: task %q has input buffers %q and %q; chains allow at most one",
				b.Consumer, g.buffers[prev-1].Name, b.Name)
			return
		}
		links[p].out, links[p].next = i+1, c
		links[c].in = i + 1
	}
	src := -1
	for i := range links {
		if links[i].in == 0 {
			src = i
			break
		}
	}
	if src < 0 {
		g.chain.err = fmt.Errorf("taskgraph: every task has an input buffer, so the graph has a cycle")
		return
	}
	// The first walk counts the tasks reached and checks whether the
	// chain visits tasks and buffers in insertion order.
	reached, inOrder := 0, true
	for cur := src; ; reached++ {
		out := links[cur].out
		inOrder = inOrder && cur == reached && (out == 0 || out-1 == reached)
		if out == 0 {
			break
		}
		cur = links[cur].next
	}
	if reached+1 != n {
		g.chain.err = fmt.Errorf("taskgraph: graph is not weakly connected")
		return
	}
	if inOrder {
		g.chain.tasks, g.chain.buffers = g.tasks[:n:n], g.buffers[:n-1:n-1]
		return
	}
	tasks := make([]*Task, 0, n)
	buffers := make([]*Buffer, 0, n-1)
	for cur := src; ; {
		tasks = append(tasks, g.tasks[cur])
		out := links[cur].out
		if out == 0 {
			break
		}
		buffers = append(buffers, g.buffers[out-1])
		cur = links[cur].next
	}
	g.chain.tasks, g.chain.buffers = tasks, buffers
}

// ChainFor returns the chain like Chain, for an analysis constrained on
// task: the task must exist and be the chain's source or its sink (§4.3,
// §4.4).
func (g *Graph) ChainFor(task string) (tasks []*Task, buffers []*Buffer, err error) {
	if g.Task(task) == nil {
		return nil, nil, fmt.Errorf("taskgraph: constraint on unknown task %q", task)
	}
	if tasks, buffers, err = g.Chain(); err != nil {
		return nil, nil, err
	}
	if src, sink := tasks[0].Name, tasks[len(tasks)-1].Name; task != src && task != sink {
		return nil, nil, fmt.Errorf("taskgraph: constrained task %q must be the chain's source %q or sink %q",
			task, src, sink)
	}
	return tasks, buffers, nil
}

// Source returns the unique task without input buffers in a valid chain.
func (g *Graph) Source() (*Task, error) {
	tasks, _, err := g.Chain()
	if err != nil {
		return nil, err
	}
	return tasks[0], nil
}

// Sink returns the unique task without output buffers in a valid chain.
func (g *Graph) Sink() (*Task, error) {
	tasks, _, err := g.Chain()
	if err != nil {
		return nil, err
	}
	return tasks[len(tasks)-1], nil
}

// Clone returns a deep copy of the graph. Capacities are copied too, so a
// clone can be resized without disturbing the original. The copy's
// elements fill one exactly sized backing array per kind, so the clone
// and the original share no storage.
func (g *Graph) Clone() *Graph {
	return &Graph{
		tasks:     cloneElems(g.tasks),
		buffers:   cloneElems(g.buffers),
		taskIdx:   maps.Clone(g.taskIdx),
		bufferIdx: maps.Clone(g.bufferIdx),
	}
}

// cloneElems copies the elements of view into one new backing array and
// returns their addresses in the same order.
func cloneElems[E any](view []*E) []*E {
	elems := make([]E, len(view))
	out := make([]*E, len(view))
	for i, e := range view {
		elems[i] = *e
		out[i] = &elems[i]
	}
	return out
}

// Constraint is a throughput requirement: the named task must execute
// strictly periodically with the given period. In a chain the paper requires
// the constrained task to be the sink or the source.
type Constraint struct {
	// Task names the throughput-determining task (vτ in the paper).
	Task string
	// Period is the required strict period τ between consecutive starts.
	// Must be positive.
	Period ratio.Rat
}

// Validate checks the constraint against the chain graph: the period must
// be positive, and the task must exist and be the chain's sink or source.
func (c Constraint) Validate(g *Graph) error {
	if err := CheckPeriod(c.Period); err != nil {
		return err
	}
	_, _, err := g.ChainFor(c.Task)
	return err
}

// CheckPeriod checks that tau is a valid constraint period: positive.
func CheckPeriod(tau ratio.Rat) error {
	if tau.Sign() <= 0 {
		return fmt.Errorf("taskgraph: constraint period must be positive, got %v", tau)
	}
	return nil
}

// SortedTaskNames returns all task names in lexical order; handy for
// deterministic reporting.
func (g *Graph) SortedTaskNames() []string {
	names := make([]string, 0, len(g.tasks))
	for _, t := range g.tasks {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}
