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
	"sort"

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
type Graph struct {
	tasks   []*Task
	taskIdx map[string]int // task name → index in tasks
	buffers []*Buffer
	bufByN  map[string]*Buffer
}

// New returns an empty task graph.
func New() *Graph {
	return &Graph{
		taskIdx: make(map[string]int),
		bufByN:  make(map[string]*Buffer),
	}
}

// AddTask adds a task with the given name and worst-case response time.
func (g *Graph) AddTask(name string, wcrt ratio.Rat) (*Task, error) {
	if name == "" {
		return nil, fmt.Errorf("taskgraph: empty task name")
	}
	if _, dup := g.taskIdx[name]; dup {
		return nil, fmt.Errorf("taskgraph: duplicate task %q", name)
	}
	if wcrt.Sign() <= 0 {
		return nil, fmt.Errorf("taskgraph: task %q: worst-case response time must be positive, got %v", name, wcrt)
	}
	t := &Task{Name: name, WCRT: wcrt}
	g.taskIdx[name] = len(g.tasks)
	g.tasks = append(g.tasks, t)
	return t, nil
}

// AddBuffer adds a buffer from producer to consumer with production quanta
// prod (ξ) and consumption quanta cons (λ). Both tasks must already exist.
func (g *Graph) AddBuffer(b Buffer) (*Buffer, error) {
	if _, ok := g.taskIdx[b.Producer]; !ok {
		return nil, fmt.Errorf("taskgraph: buffer %q: unknown producer %q", b.DefaultName(), b.Producer)
	}
	if _, ok := g.taskIdx[b.Consumer]; !ok {
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
	nb := b // copy
	nb.Name = b.DefaultName()
	if _, dup := g.bufByN[nb.Name]; dup {
		return nil, fmt.Errorf("taskgraph: duplicate buffer %q", nb.Name)
	}
	g.buffers = append(g.buffers, &nb)
	g.bufByN[nb.Name] = &nb
	return &nb, nil
}

// Task returns the task with the given name, or nil.
func (g *Graph) Task(name string) *Task {
	if i, ok := g.taskIdx[name]; ok {
		return g.tasks[i]
	}
	return nil
}

// BufferByName returns the buffer with the given name, or nil.
func (g *Graph) BufferByName(name string) *Buffer { return g.bufByN[name] }

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
// Chain makes one pass over the buffers and one walk from the source, so it
// is linear in the graph. With at most one input and one output buffer per
// task, the walk from a task without input can neither revisit a task nor
// leave the tasks it reaches connected to any other, so the walk reaching
// every task is the proof of connectivity and of the absence of cycles.
func (g *Graph) Chain() (tasks []*Task, buffers []*Buffer, err error) {
	if len(g.tasks) == 0 {
		return nil, nil, fmt.Errorf("taskgraph: graph has no tasks")
	}
	// links[i] describes task i: its input and output buffers as buffer
	// index + 1 (0 when absent) and the consumer task of its output.
	links := make([]struct{ in, out, next int }, len(g.tasks))
	for i, b := range g.buffers {
		p, c := g.taskIdx[b.Producer], g.taskIdx[b.Consumer]
		if prev := links[p].out; prev != 0 {
			return nil, nil, fmt.Errorf("taskgraph: task %q has output buffers %q and %q; chains allow at most one",
				b.Producer, g.buffers[prev-1].Name, b.Name)
		}
		if prev := links[c].in; prev != 0 {
			return nil, nil, fmt.Errorf("taskgraph: task %q has input buffers %q and %q; chains allow at most one",
				b.Consumer, g.buffers[prev-1].Name, b.Name)
		}
		links[p].out, links[p].next = i+1, c
		links[c].in = i + 1
	}
	cur := -1
	for i := range links {
		if links[i].in == 0 {
			cur = i
			break
		}
	}
	if cur < 0 {
		return nil, nil, fmt.Errorf("taskgraph: every task has an input buffer, so the graph has a cycle")
	}
	tasks = make([]*Task, 0, len(g.tasks))
	if len(g.buffers) > 0 {
		buffers = make([]*Buffer, 0, len(g.tasks)-1)
	}
	for {
		tasks = append(tasks, g.tasks[cur])
		out := links[cur].out
		if out == 0 {
			break
		}
		buffers = append(buffers, g.buffers[out-1])
		cur = links[cur].next
	}
	if len(tasks) != len(g.tasks) {
		return nil, nil, fmt.Errorf("taskgraph: graph is not weakly connected")
	}
	return tasks, buffers, nil
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
// clone can be resized without disturbing the original.
func (g *Graph) Clone() *Graph {
	ng := New()
	for _, t := range g.tasks {
		if _, err := ng.AddTask(t.Name, t.WCRT); err != nil {
			panic("taskgraph: clone of valid graph failed: " + err.Error())
		}
	}
	for _, b := range g.buffers {
		if _, err := ng.AddBuffer(*b); err != nil {
			panic("taskgraph: clone of valid graph failed: " + err.Error())
		}
	}
	return ng
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
