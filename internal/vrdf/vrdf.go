// Package vrdf implements the Variable-Rate Dataflow analysis model of
// Wiggers et al. (DATE 2008), §3.2, and its construction from a task graph,
// §3.3.
//
// A VRDF graph G = (V, E, π, γ, δ, ρ) is a directed graph of actors and
// edges. A firing of an actor is enabled when all input edges hold
// sufficient tokens; the per-firing consumption quantum on edge e is a value
// from the finite set γ(e) and the production quantum a value from π(e).
// Tokens are consumed atomically at the start of a firing and produced
// atomically ρ(v) later at its finish, and an actor does not start a firing
// before every previous firing has finished.
//
// Two semantic properties carry the paper's proofs and are property-tested
// against this library's simulator:
//
//   - Monotonic execution in the start times (Definition 1): starting any
//     firing earlier can never start any other firing later.
//   - Linear temporal behaviour (Definition 2): delaying a start time by Δ
//     delays no start time by more than Δ.
//
// Both hold because firing rules and token quanta are independent of token
// arrival times.
package vrdf

import (
	"fmt"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// QuantaSet is re-exported from the task model; π and γ share its codomain
// Pf(N).
type QuantaSet = taskgraph.QuantaSet

// Actor is a vertex of the VRDF graph.
type Actor struct {
	// Name identifies the actor; unique within a graph.
	Name string
	// Rho is the response time ρ(v): tokens are produced ρ(v) after the
	// firing's start. Must be positive.
	Rho ratio.Rat
}

// Edge is a directed edge of the VRDF graph.
type Edge struct {
	// Name identifies the edge; unique within a graph.
	Name string
	// Src produces tokens on the edge; Dst consumes them.
	Src, Dst string
	// Prod is π(e), the set of possible token production quanta.
	Prod QuantaSet
	// Cons is γ(e), the set of possible token consumption quanta.
	Cons QuantaSet
	// Initial is δ(e), the number of initial tokens.
	Initial int64
}

// Graph is a VRDF graph.
type Graph struct {
	actors  []*Actor
	byName  map[string]*Actor
	edges   []*Edge
	edgeByN map[string]*Edge
}

// New returns an empty VRDF graph.
func New() *Graph { return newGraph(0, 0) }

// newGraph returns an empty VRDF graph with room for the given numbers of
// actors and edges.
func newGraph(actors, edges int) *Graph {
	return &Graph{
		actors:  make([]*Actor, 0, actors),
		byName:  make(map[string]*Actor, actors),
		edges:   make([]*Edge, 0, edges),
		edgeByN: make(map[string]*Edge, edges),
	}
}

// AddActor adds an actor with the given response time.
func (g *Graph) AddActor(name string, rho ratio.Rat) (*Actor, error) {
	if err := g.checkActor(name, rho); err != nil {
		return nil, err
	}
	a := &Actor{Name: name, Rho: rho}
	g.actors = append(g.actors, a)
	g.byName[name] = a
	return a, nil
}

// checkActor reports why an actor of the given name and response time
// cannot join the graph, or nil.
func (g *Graph) checkActor(name string, rho ratio.Rat) error {
	if name == "" {
		return fmt.Errorf("vrdf: empty actor name")
	}
	if _, dup := g.byName[name]; dup {
		return fmt.Errorf("vrdf: duplicate actor %q", name)
	}
	if rho.Sign() <= 0 {
		return fmt.Errorf("vrdf: actor %q: response time must be positive, got %v", name, rho)
	}
	return nil
}

// AddEdge adds an edge. Src and Dst must already exist.
func (g *Graph) AddEdge(e Edge) (*Edge, error) {
	if e.Name == "" {
		e.Name = "e:" + e.Src + "->" + e.Dst
	}
	if err := g.checkEdge(&e); err != nil {
		return nil, err
	}
	ne := e
	g.edges = append(g.edges, &ne)
	g.edgeByN[ne.Name] = &ne
	return &ne, nil
}

// checkEdge reports why the named edge e cannot join the graph, or nil.
func (g *Graph) checkEdge(e *Edge) error {
	if _, dup := g.edgeByN[e.Name]; dup {
		return fmt.Errorf("vrdf: duplicate edge %q", e.Name)
	}
	if _, ok := g.byName[e.Src]; !ok {
		return fmt.Errorf("vrdf: edge %q: unknown source actor %q", e.Name, e.Src)
	}
	if _, ok := g.byName[e.Dst]; !ok {
		return fmt.Errorf("vrdf: edge %q: unknown destination actor %q", e.Name, e.Dst)
	}
	if !e.Prod.IsValid() {
		return fmt.Errorf("vrdf: edge %q: invalid production quanta", e.Name)
	}
	if !e.Cons.IsValid() {
		return fmt.Errorf("vrdf: edge %q: invalid consumption quanta", e.Name)
	}
	if e.Initial < 0 {
		return fmt.Errorf("vrdf: edge %q: negative initial tokens %d", e.Name, e.Initial)
	}
	return nil
}

// Actor returns the actor with the given name, or nil.
func (g *Graph) Actor(name string) *Actor { return g.byName[name] }

// EdgeByName returns the edge with the given name, or nil.
func (g *Graph) EdgeByName(name string) *Edge { return g.edgeByN[name] }

// Actors returns the actors in insertion order; callers must not modify the
// returned slice.
func (g *Graph) Actors() []*Actor { return g.actors }

// Edges returns the edges in insertion order; callers must not modify the
// returned slice.
func (g *Graph) Edges() []*Edge { return g.edges }

// In returns the edges consumed by the named actor.
func (g *Graph) In(actor string) []*Edge {
	var out []*Edge
	for _, e := range g.edges {
		if e.Dst == actor {
			out = append(out, e)
		}
	}
	return out
}

// Out returns the edges produced by the named actor.
func (g *Graph) Out(actor string) []*Edge {
	var out []*Edge
	for _, e := range g.edges {
		if e.Src == actor {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks structural sanity: at least one actor and weak
// connectivity.
func (g *Graph) Validate() error {
	if len(g.actors) == 0 {
		return fmt.Errorf("vrdf: graph has no actors")
	}
	if len(g.actors) > 1 {
		// Union-find over actor indices: every edge joins its two ends'
		// components, and the graph is connected when one remains.
		idx := make(map[string]int, len(g.actors))
		parent := make([]int, len(g.actors))
		for i, a := range g.actors {
			idx[a.Name] = i
			parent[i] = i
		}
		root := func(i int) int {
			for parent[i] != i {
				parent[i] = parent[parent[i]]
				i = parent[i]
			}
			return i
		}
		components := len(g.actors)
		for _, e := range g.edges {
			if a, b := root(idx[e.Src]), root(idx[e.Dst]); a != b {
				parent[a] = b
				components--
			}
		}
		if components != 1 {
			return fmt.Errorf("vrdf: graph is not weakly connected")
		}
	}
	return nil
}

// BufferPair names the two opposite edges that together model one circular
// buffer: Data carries full containers from producer to consumer and Space
// carries empty containers back.
type BufferPair struct {
	Buffer string // task-graph buffer name
	Data   string // edge name, producer -> consumer
	Space  string // edge name, consumer -> producer
}

// Mapping relates a task graph to the VRDF graph constructed from it.
type Mapping struct {
	// TaskToActor maps task names to actor names (identity in this
	// construction, recorded for explicitness).
	TaskToActor map[string]string
	// Pairs lists the edge pair for every buffer, in buffer insertion
	// order.
	Pairs []BufferPair
}

// Pair returns the edge pair for the named buffer, or false.
func (m *Mapping) Pair(buffer string) (BufferPair, bool) {
	for _, p := range m.Pairs {
		if p.Buffer == buffer {
			return p, true
		}
	}
	return BufferPair{}, false
}

// FromTaskGraph constructs the VRDF analysis graph of a task graph following
// §3.3 of the paper:
//
//   - every task w becomes an actor v with ρ(v) = κ(w);
//   - every buffer b_ab becomes a data edge e_ab with π(e_ab) = ξ(b_ab) and
//     γ(e_ab) = λ(b_ab), and a space edge e_ba with π(e_ba) = λ(b_ab),
//     γ(e_ba) = ξ(b_ab) and δ(e_ba) = ζ(b_ab).
//
// Buffers with zero capacity are mapped with zero initial tokens; the
// capacity computation fills them in later. The task graph need not be a
// chain, but the VRDF graph must pass Validate: it has an actor and is
// weakly connected.
func FromTaskGraph(t *taskgraph.Graph) (*Graph, *Mapping, error) {
	tasks, buffers := t.Tasks(), t.Buffers()
	g := newGraph(len(tasks), 2*len(buffers))
	m := &Mapping{
		TaskToActor: make(map[string]string, len(tasks)),
		Pairs:       make([]BufferPair, len(buffers)),
	}
	// The actors and the edges are each carved from one backing array.
	actors := make([]Actor, len(tasks))
	for i, w := range tasks {
		if err := g.checkActor(w.Name, w.WCRT); err != nil {
			return nil, nil, err
		}
		actors[i] = Actor{Name: w.Name, Rho: w.WCRT}
		g.actors = append(g.actors, &actors[i])
		g.byName[w.Name] = &actors[i]
		m.TaskToActor[w.Name] = w.Name
	}
	edges := make([]Edge, 2*len(buffers))
	for i, b := range buffers {
		name := b.DefaultName()
		m.Pairs[i] = BufferPair{Buffer: name, Data: "data:" + name, Space: SpaceEdge(name)}
		edges[2*i] = Edge{
			Name: m.Pairs[i].Data,
			Src:  b.Producer, Dst: b.Consumer,
			Prod: b.Prod, Cons: b.Cons,
			Initial: 0, // every buffer is initially empty (§3.1)
		}
		edges[2*i+1] = Edge{
			Name: m.Pairs[i].Space,
			Src:  b.Consumer, Dst: b.Producer,
			Prod: b.Cons, Cons: b.Prod,
			Initial: b.Capacity,
		}
		for j := 2 * i; j < 2*i+2; j++ {
			e := &edges[j]
			if err := g.checkEdge(e); err != nil {
				return nil, nil, err
			}
			g.edges = append(g.edges, e)
			g.edgeByN[e.Name] = e
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, m, nil
}

// SpaceEdge returns the name FromTaskGraph gives the space edge of the
// named buffer.
func SpaceEdge(buffer string) string { return "space:" + buffer }

// CheckBufferSymmetry verifies the §3.3 invariants on a constructed graph:
// for every buffer pair, π(data) == γ(space) and γ(data) == π(space), and
// the data edge starts empty. Together with the chain restriction this makes
// the VRDF graph inherently strongly consistent (§3.3; Lee 1991).
func CheckBufferSymmetry(g *Graph, m *Mapping) error {
	for _, p := range m.Pairs {
		data := g.EdgeByName(p.Data)
		space := g.EdgeByName(p.Space)
		if data == nil || space == nil {
			return fmt.Errorf("vrdf: buffer %q: missing edge pair", p.Buffer)
		}
		if data.Src != space.Dst || data.Dst != space.Src {
			return fmt.Errorf("vrdf: buffer %q: edges are not opposite", p.Buffer)
		}
		if !data.Prod.Equal(space.Cons) {
			return fmt.Errorf("vrdf: buffer %q: π(data)=%v != γ(space)=%v", p.Buffer, data.Prod, space.Cons)
		}
		if !data.Cons.Equal(space.Prod) {
			return fmt.Errorf("vrdf: buffer %q: γ(data)=%v != π(space)=%v", p.Buffer, data.Cons, space.Prod)
		}
		if data.Initial != 0 {
			return fmt.Errorf("vrdf: buffer %q: data edge has %d initial tokens; buffers start empty", p.Buffer, data.Initial)
		}
	}
	return nil
}
