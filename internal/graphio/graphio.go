// Package graphio reads and writes task graphs: a JSON document format for
// tools and tests, and Graphviz DOT export for task graphs and VRDF graphs.
//
// The JSON format is deliberately small:
//
//	{
//	  "tasks":   [{"name": "vBR", "wcrt": "32/625"}, ...],
//	  "buffers": [{"producer": "vBR", "consumer": "vMP3",
//	               "prod": [2048], "cons": [96, 960], "capacity": 0}, ...],
//	  "constraint": {"task": "vDAC", "period": "1/44100"}
//	}
//
// Times are exact rationals in string form ("1/44100", "0.0227", "3");
// quanta are arrays of non-negative integers.
package graphio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
	"vrdfcap/internal/vrdf"
)

// TaskJSON is the JSON shape of a task.
type TaskJSON struct {
	Name string    `json:"name"`
	WCRT ratio.Rat `json:"wcrt"`
}

// BufferJSON is the JSON shape of a buffer.
type BufferJSON struct {
	Name     string  `json:"name,omitempty"`
	Producer string  `json:"producer"`
	Consumer string  `json:"consumer"`
	Prod     []int64 `json:"prod"`
	Cons     []int64 `json:"cons"`
	Capacity int64   `json:"capacity,omitempty"`
	// ContainerBytes optionally sizes one container for memory
	// reporting.
	ContainerBytes int64 `json:"container_bytes,omitempty"`
}

// ConstraintJSON is the JSON shape of a throughput constraint.
type ConstraintJSON struct {
	Task   string    `json:"task"`
	Period ratio.Rat `json:"period"`
}

// Document is a serialisable task graph plus optional constraint.
type Document struct {
	Tasks      []TaskJSON      `json:"tasks"`
	Buffers    []BufferJSON    `json:"buffers"`
	Constraint *ConstraintJSON `json:"constraint,omitempty"`

	// constraint is the backing value Constraint points at when fill sets
	// one, so a pooled Document reuses it instead of allocating per call.
	constraint ConstraintJSON
}

// fill populates the document in place, reusing the capacity of its task
// and buffer slices so a pooled Document pays no slice growth in steady
// state.
func (doc *Document) fill(g *taskgraph.Graph, c *taskgraph.Constraint) {
	doc.Tasks = doc.Tasks[:0]
	doc.Buffers = doc.Buffers[:0]
	doc.Constraint = nil
	for _, t := range g.Tasks() {
		doc.Tasks = append(doc.Tasks, TaskJSON{Name: t.Name, WCRT: t.WCRT})
	}
	for _, b := range g.Buffers() {
		doc.Buffers = append(doc.Buffers, BufferJSON{
			Name:           b.Name,
			Producer:       b.Producer,
			Consumer:       b.Consumer,
			Prod:           b.Prod.Values(),
			Cons:           b.Cons.Values(),
			Capacity:       b.Capacity,
			ContainerBytes: b.ContainerBytes,
		})
	}
	if c != nil {
		doc.constraint = ConstraintJSON{Task: c.Task, Period: c.Period}
		doc.Constraint = &doc.constraint
	}
}

// toGraph reconstructs the graph, enforcing the structural limits before
// any quanta set is materialised.
func (doc *Document) toGraph(l Limits) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	if err := l.checkTasks(len(doc.Tasks)); err != nil {
		return nil, nil, err
	}
	if err := l.checkBuffers(len(doc.Buffers)); err != nil {
		return nil, nil, err
	}
	for _, b := range doc.Buffers {
		if err := l.checkQuanta(len(b.Prod)); err != nil {
			return nil, nil, fmt.Errorf("graphio: buffer %s->%s prod: %w", b.Producer, b.Consumer, err)
		}
		if err := l.checkQuanta(len(b.Cons)); err != nil {
			return nil, nil, fmt.Errorf("graphio: buffer %s->%s cons: %w", b.Producer, b.Consumer, err)
		}
	}
	g := taskgraph.New()
	for _, t := range doc.Tasks {
		if _, err := g.AddTask(t.Name, t.WCRT); err != nil {
			return nil, nil, err
		}
	}
	for _, b := range doc.Buffers {
		prod, err := taskgraph.NewQuantaSet(b.Prod...)
		if err != nil {
			return nil, nil, fmt.Errorf("graphio: buffer %s->%s prod: %w", b.Producer, b.Consumer, err)
		}
		cons, err := taskgraph.NewQuantaSet(b.Cons...)
		if err != nil {
			return nil, nil, fmt.Errorf("graphio: buffer %s->%s cons: %w", b.Producer, b.Consumer, err)
		}
		_, err = g.AddBuffer(taskgraph.Buffer{
			Name:           b.Name,
			Producer:       b.Producer,
			Consumer:       b.Consumer,
			Prod:           prod,
			Cons:           cons,
			Capacity:       b.Capacity,
			ContainerBytes: b.ContainerBytes,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	var c *taskgraph.Constraint
	if doc.Constraint != nil {
		c = &taskgraph.Constraint{Task: doc.Constraint.Task, Period: doc.Constraint.Period}
		if err := c.Validate(g); err != nil {
			return nil, nil, err
		}
	}
	return g, c, nil
}

// encState bundles the per-encode scratch — the document, the output
// buffer and the indenting JSON encoder wired to it — so one pool hit
// covers all three.
type encState struct {
	doc Document
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	s := &encState{}
	s.enc = json.NewEncoder(&s.buf)
	s.enc.SetIndent("", "  ")
	return s
}}

// Encode serialises a graph (and optional constraint) to indented JSON.
// The result is byte-identical to json.MarshalIndent of the filled
// Document; the scratch document, buffer and encoder are pooled, so the
// only allocation retained per call is the returned slice.
func Encode(g *taskgraph.Graph, c *taskgraph.Constraint) ([]byte, error) {
	s := encPool.Get().(*encState)
	defer encPool.Put(s)
	s.buf.Reset()
	s.doc.fill(g, c)
	if err := s.enc.Encode(&s.doc); err != nil {
		return nil, err
	}
	// The stream encoder appends a newline MarshalIndent does not.
	out := s.buf.Bytes()
	out = bytes.TrimSuffix(out, []byte{'\n'})
	return append([]byte(nil), out...), nil
}

// Decode parses JSON into a graph and optional constraint.
func Decode(data []byte) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	return decodeJSON(data, Limits{})
}

// decodeJSON parses JSON under the limits. The raw size check runs before
// json.Unmarshal so an oversized document is rejected without parsing.
func decodeJSON(data []byte, l Limits) (*taskgraph.Graph, *taskgraph.Constraint, error) {
	if err := l.checkBytes(len(data)); err != nil {
		return nil, nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("graphio: %w", err)
	}
	return doc.toGraph(l)
}

// WriteDOT renders a task graph in Graphviz DOT: tasks as boxes annotated
// with κ, buffers as edges annotated with ξ/λ and capacity.
func WriteDOT(w io.Writer, g *taskgraph.Graph) error {
	if _, err := fmt.Fprintln(w, "digraph taskgraph {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  rankdir=LR; node [shape=box];"); err != nil {
		return err
	}
	names := make([]string, 0, len(g.Tasks()))
	for _, t := range g.Tasks() {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	for _, n := range names {
		t := g.Task(n)
		if _, err := fmt.Fprintf(w, "  %q [label=\"%s\\nκ=%s\"];\n", t.Name, t.Name, t.WCRT); err != nil {
			return err
		}
	}
	for _, b := range g.Buffers() {
		label := fmt.Sprintf("ξ=%s λ=%s", b.Prod, b.Cons)
		if b.Capacity > 0 {
			label += fmt.Sprintf(" ζ=%d", b.Capacity)
		}
		if _, err := fmt.Fprintf(w, "  %q -> %q [label=%q];\n", b.Producer, b.Consumer, label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WriteVRDFDOT renders a VRDF graph in DOT: actors as circles annotated
// with ρ, edges annotated with π/γ and initial tokens δ.
func WriteVRDFDOT(w io.Writer, g *vrdf.Graph) error {
	if _, err := fmt.Fprintln(w, "digraph vrdf {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "  rankdir=LR; node [shape=ellipse];"); err != nil {
		return err
	}
	for _, a := range g.Actors() {
		if _, err := fmt.Fprintf(w, "  %q [label=\"%s\\nρ=%s\"];\n", a.Name, a.Name, a.Rho); err != nil {
			return err
		}
	}
	for _, e := range g.Edges() {
		label := fmt.Sprintf("%s\\nπ=%s γ=%s", e.Name, e.Prod, e.Cons)
		if e.Initial > 0 {
			label += fmt.Sprintf(" δ=%d", e.Initial)
		}
		if _, err := fmt.Fprintf(w, "  %q -> %q [label=%q];\n", e.Src, e.Dst, label); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
