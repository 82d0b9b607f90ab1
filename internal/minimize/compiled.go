package minimize

import (
	"fmt"
	"sync"

	"vrdfcap/internal/taskgraph"
	"vrdfcap/internal/vrdf"
)

// pool is a free-list of reusable probe engines (compiled machines or
// verifiers). One CheckFunc may serve concurrent searches (the server's
// problem cache hands it to successive requests), so each call takes its
// own engine. sync.Pool is unsuitable here: construction can fail, and
// compiled engines are too expensive to let the collector drop
// mid-search. Callers that hit an engine error simply don't return the
// engine, so a poisoned engine never re-enters circulation.
type pool[T any] struct {
	mu   sync.Mutex
	free []T
}

func (p *pool[T]) get() (v T, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		v = p.free[n-1]
		var zero T
		p.free[n-1] = zero
		p.free = p.free[:n-1]
		return v, true
	}
	return v, false
}

func (p *pool[T]) put(v T) {
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}

// probeTemplate prepares a task graph for DeadlockFreeCheck's repeated
// capacity probes without cloning it per probe: one clone is made lazily
// and unsized buffers get a placeholder capacity, which every probe must
// cover. The lazy build keeps the check constructor cheap and error-free:
// a broken graph surfaces from the first check call, when the probe
// machine compiles.
type probeTemplate struct {
	base  *taskgraph.Graph
	once  sync.Once
	sized *taskgraph.Graph
	// unsized copies the originally unsized buffers in buffer order, so a
	// probe that leaves one out reports it exactly as sizing an unsized
	// graph always has.
	unsized []taskgraph.Buffer
	// space maps each buffer to its space edge.
	space map[string]string
}

func (t *probeTemplate) build() {
	t.sized = t.base.Clone()
	t.space = make(map[string]string, len(t.sized.Buffers()))
	for _, b := range t.sized.Buffers() {
		if b.Capacity <= 0 {
			t.unsized = append(t.unsized, *b)
			b.Capacity = 1 // placeholder; every probe must override it
		}
		t.space[b.Name] = vrdf.SpaceEdge(b.Name)
	}
}

// spaceTokens builds the template on first use, checks that caps covers
// every originally unsized buffer, and translates caps to the space-edge
// initial-token overrides of a compiled machine (§3.3: a capacity is the
// initial tokens of the buffer's space edge). An unknown buffer or a
// non-positive capacity is an error.
func (t *probeTemplate) spaceTokens(caps map[string]int64) (map[string]int64, error) {
	t.once.Do(t.build)
	for _, b := range t.unsized {
		if _, ok := caps[b.DefaultName()]; !ok {
			return nil, fmt.Errorf("sim: buffer %s has capacity %d; size the graph before simulating", b.DefaultName(), b.Capacity)
		}
	}
	ov := make(map[string]int64, len(caps))
	for name, c := range caps {
		edge, ok := t.space[name]
		if !ok {
			return nil, fmt.Errorf("minimize: unknown buffer %q", name)
		}
		if c <= 0 {
			return nil, fmt.Errorf("sim: buffer %s has capacity %d; size the graph before simulating", name, c)
		}
		ov[edge] = c
	}
	return ov, nil
}
