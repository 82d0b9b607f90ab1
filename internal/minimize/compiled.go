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

// probeTemplate prepares a task graph for repeated capacity probes without
// cloning it per probe: one clone is made lazily, unsized buffers get a
// placeholder capacity (every probe must cover them), and each probed
// assignment translates to initial-token overrides on the space edges of
// the compiled machines. The lazy build keeps the check constructors
// error-free, like the clone-per-probe path they replace: a broken graph
// surfaces from the first check call.
type probeTemplate struct {
	base    *taskgraph.Graph
	once    sync.Once
	err     error
	sized   *taskgraph.Graph
	mapping *vrdf.Mapping
	// unsized records the original non-positive capacities so probes
	// that fail to cover those buffers report them exactly as sizing an
	// unsized graph always has.
	unsized map[string]int64
}

func (t *probeTemplate) build() {
	t.sized = t.base.Clone()
	t.unsized = make(map[string]int64)
	for _, b := range t.sized.Buffers() {
		if b.Capacity <= 0 {
			t.unsized[b.DefaultName()] = b.Capacity
			b.Capacity = 1 // placeholder; every probe must override it
		}
	}
	_, m, err := vrdf.FromTaskGraph(t.sized)
	if err != nil {
		t.err = err
		return
	}
	t.mapping = m
}

// overrides validates a capacity assignment against the template and
// translates it to space-edge initial-token overrides. Unknown buffers and
// non-positive or missing capacities fail with the same errors the
// clone-and-rebuild path produced.
func (t *probeTemplate) overrides(caps map[string]int64) (map[string]int64, error) {
	t.once.Do(t.build)
	if t.err != nil {
		return nil, t.err
	}
	byDefault := make(map[string]int64, len(caps))
	for name, c := range caps {
		b := t.sized.BufferByName(name)
		if b == nil {
			return nil, fmt.Errorf("minimize: unknown buffer %q", name)
		}
		byDefault[b.DefaultName()] = c
	}
	ov := make(map[string]int64, len(caps))
	for _, b := range t.sized.Buffers() {
		name := b.DefaultName()
		c, probed := byDefault[name]
		if !probed {
			if orig, un := t.unsized[name]; un {
				return nil, fmt.Errorf("sim: buffer %s has capacity %d; size the graph before simulating", name, orig)
			}
			continue
		}
		if c <= 0 {
			return nil, fmt.Errorf("sim: buffer %s has capacity %d; size the graph before simulating", name, c)
		}
		pair, ok := t.mapping.Pair(name)
		if !ok {
			return nil, fmt.Errorf("minimize: buffer %q has no edge pair", name)
		}
		ov[pair.Space] = c
	}
	return ov, nil
}
