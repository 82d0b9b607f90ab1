package serve

import (
	"sync"

	"vrdfcap/internal/minimize"
)

// problemCache is a bounded LRU of compiled problems keyed by the same
// canonical fingerprint that keys the feasibility frontier. Eviction only
// drops compiled machines — verdicts live in the probecache store and
// survive.
type problemCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*minimize.Problem
	order   []string // least recently used first
}

func newProblemCache(max int) *problemCache {
	return &problemCache{max: max, entries: make(map[string]*minimize.Problem, max)}
}

// get returns the compiled problem for a fingerprint, refreshing its
// recency.
func (c *problemCache) get(fp string) (*minimize.Problem, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.entries[fp]
	if ok {
		c.touch(fp)
	}
	return p, ok
}

// put inserts a compiled problem, evicting the least recently used entry
// when full.
func (c *problemCache) put(fp string, p *minimize.Problem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[fp]; ok {
		c.entries[fp] = p
		c.touch(fp)
		return
	}
	if len(c.order) >= c.max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.entries[fp] = p
	c.order = append(c.order, fp)
}

// touch moves fp to the most-recently-used end. Called with c.mu held.
func (c *problemCache) touch(fp string) {
	for i, k := range c.order {
		if k == fp {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = fp
			return
		}
	}
}

// len returns the number of compiled problems held.
func (c *problemCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
