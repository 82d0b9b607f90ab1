package serve

import "sync"

// respEntry is one fully rendered response: status code plus the exact
// bytes written. Entries are immutable after insertion, so a single entry
// may be shared by the cache, several raw-key aliases and any number of
// concurrent writers.
type respEntry struct {
	status int
	body   []byte
}

// fifoCache is the service's one bounded cache. It backs the response
// cache (raw-request sha256 → rendered response) and the compiled-problem
// cache (request key → minimize.Problem).
//
// Bounded by FIFO eviction: the cache holds at most max entries and evicts
// the oldest insertion. FIFO (rather than LRU) keeps the hit path
// read-only, so concurrent hits share an RLock and never contend on
// recency bookkeeping. With the response cache's [32]byte array key the
// lookup is allocation-free — hashing the request and indexing the map
// both work on stack values — which is what makes the steady-state
// cache-hit path zero-alloc.
type fifoCache[K comparable, V any] struct {
	mu      sync.RWMutex
	max     int
	entries map[K]V
	fifo    []K // insertion order, a circular buffer once full
	next    int // fifo slot the next insertion overwrites
}

func newFIFOCache[K comparable, V any](max int) *fifoCache[K, V] {
	return &fifoCache[K, V]{
		max:     max,
		entries: make(map[K]V, max),
		fifo:    make([]K, 0, max),
	}
}

// get returns the cached value for key. It is the zero-alloc hot path: an
// RLock, one map probe, an RUnlock.
//
//vrdf:noalloc
func (c *fifoCache[K, V]) get(key K) (V, bool) {
	c.mu.RLock()
	v, ok := c.entries[key]
	c.mu.RUnlock()
	return v, ok
}

// put inserts a value, evicting the oldest entry when full. Re-inserting
// an existing key refreshes the value in place, without taking a new FIFO
// slot.
func (c *fifoCache[K, V]) put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.entries[key] = v
		return
	}
	if len(c.fifo) < c.max {
		c.fifo = append(c.fifo, key)
	} else {
		delete(c.entries, c.fifo[c.next])
		c.fifo[c.next] = key
		c.next = (c.next + 1) % c.max
	}
	c.entries[key] = v
}

// len returns the number of cached entries.
func (c *fifoCache[K, V]) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
