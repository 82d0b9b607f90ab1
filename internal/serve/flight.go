package serve

import "sync"

// flightCall is one in-flight computation. The leader fills entry/err and
// closes done; every waiter blocks on done (or its own request context).
type flightCall struct {
	done  chan struct{}
	entry *respEntry
	err   error
	// waiters counts the requests that joined after the leader; guarded
	// by the group's mu.
	waiters int
}

// flightGroup coalesces concurrent requests for the same problem into one
// computation. Keys come from requestKey — the canonical graph
// fingerprint plus the endpoint, policy, constraint task and period and
// the endpoint's parsed query parameters — NOT raw request bytes: two
// documents that differ only in comments, field order or buffer order
// coalesce onto the same flight, and two requests whose answers differ
// never do.
//
// Unlike the response cache, a flight exists only while its computation
// runs: finish removes the key before publishing the result, so a later
// request re-computes (or, normally, hits the response cache).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// join returns the flight for key, creating it when none is running.
// leader is true for the caller that must run the computation and finish
// the flight.
func (g *flightGroup) join(key string) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		c.waiters++
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish publishes the leader's result and releases the key. Removal
// happens before the result is visible so no waiter can join a completed
// flight.
func (g *flightGroup) finish(key string, c *flightCall, e *respEntry, err error) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.entry, c.err = e, err
	close(c.done)
}
