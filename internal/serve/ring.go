package serve

import "sync/atomic"

// logEntry is one fixed-size access-log record. Entries are plain values —
// no pointers, no variable-length fields — so producing one never
// allocates and draining one is a single struct copy.
type logEntry struct {
	when   int64 // start of the request, unix nanoseconds
	dur    int64 // wall-clock duration in nanoseconds
	status int32 // HTTP status written
	path   int32 // endpoint id (see pathID)
	kind   uint8 // how the response was produced (see kindHit ...)
	key    [8]byte
}

// How a response was produced, for the access log and the stats.
const (
	kindHit       = uint8(iota) // served from the response cache
	kindCompute                 // led a flight: the analysis actually ran
	kindCoalesced               // joined another request's in-flight computation
	kindError                   // failed before or during computation
	numKinds
)

// ring is a bounded lock-free MPSC queue of access-log entries. Producers
// (request goroutines) claim a slot with one atomic cursor and publish it
// via the slot's sequence number; a full ring drops the entry and counts
// the drop instead of blocking the request path. The single consumer (the
// background drain goroutine) owns head without atomics.
//
// The slot protocol is the classic bounded-queue design: slot i starts
// with seq == i ("free for ticket i"); a producer that claimed ticket t
// writes the entry and stores seq = t+1 ("published"); the consumer reads
// an entry once seq == head+1 and releases the slot with
// seq = head+len(slots) ("free for the ticket one lap later"). A producer
// observing seq < t is a full lap behind the consumer: the ring is full.
type ring struct {
	mask    uint64
	tail    atomic.Uint64 // next ticket to claim — the single producer cursor
	dropped atomic.Uint64
	slots   []ringSlot
	head    uint64 // consumer-private: next ticket to drain
}

type ringSlot struct {
	seq atomic.Uint64
	e   logEntry
}

// newRing returns a ring holding at least size entries (rounded up to a
// power of two, minimum 2).
func newRing(size int) *ring {
	n := 2
	//vrdf:unbudgeted(doubles to the next power of two; at most 62 iterations)
	for n < size {
		n <<= 1
	}
	r := &ring{mask: uint64(n - 1), slots: make([]ringSlot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// put publishes one entry, or counts a drop when the ring is full. Safe
// for concurrent producers; never blocks, never allocates.
//
//vrdf:noalloc
func (r *ring) put(e *logEntry) bool {
	t := r.tail.Load()
	//vrdf:unbudgeted(CAS retry loop; each iteration either claims a slot, detects a full ring, or re-reads a cursor another producer just advanced)
	for {
		s := &r.slots[t&r.mask]
		seq := s.seq.Load()
		switch {
		case seq == t:
			if r.tail.CompareAndSwap(t, t+1) {
				s.e = *e
				s.seq.Store(t + 1)
				return true
			}
			t = r.tail.Load()
		case seq < t:
			// The consumer has not freed this slot from the previous lap.
			r.dropped.Add(1)
			return false
		default:
			t = r.tail.Load()
		}
	}
}

// pop drains one entry into e. Single consumer only.
//
//vrdf:noalloc
func (r *ring) pop(e *logEntry) bool {
	s := &r.slots[r.head&r.mask]
	if s.seq.Load() != r.head+1 {
		return false
	}
	*e = s.e
	s.seq.Store(r.head + uint64(len(r.slots)))
	r.head++
	return true
}
