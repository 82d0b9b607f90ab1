package sim

// checkpoint is a deep copy of a Machine's mutable run state — event
// calendar, actor states, edge token counts and the lengths of the
// recording buffers — in a reusable arena. Filling a checkpoint whose arena
// has reached its steady-state capacity performs no allocation, so
// checkpointing inside Run stays allocation-free after warm-up. Recordings
// are stored as prefix lengths of the machine's live buffers: a run only
// appends to them, and a cold reset, which truncates them, drops every
// checkpoint.
type checkpoint struct {
	tick   int64
	events int64
	seq    int64
	eq     eventHeap
	actors []actorSnap
	edges  []edgeSnap
}

type actorSnap struct {
	started   int64
	finished  int64
	busyTicks int64
	busyUntil int64
	readyAt   int64
	armedFor  int64
	offsetT   int64
	startsLen int
}

type edgeSnap struct {
	tokens       int64
	peak         int64
	min          int64
	produced     int64
	consumed     int64
	minShortfall int64
	recsLen      int
	occLen       int
	// lastOcc is the value of the last retained occupancy sample:
	// same-tick samples are merged by mutating the last element, so
	// restoring by length alone would keep a post-snapshot mutation.
	lastOcc OccupancySample
}

// snapshotInto fills s from the machine's current state. The caller must
// ensure the state is quiescent: no partially processed tick (inside Run
// this means after startDirty, with the dirty list empty).
func (m *Machine) snapshotInto(s *checkpoint, tick int64) {
	s.tick = tick
	s.events = m.events
	s.seq = m.seq
	s.eq = append(s.eq[:0], m.eq...)
	if len(s.actors) != len(m.actors) {
		s.actors = make([]actorSnap, len(m.actors))
	}
	// Fields are written in place: building each record as a value and
	// copying it in costs a block copy per actor and edge.
	for i, a := range m.actors {
		sn := &s.actors[i]
		sn.started = a.started
		sn.finished = a.finished
		sn.busyTicks = a.busyTicks
		sn.busyUntil = a.busyUntil
		sn.readyAt = a.readyAt
		sn.armedFor = a.armedFor
		sn.offsetT = a.offsetT
		sn.startsLen = len(a.starts)
	}
	if len(s.edges) != len(m.edgeList) {
		s.edges = make([]edgeSnap, len(m.edgeList))
	}
	for i, es := range m.edgeList {
		sn := &s.edges[i]
		sn.tokens = es.tokens
		sn.peak = es.peak
		sn.min = es.min
		sn.produced = es.produced
		sn.consumed = es.consumed
		sn.minShortfall = es.minShortfall
		sn.recsLen = len(es.recs)
		sn.occLen = len(es.occ)
		sn.lastOcc = OccupancySample{}
		if sn.occLen > 0 {
			sn.lastOcc = es.occ[sn.occLen-1]
		}
	}
}

// restoreFrom copies a checkpoint's state back into the machine. Recording
// buffers are truncated to their checkpoint lengths; their retained
// prefixes are identical to the checkpoint's time (runs only append, and the one
// mutable element — the last occupancy sample — is restored explicitly).
//
//vrdf:noalloc
func (m *Machine) restoreFrom(s *checkpoint) {
	m.eq = append(m.eq[:0], s.eq...) //vrdf:allocok(the calendar keeps its capacity across Reset; a checkpoint never holds more events than the run that produced it)
	m.seq = s.seq
	m.events = s.events
	for i, a := range m.actors {
		sn := &s.actors[i]
		a.started = sn.started
		a.finished = sn.finished
		a.busyTicks = sn.busyTicks
		a.busyUntil = sn.busyUntil
		a.readyAt = sn.readyAt
		a.armedFor = sn.armedFor
		a.offsetT = sn.offsetT
		a.starts = a.starts[:sn.startsLen]
	}
	for i, es := range m.edgeList {
		sn := &s.edges[i]
		es.tokens = sn.tokens
		es.peak = sn.peak
		es.min = sn.min
		es.produced = sn.produced
		es.consumed = sn.consumed
		es.minShortfall = sn.minShortfall
		es.recs = es.recs[:sn.recsLen]
		es.occ = es.occ[:sn.occLen]
		if sn.occLen > 0 {
			es.occ[sn.occLen-1] = sn.lastOcc
		}
	}
	clear(m.dirty)
}

// initialCheckpointEvery is the event interval of the first checkpoint of
// a run; thinning doubles it every time the slots fill, so N slots cover a
// run of any length with logarithmically spaced checkpoints.
const initialCheckpointEvery = 1024

// beginCheckpoints records the configuration key of the starting cold run.
// Reset only resumes from checkpoints taken under the same configured
// periodic offsets (a quiet start's tick is run state, which the checkpoints
// save) and initial-token frame, and a run that records starts only from
// those taken by runs that did.
func (m *Machine) beginCheckpoints() {
	m.ckptEvery = initialCheckpointEvery
	m.ckptNext = m.ckptEvery
	m.ckptOffs = m.ckptOffs[:0]
	for _, a := range m.actors {
		m.ckptOffs = append(m.ckptOffs, a.offset)
	}
	copy(m.ckptTokens, m.runTokens)
	m.ckptStarts = m.recStarts
}

// ckptKeyMatches reports whether the machine's configured periodic offsets
// equal those the retained checkpoints were taken under, and whether the
// retained checkpoints hold the start-recording prefix a pending run that
// records starts resumes from: a run that records none leaves its
// checkpoints without one.
//
//vrdf:noalloc
func (m *Machine) ckptKeyMatches() bool {
	if len(m.ckptOffs) != len(m.actors) || (m.recStarts && !m.ckptStarts) {
		return false
	}
	for i, a := range m.actors {
		if a.offset != m.ckptOffs[i] {
			return false
		}
	}
	return true
}

// takeCheckpoint snapshots the current (quiescent) run state into a slot.
// When the slots overflow, every other checkpoint is dropped — always
// keeping the newest — and the interval doubles: the retained checkpoints
// stay roughly evenly spaced over the whole run, so a warm start never
// resumes further from its target than one interval.
func (m *Machine) takeCheckpoint(tick int64) {
	s := m.grabCheckpoint()
	m.snapshotInto(s, tick)
	m.ckpts = append(m.ckpts, s)
	if len(m.ckpts) > m.ckptSlots {
		kept := m.ckpts[:0]
		for i, c := range m.ckpts {
			if i%2 == 1 || i == len(m.ckpts)-1 {
				kept = append(kept, c)
			} else {
				m.ckptFree = append(m.ckptFree, c)
			}
		}
		m.ckpts = kept
		m.ckptEvery *= 2
	}
	m.ckptNext = m.events + m.ckptEvery
}

// grabCheckpoint returns a checkpoint slot, reusing a retired one when the
// free list has any and otherwise taking the next unused slot of the
// machine's checkpoint arena.
//
//vrdf:noalloc
func (m *Machine) grabCheckpoint() *checkpoint {
	if n := len(m.ckptFree); n > 0 {
		s := m.ckptFree[n-1]
		m.ckptFree[n-1] = nil
		m.ckptFree = m.ckptFree[:n-1]
		return s
	}
	if len(m.ckptArena) == 0 {
		m.newCheckpointArena() //vrdf:allocok(cold path: runs once per machine, on its first checkpoint)
	}
	s := &m.ckptArena[0]
	m.ckptArena = m.ckptArena[1:]
	return s
}

// newCheckpointArena allocates every checkpoint slot a run can hold at once
// — the retained slots plus the one taken before thinning — with their
// calendars, actor and edge records carved from one backing array each, so
// a checkpointing machine pays a fixed handful of allocations instead of
// several per slot. Each calendar holds calendarBound events, the most a
// run's calendar ever holds, so snapshotInto never grows one.
func (m *Machine) newCheckpointArena() {
	n := m.ckptSlots + 1
	evCap, na, ne := m.calendarBound(), len(m.actors), len(m.edgeList)
	m.ckptArena = make([]checkpoint, n)
	evs := make([]event, n*evCap)
	actors := make([]actorSnap, n*na)
	edges := make([]edgeSnap, n*ne)
	for i := range m.ckptArena {
		s := &m.ckptArena[i]
		s.eq = evs[i*evCap : i*evCap : (i+1)*evCap]
		s.actors = actors[i*na : (i+1)*na : (i+1)*na]
		s.edges = edges[i*ne : (i+1)*ne : (i+1)*ne]
	}
	if m.ckpts == nil {
		m.ckpts = make([]*checkpoint, 0, n)
		m.ckptFree = make([]*checkpoint, 0, n)
	}
}

// dropCheckpoints retires the checkpoints from index from onward into the
// free list.
func (m *Machine) dropCheckpoints(from int) {
	for i := from; i < len(m.ckpts); i++ {
		m.ckptFree = append(m.ckptFree, m.ckpts[i])
		m.ckpts[i] = nil
	}
	m.ckpts = m.ckpts[:from]
}

// resetWarm prepares the next run from a validated per-edge initial-token
// frame (non-negative, one entry per edge in edgeList order). It resumes
// from a retained checkpoint of the previous run when the changed initial
// tokens provably cannot have affected the replayed prefix, and otherwise
// resets cold. With starts false the next run records no start times: a
// verdict-only probe pays nothing per firing for a recording it never
// reads.
//
// Validity rests on the quanta sequences, Exec models and scheduling being
// pure functions of the firing index (the package contract for
// bit-reproducible runs) plus a per-edge prefix-coincidence argument:
// lowering an edge's initial tokens by d keeps every consumption of the
// prefix possible iff the edge's running minimum at the checkpoint is ≥ d,
// and raising them by δ keeps every failed enabling check failing iff
// δ < the smallest shortfall any such check observed. Either way every
// start, finish and transfer of the prefix is unchanged, so the resumed
// run is bit-identical to a cold run with the new tokens — the
// differential fuzz target in this package pins that equivalence. A quiet
// start falls where the calendar runs dry, every enabling check of the
// prefix having failed or started its firing, so an unchanged prefix
// decides it at the same tick.
func (m *Machine) resetWarm(frame []int64, starts bool) {
	m.recStarts = starts
	if len(m.ckpts) > 0 && m.ckptKeyMatches() {
		// Newest checkpoint valid for every changed edge wins. Both
		// validity quantities shrink monotonically over a run (the
		// running minimum can only fall, shortfalls only tighten), so
		// if a checkpoint is invalid every newer one is too, and every
		// older one than a valid one is also valid.
		for j := len(m.ckpts) - 1; j >= 0; j-- {
			if m.ckptValidFor(m.ckpts[j], frame) {
				m.restoreWarm(j, frame)
				return
			}
		}
	}
	m.resetTokens(frame)
}

// ckptValidFor reports whether resuming from s with the desired
// initial-token frame keeps the replayed prefix bit-identical.
func (m *Machine) ckptValidFor(s *checkpoint, des []int64) bool {
	for i, es := range m.edgeList {
		delta := des[i] - m.ckptTokens[i]
		if delta == 0 {
			continue
		}
		if es.recordOcc {
			// Recorded occupancy samples store absolute token counts;
			// the prefix's samples would be off by delta.
			return false
		}
		sn := &s.edges[i]
		if delta < 0 && sn.min < -delta {
			return false
		}
		if delta > 0 && sn.minShortfall <= delta {
			return false
		}
	}
	return true
}

// restoreWarm restores checkpoint j, shifts the changed edges' token
// statistics by their deltas (valid checkpoints replay the exact same
// transfer sequence, so every occupancy value on a changed edge differs by
// exactly the initial-token delta), adjusts the retained older checkpoints
// the same way, and arms Run to resume.
//
//vrdf:noalloc
func (m *Machine) restoreWarm(j int, des []int64) {
	s := m.ckpts[j]
	m.restoreFrom(s)
	m.dropCheckpoints(j + 1)
	for i, es := range m.edgeList {
		delta := des[i] - m.ckptTokens[i]
		if delta == 0 {
			continue
		}
		es.tokens += delta
		es.peak += delta
		es.min += delta
		if es.minShortfall != noShortfall {
			es.minShortfall -= delta
		}
		for _, c := range m.ckpts {
			sn := &c.edges[i]
			sn.tokens += delta
			sn.peak += delta
			sn.min += delta
			if sn.minShortfall != noShortfall {
				sn.minShortfall -= delta
			}
		}
	}
	copy(m.ckptTokens, des)
	copy(m.runTokens, des)
	// The checkpoints this run takes carry a start-recording prefix only
	// if it records; ckptKeyMatches let it resume only if the kept ones do.
	m.ckptStarts = m.recStarts
	m.ckptNext = s.events + m.ckptEvery
	m.ran = false
	m.resumed = true
	m.resumeTick = s.tick
}
