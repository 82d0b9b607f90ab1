package sim

import "fmt"

// Snapshot is a deep copy of a Machine's mutable run state — event
// calendar, actor states, edge token counts and the lengths of the
// recording buffers — in a reusable arena. Taking a snapshot into an arena
// that has reached its steady-state capacity performs no allocation, so
// checkpointing inside Run and snapshot pools shared across machines stay
// allocation-free after warm-up.
//
// A Snapshot is bound to the machine that filled it (Snapshot rebinds an
// arena on every call) and to that machine's reset epoch: recordings are
// stored as prefix lengths of the machine's live buffers, so a reset —
// which truncates those buffers — invalidates every earlier snapshot.
type Snapshot struct {
	owner  *Machine
	epoch  int64
	midRun bool // taken inside Run (an auto-checkpoint), not via the public API
	ran    bool
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

// Events returns the absolute event count at the snapshot.
func (s *Snapshot) Events() int64 { return s.events }

// Tick returns the simulation tick at the snapshot.
func (s *Snapshot) Tick() int64 { return s.tick }

// Snapshot deep-copies the machine's current run state into the given
// arena (allocating a fresh one when into is nil) and returns it. It may
// be called on a reset machine (capturing the ready-to-run state) or after
// a run (capturing the final state); Restore brings the machine back to
// exactly that point.
func (m *Machine) Snapshot(into *Snapshot) *Snapshot {
	if into == nil {
		into = &Snapshot{}
	}
	m.snapshotInto(into, 0, false)
	return into
}

// Restore reinstates a snapshot previously taken from this machine. It
// fails for a snapshot owned by another machine, taken before the most
// recent reset (the recordings it references were truncated), or taken by
// the internal checkpointing of a Run (use ResetWarm for those). Restoring
// discards the retained checkpoints: they may describe a different run
// than the restored state.
func (m *Machine) Restore(s *Snapshot) error {
	if s == nil {
		return fmt.Errorf("sim: Restore: nil snapshot")
	}
	if s.owner != m {
		return fmt.Errorf("sim: Restore: snapshot belongs to a different machine")
	}
	if s.epoch != m.epoch {
		return fmt.Errorf("sim: Restore: snapshot predates the machine's last reset")
	}
	if s.midRun {
		return fmt.Errorf("sim: Restore: snapshot is an internal run checkpoint; use ResetWarm")
	}
	m.restoreFrom(s)
	m.ran = s.ran
	m.resumed = false
	if s.events == 0 {
		// A pre-run state: its token counts are the initial tokens of
		// the run a subsequent Run will execute.
		for i, es := range m.edgeList {
			m.runTokens[i] = es.tokens
		}
	}
	m.dropCheckpoints(0)
	return nil
}

// snapshotInto fills s from the machine's current state. The caller must
// ensure the state is quiescent: no partially processed tick (inside Run
// this means after startDirty, with the dirty list empty).
func (m *Machine) snapshotInto(s *Snapshot, tick int64, midRun bool) {
	s.owner = m
	s.epoch = m.epoch
	s.midRun = midRun
	s.ran = m.ran
	s.tick = tick
	s.events = m.events
	s.seq = m.seq
	s.eq = append(s.eq[:0], m.eq...)
	if len(s.actors) != len(m.actors) {
		s.actors = make([]actorSnap, len(m.actors))
	}
	for i, a := range m.actors {
		s.actors[i] = actorSnap{
			started:   a.started,
			finished:  a.finished,
			busyTicks: a.busyTicks,
			busyUntil: a.busyUntil,
			readyAt:   a.readyAt,
			armedFor:  a.armedFor,
			startsLen: len(a.starts),
		}
	}
	if len(s.edges) != len(m.edgeList) {
		s.edges = make([]edgeSnap, len(m.edgeList))
	}
	for i, es := range m.edgeList {
		sn := edgeSnap{
			tokens:       es.tokens,
			peak:         es.peak,
			min:          es.min,
			produced:     es.produced,
			consumed:     es.consumed,
			minShortfall: es.minShortfall,
			recsLen:      len(es.recs),
			occLen:       len(es.occ),
		}
		if sn.occLen > 0 {
			sn.lastOcc = es.occ[sn.occLen-1]
		}
		s.edges[i] = sn
	}
}

// restoreFrom copies a snapshot's state back into the machine. Recording
// buffers are truncated to their snapshot lengths; their retained prefixes
// are identical to the snapshot's time (runs only append, and the one
// mutable element — the last occupancy sample — is restored explicitly).
//
//vrdf:noalloc
func (m *Machine) restoreFrom(s *Snapshot) {
	m.eq = append(m.eq[:0], s.eq...) //vrdf:allocok(the calendar keeps its capacity across Reset; a snapshot never holds more events than the run that produced it)
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
// ResetWarm only reuses checkpoints taken under the same stop horizon,
// periodic offsets and initial-token frame.
func (m *Machine) beginCheckpoints() {
	m.ckptEvery = initialCheckpointEvery
	m.ckptNext = m.ckptEvery
	m.ckptStop = m.cfg.Stop.Firings
	m.ckptOffs = m.ckptOffs[:0]
	for _, a := range m.actors {
		m.ckptOffs = append(m.ckptOffs, a.offsetT)
	}
	copy(m.ckptTokens, m.runTokens)
}

// ckptKeyMatches reports whether the machine's current stop horizon and
// periodic offsets equal those the retained checkpoints were taken under.
//
//vrdf:noalloc
func (m *Machine) ckptKeyMatches() bool {
	if m.cfg.Stop.Firings != m.ckptStop || len(m.ckptOffs) != len(m.actors) {
		return false
	}
	for i, a := range m.actors {
		if a.offsetT != m.ckptOffs[i] {
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
	s := m.grabSnapshot()
	m.snapshotInto(s, tick, true)
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

// grabSnapshot returns a checkpoint slot, reusing a retired one when the
// free list has any and otherwise taking the next unused slot of the
// machine's checkpoint arena.
//
//vrdf:noalloc
func (m *Machine) grabSnapshot() *Snapshot {
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
// several per slot.
func (m *Machine) newCheckpointArena() {
	n := m.ckptSlots + 1
	evCap, na, ne := cap(m.eq), len(m.actors), len(m.edgeList)
	m.ckptArena = make([]Snapshot, n)
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
		m.ckpts = make([]*Snapshot, 0, n)
		m.ckptFree = make([]*Snapshot, 0, n)
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

// ResetWarm prepares the next run like Reset, but resumes from a retained
// checkpoint of the previous run when the changed initial tokens provably
// cannot have affected the replayed prefix. It returns the number of
// events the resumed run skips re-executing (0 when it fell back to a cold
// reset). Unlike Reset, ResetWarm keeps the SetStopFirings and
// SetPeriodicOffsetTicks overrides — they are part of the checkpoint
// validity key, so callers set them first and warm-reset after.
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
// differential fuzz target in this package pins that equivalence.
func (m *Machine) ResetWarm(initialTokens map[string]int64) (resumedEvents int64, err error) {
	for name := range initialTokens {
		if _, ok := m.edges[name]; !ok {
			return 0, fmt.Errorf("sim: Reset: unknown edge %q", name)
		}
	}
	if m.ckptSlots == 0 || len(m.ckpts) == 0 || !m.ckptKeyMatches() {
		return 0, m.resetTokens(initialTokens)
	}
	// Desired initial tokens of the next run, per edge index.
	des := m.desScratch
	for i, es := range m.edgeList {
		tok := es.initial
		if v, ok := initialTokens[es.name]; ok {
			if v < 0 {
				return 0, fmt.Errorf("sim: Reset: edge %q: negative initial tokens %d", es.name, v)
			}
			tok = v
		}
		des[i] = tok
	}
	// Newest checkpoint valid for every changed edge wins. Both validity
	// quantities shrink monotonically over a run (the running minimum
	// can only fall, shortfalls only tighten), so if a checkpoint is
	// invalid every newer one is too, and every older one than a valid
	// one is also valid.
	for j := len(m.ckpts) - 1; j >= 0; j-- {
		if !m.ckptValidFor(m.ckpts[j], des) {
			continue
		}
		return m.restoreWarm(j, des), nil
	}
	return 0, m.resetTokens(initialTokens)
}

// ckptValidFor reports whether resuming from s with the desired
// initial-token frame keeps the replayed prefix bit-identical.
func (m *Machine) ckptValidFor(s *Snapshot, des []int64) bool {
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
// the same way, and arms Run to resume. Returns the events skipped.
//
//vrdf:noalloc
func (m *Machine) restoreWarm(j int, des []int64) int64 {
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
	m.ckptNext = s.events + m.ckptEvery
	m.ran = false
	m.resumed = true
	m.resumeTick = s.tick
	return s.events
}
