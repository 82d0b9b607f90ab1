package probecache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// Version is the persisted format version. A payload carrying any other
// version is ignored on load; Flush always writes the current version.
// Version 2 added the content checksum (Sum): a flipped byte that still
// parses must be detectable, because a silently altered Total would
// change sweep answers.
const Version = 2

var (
	errNonPositivePeriod = errors.New("probecache: persisted period is not positive")
	errBadSum            = errors.New("probecache: content checksum mismatch")
)

// Store is a registry of cache entries keyed by canonical graph
// fingerprints (GraphKey). A store without a directory lives purely in
// memory; with one, Entry warm-starts from the fingerprint's file when a
// trustworthy one exists, and Flush persists every entry back, merging
// with the file already there. Processes sharing one directory therefore
// pool verdicts, though two interleaved flushes can lose some (see
// Flush). Persisted data is advisory — a payload that is unreadable,
// malformed, mis-versioned, mis-fingerprinted, checksum-broken or
// monotonically inconsistent is skipped without error, and the verdicts
// recomputed in its place overwrite it on the next Flush.
//
// Safe for concurrent use.
type Store struct {
	dir     string // "": memory-only
	mu      sync.Mutex
	entries map[string]*Entry
	loaded  int // payloads absorbed from the directory
	skipped int // payloads present but untrusted
}

// NewStore returns a store persisting to a directory of JSON files;
// dir == "" disables the persistence tier. The directory is created on
// the first Flush that has something to write, so a directory that does
// not exist yet simply reads as empty.
func NewStore(dir string) *Store {
	return &Store{dir: dir, entries: make(map[string]*Entry)}
}

// Entry returns the cache entry for a fingerprint, creating it (and, for
// persisted stores, attempting a one-time load of its payload) on first
// use. A load that fails for any reason starts the entry cold — the cache
// is advisory, so the caller simply probes by simulation; the entry is
// NOT reloaded later.
func (s *Store) Entry(fingerprint string) *Entry {
	s.mu.Lock()
	e, ok := s.entries[fingerprint]
	if !ok {
		e = &Entry{fp: fingerprint, periods: NewPeriods()}
		s.entries[fingerprint] = e
	}
	s.mu.Unlock()
	if s.dir != "" {
		// Outside s.mu: file I/O must not serialise unrelated entries.
		// Concurrent callers of the SAME entry block here until the load
		// settles, which is exactly the warm-start they asked for.
		e.loadOnce.Do(func() { s.load(e) })
	}
	return e
}

// diskFile is the persisted form of one entry.
type diskFile struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Sum is the content checksum: hex sha256 over the compact JSON
	// marshal of this struct with Sum itself empty. It guards against
	// byte corruption that still parses — the monotonicity checks below
	// cannot notice a plausibly-flipped Total.
	Sum      string            `json:"sum,omitempty"`
	Frontier *frontierSnapshot `json:"frontier,omitempty"`
	Periods  []periodRecord    `json:"periods,omitempty"`
}

// frontierSnapshot is the persisted form of a Frontier.
type frontierSnapshot struct {
	Buffers    []string  `json:"buffers"`
	Feasible   [][]int64 `json:"feasible,omitempty"`
	Infeasible [][]int64 `json:"infeasible,omitempty"`
}

// sumOf computes the content checksum of f (ignoring any Sum it carries).
func sumOf(f diskFile) (string, error) {
	f.Sum = ""
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// seal marshals f with its content checksum filled in.
func seal(f diskFile) ([]byte, error) {
	sum, err := sumOf(f)
	if err != nil {
		return nil, err
	}
	f.Sum = sum
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// decodeFile parses and validates a persisted payload: version,
// fingerprint and content checksum. Deeper validation (period positivity,
// frontier consistency) happens on absorb.
func decodeFile(data []byte, fingerprint string) (diskFile, error) {
	var f diskFile
	if err := json.Unmarshal(data, &f); err != nil {
		return diskFile{}, err
	}
	if f.Version != Version {
		return diskFile{}, fmt.Errorf("probecache: payload version %d, want %d", f.Version, Version)
	}
	if f.Fingerprint != fingerprint {
		return diskFile{}, fmt.Errorf("probecache: payload is for fingerprint %s, not %s", f.Fingerprint, fingerprint)
	}
	sum, err := sumOf(f)
	if err != nil {
		return diskFile{}, err
	}
	if f.Sum != sum {
		return diskFile{}, errBadSum
	}
	return f, nil
}

// load absorbs the entry's persisted payload if one exists and is
// trustworthy. Runs once per entry, outside the store mutex.
func (s *Store) load(e *Entry) {
	data, err := readPayload(s.dir, e.fp)
	if err != nil {
		// Miss or unreadable file: start cold. A cache may cost probes,
		// never block them.
		return
	}
	f, err := decodeFile(data, e.fp)
	if err != nil {
		s.note(&s.skipped)
		return
	}
	e.mu.Lock()
	aerr := e.periods.absorb(f.Periods)
	if aerr != nil {
		// Partially absorbed verdicts are safe individually (each is an
		// independent fact), but the payload as a whole is untrusted:
		// reset.
		e.periods = NewPeriods()
	} else {
		// The frontier snapshot needs the caller's buffer order to
		// validate, so it stays pending until Entry.Frontier is called.
		e.pending = f.Frontier
	}
	e.mu.Unlock()
	if aerr != nil {
		s.note(&s.skipped)
	} else {
		s.note(&s.loaded)
	}
}

func (s *Store) note(counter *int) {
	s.mu.Lock()
	*counter++
	s.mu.Unlock()
}

// Flush writes every entry with content back to the directory and
// returns how many payloads it wrote; memory-only stores flush nothing.
// Each entry is merged with the payload currently persisted under its
// fingerprint and written back sealed with a fresh checksum, so verdicts
// another process flushed earlier survive. The read-merge-rename is not
// atomic across processes: a flush of the same fingerprint landing
// between this one's read and its rename is overwritten, and its
// verdicts are lost. Losing verdicts only costs re-simulation; the
// answers never change.
func (s *Store) Flush() (written int, err error) {
	if s.dir == "" {
		return 0, nil
	}
	s.mu.Lock()
	entries := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	// Deterministic write order: a flush must touch payloads in the same
	// order every run, or two flushes racing over the same directory
	// could interleave differently run to run.
	sort.Slice(entries, func(i, j int) bool { return entries[i].fp < entries[j].fp })
	for _, e := range entries {
		f := e.file()
		if f.Frontier == nil && len(f.Periods) == 0 {
			continue
		}
		if data, rerr := readPayload(s.dir, e.fp); rerr == nil {
			if theirs, derr := decodeFile(data, e.fp); derr == nil {
				f = mergeFiles(f, theirs)
			}
			// An untrusted persisted payload is simply overwritten.
		}
		data, err := seal(f)
		if err != nil {
			return written, fmt.Errorf("probecache: encode %s: %w", e.fp, err)
		}
		if werr := writePayload(s.dir, e.fp, data); werr != nil {
			return written, fmt.Errorf("probecache: write %s: %w", e.fp, werr)
		}
		written++
	}
	return written, nil
}

// mergeFiles folds a replica's persisted payload (theirs, already
// version/fingerprint/checksum-validated) into the payload about to be
// written (ours). Persisted data stays advisory: theirs is absorbed
// wholesale or dropped wholesale, and on any conflict — an exact-period
// disagreement, a mismatched buffer order, a monotonicity contradiction —
// ours wins, because ours was computed in this process and theirs may be
// stale or poisoned.
func mergeFiles(ours, theirs diskFile) diskFile {
	if len(theirs.Periods) > 0 {
		p := NewPeriods()
		// Theirs first, ours second: Insert overwrites, so our verdict
		// wins any exact-period conflict.
		if p.absorb(theirs.Periods) == nil && p.absorb(ours.Periods) == nil {
			ours.Periods = p.snapshot()
		}
	}
	if theirs.Frontier != nil {
		if ours.Frontier == nil {
			fr := NewFrontier(theirs.Frontier.Buffers)
			if fr.absorb(*theirs.Frontier) == nil {
				snap := fr.snapshot()
				ours.Frontier = &snap
			}
		} else {
			fr := NewFrontier(ours.Frontier.Buffers)
			if fr.absorb(*ours.Frontier) == nil && fr.absorb(*theirs.Frontier) == nil {
				snap := fr.snapshot()
				ours.Frontier = &snap
			}
		}
	}
	return ours
}

// StoreStats aggregates a store's cache effectiveness for reporting.
type StoreStats struct {
	Entries int   // distinct fingerprints touched
	Loaded  int   // payloads warm-started from the directory
	Skipped int   // payloads present but untrusted (bad version, corrupt, ...)
	Hits    int64 // lookups answered from cache across all entries
	Misses  int64 // lookups that had to compute
	// Backend describes the persistence tier: "dir:PATH", or "" for a
	// memory-only store.
	Backend string
}

// Stats returns the store's aggregate counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	st := StoreStats{Entries: len(s.entries), Loaded: s.loaded, Skipped: s.skipped}
	entries := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].fp < entries[j].fp })
	for _, e := range entries {
		e.mu.Lock()
		if e.frontier != nil {
			h, m := e.frontier.Counters()
			st.Hits += h
			st.Misses += m
		}
		h, m := e.periods.Counters()
		st.Hits += h
		st.Misses += m
		e.mu.Unlock()
	}
	if s.dir != "" {
		st.Backend = "dir:" + s.dir
	}
	return st
}

// Entry bundles the caches for one fingerprinted problem: a capacity
// frontier for minimization probes and a period-verdict cache for sweeps.
type Entry struct {
	fp       string
	loadOnce sync.Once
	mu       sync.Mutex
	pending  *frontierSnapshot // loaded from the directory, not yet validated
	frontier *Frontier
	periods  *Periods
}

// Fingerprint returns the entry's key.
func (e *Entry) Fingerprint() string { return e.fp }

// Frontier returns the entry's capacity frontier over the given buffer
// order, creating it on first use and absorbing any pending persisted
// snapshot that matches. All callers sharing an entry must agree on the
// buffer order; a mismatch is an error because mixing projections would
// corrupt the dominance test.
func (e *Entry) Frontier(buffers []string) (*Frontier, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frontier != nil {
		if !e.frontier.SameKeys(buffers) {
			return nil, fmt.Errorf("probecache: entry %s frontier is over buffers %v, caller wants %v",
				e.fp, e.frontier.Keys(), buffers)
		}
		return e.frontier, nil
	}
	e.frontier = NewFrontier(buffers)
	if e.pending != nil {
		// Advisory persisted data: absorb when consistent, drop wholesale
		// otherwise — a partially contradictory snapshot is untrusted in
		// full, so the half absorbed before the contradiction goes too.
		if e.frontier.absorb(*e.pending) != nil {
			e.frontier = NewFrontier(buffers)
		}
		e.pending = nil
	}
	return e.frontier, nil
}

// Periods returns the entry's period-verdict cache.
func (e *Entry) Periods() *Periods {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.periods
}

// file snapshots the entry for persistence.
func (e *Entry) file() diskFile {
	e.mu.Lock()
	frontier := e.frontier
	pending := e.pending
	periods := e.periods
	e.mu.Unlock()
	f := diskFile{Version: Version, Fingerprint: e.fp}
	switch {
	case frontier != nil:
		s := frontier.snapshot()
		if len(s.Feasible)+len(s.Infeasible) > 0 {
			f.Frontier = &s
		}
	case pending != nil:
		// Never materialised this run; keep the loaded snapshot as-is.
		f.Frontier = pending
	}
	f.Periods = periods.snapshot()
	sort.Slice(f.Periods, func(i, j int) bool {
		a := ratio.MustNew(f.Periods[i].Num, f.Periods[i].Den)
		b := ratio.MustNew(f.Periods[j].Num, f.Periods[j].Den)
		return a.Less(b)
	})
	return f
}

// GraphKey returns the canonical fingerprint of a task graph plus any
// caller-supplied parts that co-determine probe verdicts (constraint,
// firing horizon, workload descriptors, policy, ...). Two calls agree
// exactly when the graphs have identical tasks, buffers, quanta,
// capacities and container sizes — independent of insertion order — and
// the parts match. Quanta sequences and CheckFuncs are functions and
// cannot be fingerprinted, so callers must fold a faithful textual
// description of them into parts; omitting a distinguishing part conflates
// distinct problems and poisons the shared cache.
func GraphKey(g *taskgraph.Graph, parts ...string) string {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	field := func(s string) {
		buf = append(buf[:0], s...)
		buf = append(buf, 0)
		h.Write(buf)
	}
	num := func(n int64) {
		buf = strconv.AppendInt(buf[:0], n, 10)
		buf = append(buf, 0)
		h.Write(buf)
	}
	if g != nil {
		tasks := append([]*taskgraph.Task(nil), g.Tasks()...)
		sort.Slice(tasks, func(i, j int) bool { return tasks[i].Name < tasks[j].Name })
		for _, t := range tasks {
			field("task")
			field(t.Name)
			num(t.WCRT.Num())
			num(t.WCRT.Den())
		}
		buffers := append([]*taskgraph.Buffer(nil), g.Buffers()...)
		sort.Slice(buffers, func(i, j int) bool { return buffers[i].DefaultName() < buffers[j].DefaultName() })
		for _, b := range buffers {
			field("buffer")
			field(b.DefaultName())
			field(b.Producer)
			field(b.Consumer)
			for _, v := range b.Prod.Values() {
				num(v)
			}
			field("cons")
			for _, v := range b.Cons.Values() {
				num(v)
			}
			num(b.Capacity)
			num(b.ContainerBytes)
		}
	}
	for _, p := range parts {
		field("part")
		field(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
