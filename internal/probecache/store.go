package probecache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"vrdfcap/internal/taskgraph"
)

// Version is the persisted format version. A payload carrying any other
// version is ignored on load; Flush always writes the current version.
// Version 2 added the content checksum (Sum): a flipped byte that still
// parses must be detectable, because a flipped frontier vector could
// change a minimum.
const Version = 2

var errBadSum = errors.New("probecache: content checksum mismatch")

// Store maps canonical graph fingerprints (GraphKey) to capacity
// frontiers. A store without a directory lives purely in memory; with
// one, Frontier warm-starts from the fingerprint's file when a
// trustworthy one exists, and Flush persists every frontier back, merging
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
	entries map[string]*entry
	loaded  atomic.Int64 // payloads absorbed from the directory
	skipped atomic.Int64 // payloads present but untrusted
}

// entry holds one fingerprint's frontier.
type entry struct {
	fp       string
	once     sync.Once
	frontier atomic.Pointer[Frontier] // nil until the first load settles
}

// NewStore returns a store persisting to a directory of JSON files;
// dir == "" disables the persistence tier. The directory is created on
// the first Flush that has something to write, so a directory that does
// not exist yet simply reads as empty.
func NewStore(dir string) *Store {
	return &Store{dir: dir, entries: make(map[string]*entry)}
}

// Frontier returns the capacity frontier for a fingerprint over the given
// buffer order, creating it on first use. A persisted store warm-starts a
// new frontier from the fingerprint's payload once; a payload that fails
// any check starts it cold — the cache is advisory, so the caller simply
// probes by simulation — and is not reread later. All callers sharing a
// fingerprint must agree on the buffer order; a mismatch is an error
// because mixing projections would corrupt the dominance test.
func (s *Store) Frontier(fingerprint string, buffers []string) (*Frontier, error) {
	s.mu.Lock()
	e, ok := s.entries[fingerprint]
	if !ok {
		e = &entry{fp: fingerprint}
		s.entries[fingerprint] = e
	}
	s.mu.Unlock()
	// Outside s.mu: file I/O must not serialise unrelated entries.
	// Concurrent callers of the SAME entry block here until the load
	// settles, which is exactly the warm-start they asked for.
	e.once.Do(func() { e.frontier.Store(s.load(fingerprint, buffers)) })
	fr := e.frontier.Load()
	if !fr.SameKeys(buffers) {
		return nil, fmt.Errorf("probecache: entry %s frontier is over buffers %v, caller wants %v",
			fingerprint, fr.Keys(), buffers)
	}
	return fr, nil
}

// diskFile is the persisted form of one entry.
type diskFile struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Sum is the content checksum: hex sha256 over the compact JSON
	// marshal of this struct with Sum itself empty. It guards against
	// byte corruption that still parses — the monotonicity checks on
	// absorb cannot notice a plausibly-flipped capacity.
	Sum      string            `json:"sum,omitempty"`
	Frontier *frontierSnapshot `json:"frontier,omitempty"`
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
// fingerprint and content checksum. Deeper validation (buffer order,
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

// load returns a frontier over buffers, warm-started from the
// fingerprint's payload when the store persists and a trustworthy payload
// exists, cold otherwise. A payload is absorbed wholesale or not at all: a
// partially contradictory one is untrusted in full.
func (s *Store) load(fingerprint string, buffers []string) *Frontier {
	fr := NewFrontier(buffers)
	if s.dir == "" {
		return fr
	}
	data, err := readPayload(s.dir, fingerprint)
	if err != nil {
		// Miss or unreadable file: start cold. A cache may cost probes,
		// never block them.
		return fr
	}
	f, err := decodeFile(data, fingerprint)
	if err == nil && f.Frontier != nil {
		err = fr.absorb(*f.Frontier)
	}
	if err != nil {
		s.skipped.Add(1)
		return NewFrontier(buffers)
	}
	s.loaded.Add(1)
	return fr
}

// Flush writes every non-empty frontier back to the directory and
// returns how many payloads it wrote; memory-only stores flush nothing.
// Each frontier is merged with the payload currently persisted under its
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
	for _, e := range s.sortedEntries() {
		fr := e.frontier.Load()
		if fr == nil {
			continue
		}
		snap := fr.snapshot()
		if len(snap.Feasible)+len(snap.Infeasible) == 0 {
			continue
		}
		f := diskFile{Version: Version, Fingerprint: e.fp, Frontier: &snap}
		if data, rerr := readPayload(s.dir, e.fp); rerr == nil {
			if theirs, derr := decodeFile(data, e.fp); derr == nil && theirs.Frontier != nil {
				f.Frontier = merge(snap, *theirs.Frontier)
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

// sortedEntries lists the entries in fingerprint order. A flush must
// touch payloads in the same order every run, or two flushes racing over
// the same directory could interleave differently run to run.
func (s *Store) sortedEntries() []*entry {
	s.mu.Lock()
	entries := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].fp < entries[j].fp })
	return entries
}

// merge folds a replica's persisted frontier (theirs, already
// version/fingerprint/checksum-validated) into the one about to be
// written (ours). Persisted data stays advisory: theirs is absorbed
// wholesale or dropped wholesale, and on any conflict — a mismatched
// buffer order, a monotonicity contradiction — ours wins, because ours
// was computed in this process and theirs may be stale or poisoned.
func merge(ours, theirs frontierSnapshot) *frontierSnapshot {
	fr := NewFrontier(ours.Buffers)
	if fr.absorb(ours) != nil || fr.absorb(theirs) != nil {
		return &ours
	}
	snap := fr.snapshot()
	return &snap
}

// StoreStats aggregates a store's cache effectiveness for reporting.
type StoreStats struct {
	Entries       int   // distinct fingerprints touched
	Loaded        int   // payloads warm-started from the directory
	Skipped       int   // payloads present but untrusted (bad version, corrupt, ...)
	VerdictHits   int64 // lookups answered from cache across all frontiers
	VerdictMisses int64 // lookups that had to compute
}

// Stats returns the store's aggregate counters. It only sums, so it walks
// the entries once under s.mu in map order, copying and sorting nothing.
func (s *Store) Stats() StoreStats {
	st := StoreStats{Loaded: int(s.loaded.Load()), Skipped: int(s.skipped.Load())}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Entries = len(s.entries)
	for _, e := range s.entries {
		if fr := e.frontier.Load(); fr != nil {
			h, m := fr.Counters()
			st.VerdictHits += h
			st.VerdictMisses += m
		}
	}
	return st
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
//
// The preimage is built whole in one buffer and hashed with one call: each
// field is its bytes and a 0 byte, numbers in decimal, tasks in name order
// and buffers in DefaultName order.
func GraphKey(g *taskgraph.Graph, parts ...string) string {
	var stack [1024]byte // a sized §5 MP3 minimisation key hashes about 385 bytes
	pre := stack[:0]
	var quanta [16]int64 // scratch for one quanta set; the largest §5 MP3 set holds 14
	vals := quanta[:0]
	if g != nil {
		tasks := slices.Clone(g.Tasks())
		slices.SortFunc(tasks, func(a, b *taskgraph.Task) int { return strings.Compare(a.Name, b.Name) })
		buffers := make([]namedBuffer, len(g.Buffers()))
		for i, b := range g.Buffers() {
			buffers[i] = namedBuffer{name: b.DefaultName(), b: b}
		}
		slices.SortFunc(buffers, func(a, b namedBuffer) int { return strings.Compare(a.name, b.name) })
		for _, t := range tasks {
			pre = appendField(pre, "task")
			pre = appendField(pre, t.Name)
			pre = appendNum(pre, t.WCRT.Num())
			pre = appendNum(pre, t.WCRT.Den())
		}
		for _, nb := range buffers {
			b := nb.b
			pre = appendField(pre, "buffer")
			pre = appendField(pre, nb.name)
			pre = appendField(pre, b.Producer)
			pre = appendField(pre, b.Consumer)
			vals = b.Prod.AppendValues(vals[:0])
			for _, v := range vals {
				pre = appendNum(pre, v)
			}
			pre = appendField(pre, "cons")
			vals = b.Cons.AppendValues(vals[:0])
			for _, v := range vals {
				pre = appendNum(pre, v)
			}
			pre = appendNum(pre, b.Capacity)
			pre = appendNum(pre, b.ContainerBytes)
		}
	}
	for _, p := range parts {
		pre = appendField(pre, "part")
		pre = appendField(pre, p)
	}
	sum := sha256.Sum256(pre)
	return hex.EncodeToString(sum[:])
}

// namedBuffer pairs a buffer with its DefaultName, computed once for the
// sort.
type namedBuffer struct {
	name string
	b    *taskgraph.Buffer
}

// appendField appends one string field of a GraphKey preimage.
func appendField(pre []byte, s string) []byte {
	return append(append(pre, s...), 0)
}

// appendNum appends one number field of a GraphKey preimage.
func appendNum(pre []byte, n int64) []byte {
	return append(strconv.AppendInt(pre, n, 10), 0)
}
