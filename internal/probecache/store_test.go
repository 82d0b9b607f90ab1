package probecache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

func pairGraph(t *testing.T) *taskgraph.Graph {
	t.Helper()
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphKeyDeterministicAndSensitive(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "policy=equation4")
	if key != GraphKey(g, "policy=equation4") {
		t.Fatal("fingerprint is not deterministic")
	}
	if key == GraphKey(g, "policy=baseline") {
		t.Error("parts do not distinguish fingerprints")
	}
	if key == GraphKey(g.Clone()) {
		t.Error("parts absent vs present collide")
	}
	if GraphKey(g) != GraphKey(g.Clone()) {
		t.Error("clone changed the fingerprint")
	}
	// Any semantic edit must move the key.
	mutated := g.Clone()
	mutated.Tasks()[0].WCRT = r(2, 1)
	if GraphKey(g) == GraphKey(mutated) {
		t.Error("WCRT change kept the fingerprint")
	}
	sized := g.Clone()
	sized.Buffers()[0].Capacity = 7
	if GraphKey(g) == GraphKey(sized) {
		t.Error("capacity change kept the fingerprint")
	}
	// Insertion order must not matter: same tasks/buffer added in another
	// order fingerprints identically.
	other := taskgraph.New()
	if _, err := other.AddTask("wb", r(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.AddTask("wa", r(1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.AddBuffer(taskgraph.Buffer{
		Producer: "wa", Consumer: "wb",
		Prod: taskgraph.MustQuanta(3), Cons: taskgraph.MustQuanta(2, 3),
	}); err != nil {
		t.Fatal(err)
	}
	if GraphKey(g) != GraphKey(other) {
		t.Error("task insertion order changed the fingerprint")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	// A directory that does not exist yet reads as empty; the first
	// Flush creates it.
	dir := filepath.Join(t.TempDir(), "not-yet")
	g := pairGraph(t)
	key := GraphKey(g, "test")

	s := NewStore(dir)
	e := s.Entry(key)
	if st := s.Stats(); st.Loaded != 0 || st.Skipped != 0 {
		t.Fatalf("missing directory was not a plain miss: %+v", st)
	}
	f, err := e.Frontier([]string{"wa->wb", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(map[string]int64{"wa->wb": 4, "x": 2}, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(map[string]int64{"wa->wb": 2, "x": 1}, false); err != nil {
		t.Fatal(err)
	}
	e.Periods().Insert(r(3, 1), Verdict{Valid: true, Total: 7})
	e.Periods().Insert(r(1, 2), Verdict{Valid: false})
	if n, err := s.Flush(); err != nil || n != 1 {
		t.Fatalf("Flush = (%d, %v), want (1, nil)", n, err)
	}
	// The payload lands at <dir>/<fingerprint>.json, the layout every
	// earlier -cache-dir used.
	if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
		t.Fatalf("payload not at <dir>/<fingerprint>.json: %v", err)
	}

	// A fresh store warm-starts from the file.
	warm := NewStore(dir)
	we := warm.Entry(key)
	wf, err := we.Frontier([]string{"wa->wb", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if feasible, hit := wf.Lookup(map[string]int64{"wa->wb": 9, "x": 9}); !hit || !feasible {
		t.Errorf("warm frontier missed a dominated probe: (%v, %v)", feasible, hit)
	}
	if feasible, hit := wf.Lookup(map[string]int64{"wa->wb": 1, "x": 1}); !hit || feasible {
		t.Errorf("warm frontier missed a dominated infeasible probe: (%v, %v)", feasible, hit)
	}
	if v, ok := we.Periods().Lookup(r(3, 1)); !ok || !v.Valid || v.Total != 7 {
		t.Errorf("warm periods = (%+v, %v)", v, ok)
	}
	if st := warm.Stats(); st.Loaded != 1 || st.Skipped != 0 {
		t.Errorf("stats = %+v, want one loaded file", st)
	}

	// Re-flushing a warm store keeps the file loadable and atomic writes
	// leave no temp litter behind.
	if _, err := warm.Flush(); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil || len(matches) != 0 {
		t.Errorf("temp files left behind: %v (%v)", matches, err)
	}
}

// corruptionCase writes a bad cache file and expects the loader to ignore
// it and start cold — never to fail and never to trust it.
func TestStoreIgnoresUntrustedFiles(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "test")
	buffers := []string{"wa->wb"}

	// write seals the file like a real Flush would (the checksum is
	// computed over whatever Version/Fingerprint the case supplies), so
	// each case exercises the one validation layer it is about.
	write := func(t *testing.T, dir string, f diskFile) {
		t.Helper()
		data, err := seal(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	expectCold := func(t *testing.T, dir string) {
		t.Helper()
		s := NewStore(dir)
		e := s.Entry(key)
		f, err := e.Frontier(buffers)
		if err != nil {
			t.Fatal(err)
		}
		if feas, inf := f.Size(); feas+inf != 0 {
			t.Errorf("untrusted file was absorbed: %d feasible, %d infeasible", feas, inf)
		}
		if n := e.Periods().Len(); n != 0 {
			t.Errorf("untrusted periods absorbed: %d", n)
		}
	}

	t.Run("garbage", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		expectCold(t, dir)
		if st := NewStoreLoaded(t, dir, key, buffers); st.Skipped != 1 {
			t.Errorf("skipped = %d, want 1", st.Skipped)
		}
	})
	t.Run("version-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version + 1, Fingerprint: key,
			Periods: []periodRecord{{Num: 1, Den: 1, Valid: true}}})
		expectCold(t, dir)
	})
	t.Run("fingerprint-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: "deadbeef",
			Periods: []periodRecord{{Num: 1, Den: 1, Valid: true}}})
		expectCold(t, dir)
	})
	t.Run("non-positive-period", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: key,
			Periods: []periodRecord{{Num: -1, Den: 1, Valid: true}}})
		expectCold(t, dir)
	})
	t.Run("contradictory-frontier", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: key,
			Frontier: &frontierSnapshot{
				Buffers:    buffers,
				Feasible:   [][]int64{{2}},
				Infeasible: [][]int64{{3}}, // feasible 2 ≤ infeasible 3: impossible
			}})
		expectCold(t, dir)
	})
	t.Run("wrong-buffer-order", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: key,
			Frontier: &frontierSnapshot{Buffers: []string{"other"}, Feasible: [][]int64{{2}}}})
		expectCold(t, dir)
	})
	t.Run("missing-checksum", func(t *testing.T) {
		dir := t.TempDir()
		data, err := json.Marshal(diskFile{Version: Version, Fingerprint: key,
			Periods: []periodRecord{{Num: 1, Den: 1, Valid: true}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectCold(t, dir)
	})
	t.Run("checksum-mismatch", func(t *testing.T) {
		// A flipped digit in a Total parses fine and is monotonically
		// plausible — only the content checksum can catch it.
		dir := t.TempDir()
		good := diskFile{Version: Version, Fingerprint: key,
			Periods: []periodRecord{{Num: 3, Den: 1, Valid: true, Total: 7}}}
		sum, err := sumOf(good)
		if err != nil {
			t.Fatal(err)
		}
		good.Sum = sum
		good.Periods[0].Total = 8 // corrupt AFTER sealing
		data, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectCold(t, dir)
		if st := NewStoreLoaded(t, dir, key, buffers); st.Skipped != 1 {
			t.Errorf("skipped = %d, want 1", st.Skipped)
		}
	})
	t.Run("unsafe-fingerprint", func(t *testing.T) {
		// A fingerprint that is not a plain file name is never read or
		// written, inside the cache directory or outside it.
		for _, bad := range []string{"../x", ".hidden", strings.Repeat("a", 257), "a/b"} {
			root := t.TempDir()
			dir := filepath.Join(root, "cache")
			if err := os.MkdirAll(filepath.Join(dir, "a"), 0o755); err != nil {
				t.Fatal(err)
			}
			// A trustworthy payload planted where the unsafe name points.
			data, err := seal(diskFile{Version: Version, Fingerprint: bad,
				Periods: []periodRecord{{Num: 1, Den: 1, Valid: true}}})
			if err != nil {
				t.Fatal(err)
			}
			planted := filepath.Join(dir, bad+".json")
			if len(bad) <= 256 {
				if err := os.WriteFile(planted, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s := NewStore(dir)
			e := s.Entry(bad)
			if st := s.Stats(); st.Loaded != 0 || e.Periods().Len() != 0 {
				t.Errorf("%q: payload outside the safe layout was loaded: %+v", bad, st)
			}
			e.Periods().Insert(r(2, 1), Verdict{Valid: true, Total: 3})
			if n, err := s.Flush(); err == nil || n != 0 {
				t.Errorf("%q: Flush = (%d, %v), want an error and nothing written", bad, n, err)
			}
			if len(bad) <= 256 {
				if got, err := os.ReadFile(planted); err != nil || string(got) != string(data) {
					t.Errorf("%q: Flush touched %s", bad, planted)
				}
			}
			var files []string
			if err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err == nil && !d.IsDir() && p != planted {
					files = append(files, p)
				}
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if len(files) != 0 {
				t.Errorf("%q: Flush wrote %v", bad, files)
			}
		}
	})
}

// TestStoreToleratesTruncationAtEveryByte flushes a real entry, then
// truncates the persisted file at every possible length: every prefix
// must load as either a trusted full file (only the full length) or a
// cold start — never an error, never partial trust.
func TestStoreToleratesTruncationAtEveryByte(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "truncate")
	buffers := []string{"wa->wb"}

	dir := t.TempDir()
	s := NewStore(dir)
	e := s.Entry(key)
	f, err := e.Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(map[string]int64{"wa->wb": 4}, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert(map[string]int64{"wa->wb": 1}, false); err != nil {
		t.Fatal(err)
	}
	e.Periods().Insert(r(3, 1), Verdict{Valid: true, Total: 7})
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key+".json")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n <= len(full); n++ {
		if err := os.WriteFile(path, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		warm := NewStore(dir)
		we := warm.Entry(key)
		wf, err := we.Frontier(buffers)
		if err != nil {
			t.Fatalf("truncated at %d/%d bytes: Frontier errored: %v", n, len(full), err)
		}
		st := warm.Stats()
		feas, inf := wf.Size()
		switch {
		case st.Loaded == 1:
			// Trusting a prefix is only sound when it is semantically the
			// whole file (e.g. only the trailing newline is gone): the
			// checksum re-verifies from the parsed content, so a trusted
			// load must reproduce EVERYTHING — all-or-nothing, by
			// construction.
			if feas != 1 || inf != 1 || we.Periods().Len() != 1 {
				t.Fatalf("truncated at %d/%d bytes half-trusted: frontier (%d, %d), periods %d",
					n, len(full), feas, inf, we.Periods().Len())
			}
			if v, ok := we.Periods().Lookup(r(3, 1)); !ok || !v.Valid || v.Total != 7 {
				t.Fatalf("truncated at %d/%d bytes loaded an altered verdict: (%+v, %v)", n, len(full), v, ok)
			}
		case st.Loaded == 0 && feas+inf == 0 && we.Periods().Len() == 0:
			// Cold start: the truncation was detected and ignored.
		default:
			t.Fatalf("truncated at %d/%d bytes was part-trusted: stats %+v, frontier (%d, %d), periods %d",
				n, len(full), st, feas, inf, we.Periods().Len())
		}
	}
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if st := NewStoreLoaded(t, dir, key, buffers); st.Loaded != 1 {
		t.Fatalf("restored full file did not warm-start: %+v", st)
	}
}

// TestFlushMergesConcurrentReplicas drives two stores over one shared
// directory — two processes sharing a -cache-dir — and checks a flush
// folds in what the other replica persisted instead of overwriting it.
func TestFlushMergesConcurrentReplicas(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "merge")
	buffers := []string{"wa->wb"}
	dir := t.TempDir()

	a, b := NewStore(dir), NewStore(dir)
	af, err := a.Entry(key).Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := b.Entry(key).Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	// Replica A learns a feasible point and a period verdict; replica B
	// learns an infeasible point and a different period verdict.
	if err := af.Insert(map[string]int64{"wa->wb": 5}, true); err != nil {
		t.Fatal(err)
	}
	a.Entry(key).Periods().Insert(r(3, 1), Verdict{Valid: true, Total: 5})
	if err := bf.Insert(map[string]int64{"wa->wb": 1}, false); err != nil {
		t.Fatal(err)
	}
	b.Entry(key).Periods().Insert(r(1, 2), Verdict{Valid: false})

	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	warm := NewStore(dir)
	wf, err := warm.Entry(key).Frontier(buffers)
	if err != nil {
		t.Fatal(err)
	}
	if feasible, hit := wf.Lookup(map[string]int64{"wa->wb": 9}); !hit || !feasible {
		t.Errorf("replica A's feasible verdict lost in merge: (%v, %v)", feasible, hit)
	}
	if feasible, hit := wf.Lookup(map[string]int64{"wa->wb": 1}); !hit || feasible {
		t.Errorf("replica B's infeasible verdict lost in merge: (%v, %v)", feasible, hit)
	}
	p := warm.Entry(key).Periods()
	if v, ok := p.Lookup(r(3, 1)); !ok || !v.Valid || v.Total != 5 {
		t.Errorf("replica A's period verdict lost in merge: (%+v, %v)", v, ok)
	}
	if v, ok := p.Lookup(r(1, 2)); !ok || v.Valid {
		t.Errorf("replica B's period verdict lost in merge: (%+v, %v)", v, ok)
	}
	if err := wf.SelfCheck(); err != nil {
		t.Errorf("merged frontier fails self-check: %v", err)
	}
}

// NewStoreLoaded opens a store, touches the entry and returns the stats;
// helper for asserting skip counters.
func NewStoreLoaded(t *testing.T, dir, key string, buffers []string) StoreStats {
	t.Helper()
	s := NewStore(dir)
	e := s.Entry(key)
	if _, err := e.Frontier(buffers); err != nil {
		t.Fatal(err)
	}
	return s.Stats()
}

func TestEntryFrontierOrderMismatch(t *testing.T) {
	s := NewStore("")
	e := s.Entry("k")
	if _, err := e.Frontier([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Frontier([]string{"b", "a"}); err == nil {
		t.Error("conflicting buffer order accepted")
	}
	if _, err := e.Frontier([]string{"a", "b"}); err != nil {
		t.Errorf("matching order rejected: %v", err)
	}
}

func TestMemoryStoreFlushIsNoOp(t *testing.T) {
	s := NewStore("")
	e := s.Entry("k")
	e.Periods().Insert(ratio.One, Verdict{Valid: true})
	if n, err := s.Flush(); err != nil || n != 0 {
		t.Errorf("Flush on memory store = (%d, %v), want (0, nil)", n, err)
	}
}

func TestFlushSkipsEmptyEntries(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	s.Entry("empty")
	if n, err := s.Flush(); err != nil || n != 0 {
		t.Errorf("Flush wrote %d files (%v), want 0", n, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), ".json") {
			t.Errorf("empty entry persisted: %s", de.Name())
		}
	}
}
