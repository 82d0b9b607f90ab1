package probecache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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
	buffers := []string{"wa->wb", "x"}

	s := NewStore(dir)
	f, err := s.Frontier(key, buffers)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Loaded != 0 || st.Skipped != 0 {
		t.Fatalf("missing directory was not a plain miss: %+v", st)
	}
	if err := f.Insert([]int64{4, 2}, true); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert([]int64{2, 1}, false); err != nil {
		t.Fatal(err)
	}
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
	wf, err := warm.Frontier(key, buffers)
	if err != nil {
		t.Fatal(err)
	}
	if feasible, hit := wf.Lookup([]int64{9, 9}); !hit || !feasible {
		t.Errorf("warm frontier missed a dominated probe: (%v, %v)", feasible, hit)
	}
	if feasible, hit := wf.Lookup([]int64{1, 1}); !hit || feasible {
		t.Errorf("warm frontier missed a dominated infeasible probe: (%v, %v)", feasible, hit)
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

// TestStoreReadsVersion2Payload pins the on-disk format: a version-2
// payload exactly as earlier releases wrote it (checksum included) still
// warm-starts, so upgrading never cold-starts a minimisation cache.
func TestStoreReadsVersion2Payload(t *testing.T) {
	const payload = `{
  "version": 2,
  "fingerprint": "golden",
  "sum": "655d5a7afda5926f3c9a429840e129cf26c649fd099a313efd09ad3d19ccf00a",
  "frontier": {
    "buffers": [
      "wa-\u003ewb"
    ],
    "feasible": [
      [
        4
      ]
    ],
    "infeasible": [
      [
        1
      ]
    ]
  }
}
`
	dir := t.TempDir()
	path := filepath.Join(dir, "golden.json")
	if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewStore(dir)
	f, err := s.Frontier("golden", []string{"wa->wb"})
	if err != nil {
		t.Fatal(err)
	}
	if feas, inf := f.Size(); feas != 1 || inf != 1 || s.Stats().Loaded != 1 {
		t.Fatalf("version-2 payload not loaded: frontier (%d, %d), stats %+v", feas, inf, s.Stats())
	}
	// Flushing what was loaded rewrites the same bytes.
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != payload {
		t.Errorf("re-flushed payload differs (%v):\n%s", err, got)
	}
}

// TestStoreConcurrentWarmStart has several goroutines meet one persisted
// fingerprint at once while another reads the stats: the payload is
// loaded exactly once and every caller gets the same warm frontier.
func TestStoreConcurrentWarmStart(t *testing.T) {
	dir := t.TempDir()
	buffers := []string{"a"}
	seed := NewStore(dir)
	f, err := seed.Frontier("k", buffers)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Insert([]int64{4}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Flush(); err != nil {
		t.Fatal(err)
	}

	s := NewStore(dir)
	const n = 8
	got := make([]*Frontier, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fr, err := s.Frontier("k", buffers)
			if err != nil {
				t.Error(err)
			}
			got[i] = fr
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = s.Stats()
		}
	}()
	wg.Wait()
	for i, fr := range got {
		if fr != got[0] {
			t.Fatalf("caller %d got a different frontier", i)
		}
	}
	if feasible, hit := got[0].Lookup([]int64{5}); !hit || !feasible {
		t.Errorf("concurrent warm start lost the persisted verdict: (%v, %v)", feasible, hit)
	}
	if st := s.Stats(); st.Loaded != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want one entry loaded once", st)
	}
}

// corruptionCase writes a bad cache file and expects the loader to ignore
// it and start cold — never to fail and never to trust it.
func TestStoreIgnoresUntrustedFiles(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "test")
	buffers := []string{"wa->wb"}
	valid := &frontierSnapshot{Buffers: buffers, Feasible: [][]int64{{4}}, Infeasible: [][]int64{{1}}}

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
	// expectCold asserts the payload was present, skipped as untrusted and
	// left the frontier empty.
	expectCold := func(t *testing.T, dir string) {
		t.Helper()
		s := NewStore(dir)
		f, err := s.Frontier(key, buffers)
		if err != nil {
			t.Fatal(err)
		}
		if feas, inf := f.Size(); feas+inf != 0 {
			t.Errorf("untrusted file was absorbed: %d feasible, %d infeasible", feas, inf)
		}
		if st := s.Stats(); st.Loaded != 0 || st.Skipped != 1 {
			t.Errorf("stats = %+v, want the payload skipped", st)
		}
	}

	t.Run("garbage", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		expectCold(t, dir)
	})
	t.Run("version-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version + 1, Fingerprint: key, Frontier: valid})
		expectCold(t, dir)
	})
	t.Run("fingerprint-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: "deadbeef", Frontier: valid})
		expectCold(t, dir)
	})
	t.Run("negative-capacity", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, diskFile{Version: Version, Fingerprint: key,
			Frontier: &frontierSnapshot{Buffers: buffers, Feasible: [][]int64{{4}}, Infeasible: [][]int64{{-1}}}})
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
		data, err := json.Marshal(diskFile{Version: Version, Fingerprint: key, Frontier: valid})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectCold(t, dir)
	})
	t.Run("checksum-mismatch", func(t *testing.T) {
		// A flipped digit in a frontier vector parses fine and is
		// monotonically plausible — only the content checksum can catch it.
		dir := t.TempDir()
		good := diskFile{Version: Version, Fingerprint: key,
			Frontier: &frontierSnapshot{Buffers: buffers, Feasible: [][]int64{{4}}, Infeasible: [][]int64{{1}}}}
		sum, err := sumOf(good)
		if err != nil {
			t.Fatal(err)
		}
		good.Sum = sum
		good.Frontier.Feasible[0][0] = 3 // corrupt AFTER sealing
		data, err := json.Marshal(good)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		expectCold(t, dir)
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
			data, err := seal(diskFile{Version: Version, Fingerprint: bad, Frontier: valid})
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
			f, err := s.Frontier(bad, buffers)
			if err != nil {
				t.Fatal(err)
			}
			if feas, inf := f.Size(); s.Stats().Loaded != 0 || feas+inf != 0 {
				t.Errorf("%q: payload outside the safe layout was loaded: %+v", bad, s.Stats())
			}
			if err := f.Insert([]int64{3}, true); err != nil {
				t.Fatal(err)
			}
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

// TestStoreToleratesTruncationAtEveryByte flushes a real frontier, then
// truncates the persisted file at every possible length: every prefix
// must load as either a trusted full file (only the full length) or a
// cold start — never an error, never partial trust.
func TestStoreToleratesTruncationAtEveryByte(t *testing.T) {
	g := pairGraph(t)
	key := GraphKey(g, "truncate")
	buffers := []string{"wa->wb", "x"}

	dir := t.TempDir()
	s := NewStore(dir)
	f, err := s.Frontier(key, buffers)
	if err != nil {
		t.Fatal(err)
	}
	// Two incomparable vectors per side, so a prefix could drop one.
	for _, v := range []struct {
		a, x     int64
		feasible bool
	}{{4, 9, true}, {9, 4, true}, {1, 3, false}, {3, 1, false}} {
		if err := f.Insert([]int64{v.a, v.x}, v.feasible); err != nil {
			t.Fatal(err)
		}
	}
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
		wf, err := warm.Frontier(key, buffers)
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
			if feas != 2 || inf != 2 {
				t.Fatalf("truncated at %d/%d bytes half-trusted: frontier (%d, %d)", n, len(full), feas, inf)
			}
		case st.Loaded == 0 && feas+inf == 0:
			// Cold start: the truncation was detected and ignored.
		default:
			t.Fatalf("truncated at %d/%d bytes was part-trusted: stats %+v, frontier (%d, %d)",
				n, len(full), st, feas, inf)
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
	buffers := []string{"wa->wb", "x"}
	dir := t.TempDir()

	a, b := NewStore(dir), NewStore(dir)
	af, err := a.Frontier(key, buffers)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := b.Frontier(key, buffers)
	if err != nil {
		t.Fatal(err)
	}
	// Replica A learns a feasible and an infeasible point; replica B
	// learns two points incomparable to A's.
	for _, in := range []struct {
		fr       *Frontier
		a, x     int64
		feasible bool
	}{{af, 5, 9, true}, {af, 1, 3, false}, {bf, 9, 5, true}, {bf, 3, 1, false}} {
		if err := in.fr.Insert([]int64{in.a, in.x}, in.feasible); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	warm := NewStore(dir)
	wf, err := warm.Frontier(key, buffers)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		who      string
		a, x     int64
		feasible bool
	}{{"A", 5, 9, true}, {"A", 1, 3, false}, {"B", 9, 5, true}, {"B", 3, 1, false}} {
		if feasible, hit := wf.Lookup([]int64{probe.a, probe.x}); !hit || feasible != probe.feasible {
			t.Errorf("replica %s's verdict at (%d, %d) lost in merge: (%v, %v)", probe.who, probe.a, probe.x, feasible, hit)
		}
	}
	if feas, inf := wf.Size(); feas != 2 || inf != 2 {
		t.Errorf("merged frontier holds (%d, %d) vectors, want (2, 2)", feas, inf)
	}
	if err := wf.SelfCheck(); err != nil {
		t.Errorf("merged frontier fails self-check: %v", err)
	}
}

// NewStoreLoaded opens a store, touches the fingerprint's frontier and
// returns the stats; helper for asserting load counters.
func NewStoreLoaded(t *testing.T, dir, key string, buffers []string) StoreStats {
	t.Helper()
	s := NewStore(dir)
	if _, err := s.Frontier(key, buffers); err != nil {
		t.Fatal(err)
	}
	return s.Stats()
}

func TestEntryFrontierOrderMismatch(t *testing.T) {
	s := NewStore("")
	if _, err := s.Frontier("k", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Frontier("k", []string{"b", "a"}); err == nil {
		t.Error("conflicting buffer order accepted")
	}
	if _, err := s.Frontier("k", []string{"a", "b"}); err != nil {
		t.Errorf("matching order rejected: %v", err)
	}
}

func TestMemoryStoreFlushIsNoOp(t *testing.T) {
	s := NewStore("")
	f, err := s.Frontier("k", []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Insert([]int64{1}, true); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Flush(); err != nil || n != 0 {
		t.Errorf("Flush on memory store = (%d, %v), want (0, nil)", n, err)
	}
}

func TestFlushSkipsEmptyEntries(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir)
	if _, err := s.Frontier("empty", []string{"a"}); err != nil {
		t.Fatal(err)
	}
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
