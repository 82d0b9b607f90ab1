package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vrdfcap"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/serve"
	"vrdfcap/internal/sim"
)

func writeMP3JSON(t *testing.T, withConstraint bool) string {
	t.Helper()
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	var c *vrdfcap.Constraint
	if withConstraint {
		cc := mp3.Constraint()
		c = &cc
	}
	data, err := vrdfcap.EncodeJSON(g, c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mp3.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalysis(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"6015", "3263", "883", "vDAC", "total capacity: 10161"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunWithVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("verification horizon too long for -short")
	}
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-verify", "-firings", "500", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "verified") {
		t.Errorf("verification section missing:\n%s", out.String())
	}
}

func TestRunHybridPolicy(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-policy", "hybrid", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total capacity: 9969") {
		t.Errorf("hybrid totals wrong:\n%s", out.String())
	}
}

func TestRunDOT(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-dot", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph taskgraph") {
		t.Errorf("DOT output missing:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-vrdf-dot", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph vrdf") {
		t.Errorf("VRDF DOT output missing:\n%s", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-json", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"capacity": 6015`) {
		t.Errorf("sized JSON missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"a", "b"}, &out); err == nil {
		t.Error("two files accepted")
	}
	if err := run([]string{"/nonexistent/x.json"}, &out); err == nil {
		t.Error("unreadable file accepted")
	}
	noCon := writeMP3JSON(t, false)
	if err := run([]string{noCon}, &out); err == nil {
		t.Error("document without constraint accepted")
	}
	withCon := writeMP3JSON(t, true)
	if err := run([]string{"-policy", "nope", withCon}, &out); err == nil {
		t.Error("bad policy accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &out); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestRunOverflowIsOneLineError pins that a valid document whose analysis
// leaves int64 rationals fails with one error line naming the overflow,
// not a panic and its stack trace: at the document's period, and at a
// swept period, where the line is Compute's at that period.
func TestRunOverflowIsOneLineError(t *testing.T) {
	const (
		pair     = "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod {1000000000000000,1000000000000001} cons 1\n"
		overflow = "capacity: task a: minimal start distance φ: ratio: int64 overflow in mul"
	)
	for _, c := range []struct {
		period string
		args   []string
		want   string
	}{
		{"1000000000000000000", nil, overflow},
		{"1", []string{"-sweep", "1,1000000000000000000"}, "capacity: period 1000000000000000000: " + overflow},
	} {
		path := filepath.Join(t.TempDir(), "overflow.txt")
		if err := os.WriteFile(path, []byte(pair+"constraint b period "+c.period+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := run(append(c.args, path), &out)
		if err == nil {
			t.Fatalf("%v: overflowing document accepted:\n%s", c.args, out.String())
		}
		if err.Error() != c.want {
			t.Fatalf("%v: error %q, want %q", c.args, err, c.want)
		}
	}
}

func TestRunLatencyAndSweep(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-latency", "-sweep", "1/88200,1/44100,1/22050", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "anchored schedule: sink offset 28597/240000") {
		t.Errorf("latency section missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, "period sweep") || !strings.Contains(text, "infeasible") {
		t.Errorf("sweep section missing:\n%s", text)
	}
	if err := run([]string{"-sweep", "x", path}, &out); err == nil {
		t.Error("bad sweep list accepted")
	}
	if err := run([]string{"-sweep", "-3", path}, &out); err == nil {
		t.Error("negative sweep period accepted")
	}
}

func TestRunTextDocument(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"../../testdata/mp3.txt"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"6015", "3263", "total memory: 22599 bytes"} {
		if !strings.Contains(text, want) {
			t.Errorf("text-format analysis missing %q:\n%s", want, text)
		}
	}
}

func TestRunExactCertificate(t *testing.T) {
	// A small graph gets the exhaustive certificate; the MP3 graph trips
	// the state guard with a clear message.
	small := filepath.Join(t.TempDir(), "small.txt")
	doc := "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 3 cons {2,3}\nconstraint b period 3\n"
	if err := os.WriteFile(small, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-exact", small}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deadlock-free for EVERY quanta sequence") {
		t.Errorf("certificate missing:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-exact", writeMP3JSON(t, true)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exact certificate unavailable") {
		t.Errorf("guard message missing:\n%s", out.String())
	}
}

func TestRunMinimize(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-minimize", "-firings", "441", "-parallel", "2", "-stats", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	wants := []string{
		"empirically minimal capacities for this workload",
		"answered by the feasibility cache",
		"decided by analytic bounds",
		"probe effort:",
		"replayed from checkpoints",
		"totals: analytic=10161",
		"run stats: simEvents=",
		"cache: verdictHits=",
	}
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Errorf("output missing %q:\n%s", w, text)
		}
	}
}

// TestRunRejectsNonPositiveHorizons pins that a non-positive horizon is
// an error, not silently replaced by a default horizon, and that the
// removed -checkpoints flag is unknown.
func TestRunRejectsNonPositiveHorizons(t *testing.T) {
	path := writeMP3JSON(t, true)
	for _, args := range [][]string{
		{"-verify", "-firings", "-5"},
		{"-verify", "-firings", "0"},
		{"-minimize", "-minimize-firings", "-1"},
	} {
		var out bytes.Buffer
		if err := run(append(args, path), &out); err == nil || !strings.Contains(err.Error(), "firings must be positive") {
			t.Errorf("%v: err = %v, want a non-positive horizon error", args, err)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-minimize", "-checkpoints", "0", path}, &out); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-checkpoints: err = %v, want an unknown-flag error", err)
	}
}

func TestRunProfiles(t *testing.T) {
	path := writeMP3JSON(t, true)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var out bytes.Buffer
	// CPU profiling is process-global, so no other test may profile
	// concurrently; package tests run sequentially here.
	if err := run([]string{"-cpuprofile", cpu, "-memprofile", mem, path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "x"), path}, &out); err == nil {
		t.Error("unwritable profile path accepted")
	}
}

func TestRunParallelSweepAndStats(t *testing.T) {
	path := writeMP3JSON(t, true)
	sweep := "1/44100,1/40000,1/30000"
	var serial, par bytes.Buffer
	if err := run([]string{"-sweep", sweep, "-parallel", "1", path}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", sweep, "-parallel", "4", path}, &par); err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Errorf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), par.String())
	}
	var out bytes.Buffer
	if err := run([]string{"-sweep", sweep, "-parallel", "4", "-stats", path}, &out); err != nil {
		t.Fatal(err)
	}
	// A sweep is closed-form: it simulates nothing.
	if !strings.Contains(out.String(), "run stats: simEvents=0 resumedEvents=0 warmResets=0 coldResets=0 workers=4 ") {
		t.Errorf("stats line missing or wrong:\n%s", out.String())
	}
}

func TestRunVerifyWithJitter(t *testing.T) {
	if testing.Short() {
		t.Skip("verification horizon too long for -short")
	}
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-verify", "-firings", "441", "-jitter", "1/2", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "injecting admissible execution-time jitter up to 1/2") {
		t.Errorf("jitter notice missing:\n%s", text)
	}
	if !strings.Contains(text, "verified: strictly periodic schedule sustained") {
		t.Errorf("jittered verification did not pass at eq(4) capacities:\n%s", text)
	}
}

func TestRunMinimizeFirings(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-minimize", "-minimize-firings", "441", "-parallel", "2", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "441 firings per probe") {
		t.Errorf("-minimize-firings not honoured:\n%s", text)
	}
	if !strings.Contains(text, "minimal=") {
		t.Errorf("minimization totals missing:\n%s", text)
	}
}

func TestRunDegradationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep horizon too long for -short")
	}
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-degradation", "2", "-firings", "441", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"fault-injection degradation sweep", "overrun factor", "slack"} {
		if !strings.Contains(text, want) {
			t.Errorf("degradation output missing %q:\n%s", want, text)
		}
	}
}

// TestRunTimeoutExpired pins that -timeout is a context deadline: every
// simulation-backed step reports it with the library's and the service's
// typed error and text.
func TestRunTimeoutExpired(t *testing.T) {
	path := writeMP3JSON(t, true)
	for _, step := range []string{"-verify", "-minimize", "-sweep=1/44100", "-degradation=2"} {
		var out bytes.Buffer
		err := run([]string{step, "-timeout", "1ns", path}, &out)
		if !errors.Is(err, vrdfcap.ErrBudgetExceeded) ||
			!strings.HasSuffix(err.Error(), "wall-clock budget exceeded: context deadline exceeded") {
			t.Errorf("%s with an expired -timeout: err = %v, want ErrBudgetExceeded ending in the context deadline", step, err)
		}
	}
}

func TestRunBadFaultFlags(t *testing.T) {
	path := writeMP3JSON(t, true)
	var out bytes.Buffer
	if err := run([]string{"-jitter", "nope", path}, &out); err == nil {
		t.Error("malformed -jitter accepted")
	}
	if err := run([]string{"-degradation", "1", path}, &out); err == nil {
		t.Error("-degradation factor 1 accepted (must exceed 1)")
	}
	if err := run([]string{"-verify", "-jitter", "3/2", path}, &out); err == nil {
		t.Error("inadmissible jitter >= 1 accepted")
	}
}

// TestRunMinimizeCacheFileName pins the verdict-store fingerprint of the
// §5 MP3 document: a -cache-dir written by an earlier build keeps reading
// warm only while the fingerprint format is unchanged.
func TestRunMinimizeCacheFileName(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-minimize", "-cache-dir", dir, "../../testdata/mp3.txt"}, &out); err != nil {
		t.Fatal(err)
	}
	const want = "2b5bd9c48e635030881630cbea8f73256cdf0c3717f82a28fce96a2a9793e4f0.json"
	if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
		entries, _ := os.ReadDir(dir)
		t.Fatalf("cache file %s not written (%v); dir holds %v", want, err, entries)
	}
}

// TestMinimizeSharesVerdictsWithServe pins that the CLI and the service
// fingerprint a minimisation the same way: a server handed the CLI's
// -cache-dir answers /v1/minimize for the same document without
// simulating, with the CLI's minimal capacities.
func TestMinimizeSharesVerdictsWithServe(t *testing.T) {
	const doc = "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 3 cons {2,3}\nconstraint b period 3\n"
	path := filepath.Join(t.TempDir(), "pair.txt")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-minimize", "-firings", "200", "-cache-dir", dir, path}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "; 0 probes simulated") {
		t.Fatalf("cold CLI run simulated nothing, so the cache dir proves nothing:\n%s", out.String())
	}

	s := serve.New(serve.Config{Store: probecache.NewStore(dir), Firings: 200})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/minimize", strings.NewReader(doc)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/minimize: status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Buffers []struct {
			Name              string
			Analytic, Minimal int64
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Buffers) != 1 {
		t.Fatalf("bad /v1/minimize body %s (%v)", rec.Body, err)
	}
	b := resp.Buffers[0]
	line := fmt.Sprintf("  %-12s analytic %6d  minimal %6d\n", b.Name, b.Analytic, b.Minimal)
	if !strings.Contains(out.String(), line) {
		t.Errorf("service answered %q; the CLI reported:\n%s", line, out.String())
	}
	if st := s.StatsSnapshot(); st.SimEvents != 0 || st.VerdictHits == 0 {
		t.Errorf("service simulated %d events with %d verdict hits; want 0 events from the CLI's verdicts",
			st.SimEvents, st.VerdictHits)
	}
}

// minimizeSection extracts the minimization block (capacities + totals) so
// cold and warm runs can be compared while timings and stats vary.
func minimizeSection(t *testing.T, text string) string {
	t.Helper()
	i := strings.Index(text, "empirically minimal capacities")
	j := strings.Index(text, "totals: analytic=")
	if i < 0 || j < 0 {
		t.Fatalf("minimize section missing:\n%s", text)
	}
	end := strings.IndexByte(text[j:], '\n')
	if end < 0 {
		end = len(text) - j
	}
	// Drop the first line (it reports probe counts, which differ between
	// cold and warm runs by design).
	block := text[i : j+end]
	if nl := strings.IndexByte(block, '\n'); nl >= 0 {
		block = block[nl+1:]
	}
	return block
}

func TestRunMinimizeCacheDirColdWarm(t *testing.T) {
	path := writeMP3JSON(t, true)
	dir := t.TempDir()
	args := []string{"-minimize", "-minimize-firings", "441", "-cache-dir", dir, "-stats", path}

	var cold bytes.Buffer
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache file written to %s (%v)", dir, err)
	}
	if !strings.Contains(cold.String(), "1 written") {
		t.Errorf("cold run stats missing the flush count:\n%s", cold.String())
	}

	before, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var warm bytes.Buffer
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "; 0 probes simulated") {
		t.Errorf("warm cache-dir run still simulated probes:\n%s", warm.String())
	}
	// Nothing new was learnt, so nothing is rewritten.
	if !strings.Contains(warm.String(), "1 loaded, 0 skipped, 0 written") {
		t.Errorf("warm run stats missing the loaded count or rewrote the payload:\n%s", warm.String())
	}
	if after, err := os.Stat(files[0]); err != nil || !after.ModTime().Equal(before.ModTime()) {
		t.Errorf("warm run touched its unchanged payload (%v)", err)
	}
	if got, want := minimizeSection(t, warm.String()), minimizeSection(t, cold.String()); got != want {
		t.Errorf("warm cache changed the found capacities:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}

	// Corrupt every cache file: the next run must fall back to cold
	// simulation — same answers, no trust in the broken files.
	for _, f := range files {
		if err := os.WriteFile(f, []byte("{definitely not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var healed bytes.Buffer
	if err := run(args, &healed); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(healed.String(), "; 0 probes simulated") {
		t.Errorf("corrupt cache was trusted:\n%s", healed.String())
	}
	if !strings.Contains(healed.String(), "1 skipped") {
		t.Errorf("corrupt file not reported as skipped:\n%s", healed.String())
	}
	if got, want := minimizeSection(t, healed.String()), minimizeSection(t, cold.String()); got != want {
		t.Errorf("post-corruption run changed the found capacities:\n--- cold ---\n%s\n--- healed ---\n%s", want, got)
	}
}

func TestRunNoCacheDisablesCaching(t *testing.T) {
	path := writeMP3JSON(t, true)
	// Warm a cache directory first, then prove -no-cache ignores it
	// entirely.
	dir := t.TempDir()
	var warmup bytes.Buffer
	if err := run([]string{"-minimize", "-minimize-firings", "441", "-cache-dir", dir, path}, &warmup); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-minimize", "-minimize-firings", "441", "-no-cache",
		"-cache-dir", dir, "-stats", path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Contains(text, "; 0 probes simulated") {
		t.Errorf("-no-cache run answered probes from a cache:\n%s", text)
	}
	if !strings.Contains(text, ", 0 answered by the feasibility cache") {
		t.Errorf("-no-cache run reported cache hits:\n%s", text)
	}
	if !strings.Contains(text, "cache: disabled") {
		t.Errorf("stats line does not report the disabled cache:\n%s", text)
	}
	if got, want := minimizeSection(t, text), minimizeSection(t, warmup.String()); got != want {
		t.Errorf("-no-cache changed the found capacities:\n--- cached ---\n%s\n--- no-cache ---\n%s", want, got)
	}
}

// TestRunMinimizeIndependentOfCoreCount pins that -parallel does not reach
// the minimiser: on two cores, -parallel 0 (one worker per core) and
// -parallel 1 print byte-identical reports, probe counts and simulated
// events included.
func TestRunMinimizeIndependentOfCoreCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	report := func(parallel string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-minimize", "-no-cache", "-parallel", parallel, "../../testdata/mp3.txt"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	serial := report("1")
	if perCore := report("0"); perCore != serial {
		t.Errorf("-parallel 0 and -parallel 1 differ:\n--- 1 ---\n%s\n--- 0 ---\n%s", serial, perCore)
	}
	if !strings.Contains(serial, "minimal=4274") {
		t.Errorf("unexpected minimum:\n%s", serial)
	}
}

// TestRunSweepCacheDirWritesNothing pins that a period sweep records no
// verdicts in the store: it recomputes every point, so two identical runs
// over one -cache-dir print the same report and leave the directory
// without a file.
func TestRunSweepCacheDirWritesNothing(t *testing.T) {
	path := writeMP3JSON(t, true)
	dir := filepath.Join(t.TempDir(), "verdicts")
	args := []string{"-sweep", "1/44100,1/40000,1/30000", "-cache-dir", dir, path}
	var first, second bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Errorf("second sweep output differs from the first:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
	if files, err := os.ReadDir(dir); len(files) != 0 || !os.IsNotExist(err) {
		t.Errorf("sweep left %d file(s) in the cache directory (%v)", len(files), err)
	}
}

// TestEffortAgreesAcrossSurfaces runs one minimisation of testdata/mp3.txt
// three ways, with the same horizon and seed and a fresh in-memory verdict
// store each: the library recipe, vrdfcap -minimize -stats and
// /v1/minimize. All three must report the same simulation effort.
func TestEffortAgreesAcrossSurfaces(t *testing.T) {
	const path, firings, seed = "../../testdata/mp3.txt", 2205, 3
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, c, err := vrdfcap.DecodeGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	sized, res, err := vrdfcap.Size(g, *c, vrdfcap.PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	var lib minimize.ProbeStats
	prob, err := minimize.NewProblem(g, sized, res, *c, firings, sim.UniformWorkloads(sized, seed),
		fmt.Sprintf("uniform:seed=%d", seed), probecache.NewStore(""), minimize.Options{Stats: &lib})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prob.Search(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := lib.Counts()
	if want.SimEvents == 0 || want.WarmResets == 0 {
		t.Fatalf("library effort %+v: the search must simulate and warm-start", want)
	}

	var out bytes.Buffer
	if err := run([]string{"-minimize", "-minimize-firings", fmt.Sprint(firings), "-seed", fmt.Sprint(seed), "-stats", path}, &out); err != nil {
		t.Fatal(err)
	}
	var cli sim.EffortCounts
	i := strings.Index(out.String(), "run stats: ")
	if i < 0 {
		t.Fatalf("no stats footer:\n%s", out.String())
	}
	if _, err := fmt.Sscanf(out.String()[i:], "run stats: simEvents=%d resumedEvents=%d warmResets=%d coldResets=%d",
		&cli.SimEvents, &cli.ResumedEvents, &cli.WarmResets, &cli.ColdResets); err != nil {
		t.Fatalf("footer does not parse: %v\n%s", err, out.String())
	}
	if cli != want {
		t.Errorf("vrdfcap -stats effort %+v, library %+v", cli, want)
	}

	s := serve.New(serve.Config{})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Post(fmt.Sprintf("%s/v1/minimize?firings=%d&seed=%d", ts.URL, firings, seed), "text/plain", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/minimize: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.EffortCounts != want {
		t.Errorf("/statsz effort %+v, library %+v", st.EffortCounts, want)
	}
}
