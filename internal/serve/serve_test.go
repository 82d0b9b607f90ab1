package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vrdfcap/internal/faults"
	"vrdfcap/internal/graphio"
)

// pairDoc is the paper's Figure 1 pair: producer always writes 3, consumer
// takes 2 or 3 data-dependently. Small enough that a minimize request is
// a handful of short simulations; analytic Equation 4 capacity is 7.
const pairDoc = `task a wcrt 1
task b wcrt 1
buffer a -> b prod 3 cons {2,3}
constraint b period 3
`

// variant returns pairDoc with a comment line prepended: a textually
// different document that parses to the identical canonical graph, so its
// raw-request key differs but its problem fingerprint does not.
func variant(i int) string {
	return fmt.Sprintf("# request variant %d\n%s", i, pairDoc)
}

// newTestServer returns a started server and closes it with the test.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Firings == 0 {
		cfg.Firings = 200
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// blockCompute installs a computeHook that blocks flight leaders until the
// returned release func runs; entered counts the leaders that reached it.
// release is idempotent: callers defer it right after deferring the test
// server's Close, so it runs first and a failing test reports instead of
// wedging Close (and Server.Close) behind a blocked worker.
func blockCompute(cfg *Config) (release func(), entered *atomic.Int64) {
	ch := make(chan struct{})
	var once sync.Once
	entered = new(atomic.Int64)
	release = func() { once.Do(func() { close(ch) }) }
	cfg.computeHook = func() {
		entered.Add(1)
		<-ch
	}
	return release, entered
}

// waiters returns how many requests have coalesced onto running flights.
func waiters(s *Server) int {
	s.flights.mu.Lock()
	defer s.flights.mu.Unlock()
	n := 0
	for _, c := range s.flights.calls {
		n += c.waiters
	}
	return n
}

func doPost(ts *httptest.Server, path, body string) (int, []byte, error) {
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	status, data, err := doPost(ts, path, body)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return status, data
}

// TestCoalescing is the contract at the heart of the service: N concurrent
// requests for the same problem — with textually different documents, so
// the response cache cannot answer — run exactly one computation, and
// every response is byte-identical, whether cold (the flight leader),
// coalesced (a waiter), or warm (a later response-cache hit).
func TestCoalescing(t *testing.T) {
	const n = 8
	var cfg Config
	release, _ := blockCompute(&cfg)
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer release()

	type reply struct {
		status int
		body   []byte
		err    error
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body, err := doPost(ts, "/v1/minimize?firings=200", variant(i))
			replies[i] = reply{status, body, err}
		}(i)
	}

	// Hold the leader until every other request has coalesced onto its
	// flight, so "exactly one computation" is deterministic, not a race.
	deadline := time.Now().Add(10 * time.Second)
	for waiters(s) < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", waiters(s), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()

	for i, r := range replies {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, replies[0].body) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, r.body, replies[0].body)
		}
	}
	st := s.StatsSnapshot()
	if st.Computes != 1 {
		t.Fatalf("computes = %d, want exactly 1 for %d concurrent identical problems", st.Computes, n)
	}
	if st.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	if st.CacheHits != 0 {
		t.Fatalf("cacheHits = %d, want 0 (every document was textually unique)", st.CacheHits)
	}

	// Warm: repeating an exact document hits the response cache and the
	// bytes still match.
	status, body := post(t, ts, "/v1/minimize?firings=200", variant(0))
	if status != http.StatusOK || !bytes.Equal(body, replies[0].body) {
		t.Fatalf("warm repeat: status %d, body drifted:\n%s", status, body)
	}
	if got := s.StatsSnapshot().CacheHits; got != 1 {
		t.Fatalf("cacheHits after warm repeat = %d, want 1", got)
	}

	// Cold again: a never-seen textual variant recomputes (the flight is
	// gone), but the warm feasibility frontier answers every probe and the
	// body must still be byte-identical.
	status, body = post(t, ts, "/v1/minimize?firings=200", variant(n+1))
	if status != http.StatusOK || !bytes.Equal(body, replies[0].body) {
		t.Fatalf("cold recompute: status %d, body drifted:\n%s", status, body)
	}
	if got := s.StatsSnapshot().Computes; got != 2 {
		t.Fatalf("computes after cold recompute = %d, want 2", got)
	}
}

// TestMinimizeAgainstAnalytic sanity-checks the answer itself: for the
// Figure 1 pair the analytic capacity is 7 and the empirical minimum under
// any workload lies between the producer quantum and the analytic bound.
func TestMinimizeAgainstAnalytic(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	status, body := post(t, ts, "/v1/minimize?firings=200&seed=7", pairDoc)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp minimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if !resp.Valid || len(resp.Buffers) != 1 {
		t.Fatalf("unexpected response %+v", resp)
	}
	b := resp.Buffers[0]
	if b.Analytic != 7 {
		t.Fatalf("analytic capacity = %d, want 7 (paper Figure 1)", b.Analytic)
	}
	if b.Minimal < 3 || b.Minimal > b.Analytic {
		t.Fatalf("minimal capacity = %d, want within [3, %d]", b.Minimal, b.Analytic)
	}
	if resp.MinimalTotal != b.Minimal || resp.AnalyticTotal != b.Analytic {
		t.Fatalf("totals %d/%d disagree with the single buffer %+v", resp.MinimalTotal, resp.AnalyticTotal, b)
	}
}

func TestSizeSweepDegradation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	status, body := post(t, ts, "/v1/size", pairDoc)
	if status != http.StatusOK {
		t.Fatalf("size: status %d: %s", status, body)
	}
	var size sizeResponse
	if err := json.Unmarshal(body, &size); err != nil {
		t.Fatal(err)
	}
	if !size.Valid || size.Total != 7 || len(size.Buffers) != 1 || size.Buffers[0].Capacity != 7 {
		t.Fatalf("size response %+v, want valid total 7", size)
	}

	status, body = post(t, ts, "/v1/sweep?periods=3,4,6", pairDoc)
	if status != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", status, body)
	}
	var sweep sweepResponse
	if err := json.Unmarshal(body, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Points) != 3 {
		t.Fatalf("sweep returned %d points, want 3: %s", len(sweep.Points), body)
	}
	for _, pt := range sweep.Points {
		if !pt.Valid {
			t.Fatalf("period %s unexpectedly infeasible", pt.Period)
		}
	}
	// Relaxing the period must never need more capacity (monotone trade-off).
	for i := 1; i < len(sweep.Points); i++ {
		if sweep.Points[i].Total > sweep.Points[i-1].Total {
			t.Fatalf("sweep not monotone: %v", sweep.Points)
		}
	}
	// A sweep recomputes every point: it leaves no verdict in the store.
	if n := s.cfg.Store.Stats().Entries; n != 0 {
		t.Errorf("sweep left %d store entries, want 0", n)
	}

	status, body = post(t, ts, "/v1/degradation?max=2&firings=100", pairDoc)
	if status != http.StatusOK {
		t.Fatalf("degradation: status %d: %s", status, body)
	}
	var deg degradationResponse
	if err := json.Unmarshal(body, &deg); err != nil {
		t.Fatal(err)
	}
	if !deg.Valid || len(deg.Points) != faults.DegradationPoints {
		t.Fatalf("degradation response %+v, want %d points", deg, faults.DegradationPoints)
	}
	if !deg.Points[0].OK {
		t.Fatalf("nominal point (factor 1) failed: %+v", deg.Points[0])
	}
	// The degradation sweep is the only request here that simulates.
	if st := getStats(t, ts); st.SimEvents == 0 || st.ColdResets < faults.DegradationPoints {
		t.Errorf("stats %+v: the degradation sweep's simulation was not counted", st)
	}
}

// TestErrorMapping pins the HTTP status for every error class.
func TestErrorMapping(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"unknown path", "/v2/size", pairDoc, http.StatusNotFound},
		{"removed probe endpoint", "/v1/probe?periods=1", pairDoc, http.StatusNotFound},
		{"bad document", "/v1/size", "task ???", http.StatusBadRequest},
		{"no constraint", "/v1/size", "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 1 cons 1", http.StatusBadRequest},
		{"bad policy", "/v1/size?policy=nope", pairDoc, http.StatusBadRequest},
		{"sweep without periods", "/v1/sweep", pairDoc, http.StatusBadRequest},
		{"degradation without max", "/v1/degradation", pairDoc, http.StatusBadRequest},
		{"degradation max below 1", "/v1/degradation?max=1/2", pairDoc, http.StatusBadRequest},
		{"firings over cap", "/v1/minimize?firings=999999999", pairDoc, http.StatusBadRequest},
		{"quanta set over limit", "/v1/size", "task a wcrt 1\ntask b wcrt 1\nbuffer a -> b prod 0..9999999 cons 1\nconstraint b period 1", http.StatusBadRequest},
		// A valid document whose φ propagation leaves int64: a typed
		// analysis error, not a panic that drops the connection.
		{"rational overflow", "/v1/size", overflowDoc, http.StatusBadRequest},
		{"rational overflow minimize", "/v1/minimize", overflowDoc, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, body := post(t, ts, tc.path, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q is not {\"error\":...}", tc.name, body)
		}
	}

	// Oversized body → 413, rejected while reading, before parsing.
	big := pairDoc + "# " + strings.Repeat("x", 1<<20) + "\n"
	status, _ := post(t, ts, "/v1/size", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", status)
	}

	// GET on an analysis endpoint → 405.
	resp, err := http.Get(ts.URL + "/v1/size")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/size: status %d, want 405", resp.StatusCode)
	}
}

// overflowDoc is a 130-byte document whose analysis overflows int64
// rationals: φ(a) is the 10^18 period times the 10^15 production quantum.
const overflowDoc = `task a wcrt 1
task b wcrt 1
buffer a -> b prod {1000000000000000,1000000000000001} cons 1
constraint b period 1000000000000000000
`

// TestSizeAcceptsLongLine pins that /v1/size answers a document whose
// comment line exceeds 64 KiB but whose size is within the body limit:
// testdata/mp3.txt behind a 70,000-byte comment line sizes like mp3.txt.
func TestSizeAcceptsLongLine(t *testing.T) {
	doc, err := os.ReadFile("../../testdata/mp3.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	status, body := post(t, ts, "/v1/size", "# "+strings.Repeat("x", 70000-3)+"\n"+string(doc))
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", status, body)
	}
	_, want := post(t, ts, "/v1/size", string(doc))
	if !bytes.Equal(body, want) {
		t.Fatalf("long-line document sized to\n%s\nmp3.txt sized to\n%s", body, want)
	}
}

// TestMinimizeEventCapIs504 pins that a probe cut short by Config.MaxEvents
// exhausts the request's budget: /v1/minimize answers 504, not 200 with the
// analytic sizing as its "minimum", and the shared frontier records no
// verdict the cut-short probes would have made up.
func TestMinimizeEventCapIs504(t *testing.T) {
	s := newTestServer(t, Config{MaxEvents: 5})
	ts := httptest.NewServer(s)
	defer ts.Close()
	status, body := post(t, ts, "/v1/minimize?firings=200&seed=7", pairDoc)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, "event cap") {
		t.Errorf("error body %q does not name the event cap", body)
	}
	s.problems.mu.Lock()
	defer s.problems.mu.Unlock()
	if len(s.problems.entries) != 1 {
		t.Fatalf("%d compiled problems, want 1", len(s.problems.entries))
	}
	for _, prob := range s.problems.entries {
		frontier, err := s.cfg.Store.Frontier(prob.Fingerprint, prob.Buffers)
		if err != nil {
			t.Fatal(err)
		}
		if _, infeasible := frontier.Size(); infeasible != 0 {
			t.Errorf("frontier recorded %d infeasible verdicts from cut-short probes", infeasible)
		}
		for i, b := range prob.Buffers {
			below := make([]int64, len(prob.Buffers))
			below[i] = prob.Upper[b] - 1
			if _, hit := frontier.Lookup(below); hit {
				t.Errorf("frontier decides %v below the analytic sizing", below)
			}
		}
	}
}

// TestMinimizeTimeoutStopsRunningProbe pins that the request's wall-clock
// budget reaches the simulation it interrupts: with a 1 ms budget and a
// horizon whose single probe simulates for far longer, /v1/minimize
// answers 504 from inside the running probe, not after it.
func TestMinimizeTimeoutStopsRunningProbe(t *testing.T) {
	doc, err := os.ReadFile("../../testdata/mp3.txt")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{RequestTimeout: time.Millisecond, MaxFirings: 2_000_000})
	ts := httptest.NewServer(s)
	defer ts.Close()
	start := time.Now()
	status, body := post(t, ts, "/v1/minimize?firings=2000000", string(doc))
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad error body %s: %v", body, err)
	}
	if !strings.Contains(er.Error, "sim: run aborted after") ||
		!strings.HasSuffix(er.Error, "wall-clock budget exceeded: context deadline exceeded") {
		t.Errorf("error %q: want the running simulation aborted by the exhausted wall-clock budget", er.Error)
	}
	// One probe at this horizon simulates for well over 100 ms even on a
	// fast machine; an answer after it would mean the budget was only
	// checked between probes.
	if elapsed > 100*time.Millisecond {
		t.Errorf("504 after %v; want it within a few ms of the 1 ms budget", elapsed)
	}
}

// TestComputePanicIs500 pins the service's one panic boundary: a panicking
// computation on any endpoint answers 500 without a stack trace in the
// body, the process and its workers survive, and the next request
// computes normally.
func TestComputePanicIs500(t *testing.T) {
	var explode atomic.Bool
	explode.Store(true)
	cfg := Config{Workers: 1}
	cfg.computeHook = func() {
		if explode.Load() {
			panic("probe exploded")
		}
	}
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	paths := []string{"/v1/size", "/v1/minimize?firings=200", "/v1/sweep?periods=3,4", "/v1/degradation?firings=200&max=2"}
	for _, path := range paths {
		status, body := post(t, ts, path, pairDoc)
		if status != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500: %s", path, status, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("%s: bad error body %s: %v", path, body, err)
		}
		if er.Error != "serve: computation panicked: probe exploded" {
			t.Errorf("%s: error %q, want the panic value and no stack", path, er.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the panics: status %d", resp.StatusCode)
	}
	explode.Store(false)
	for _, path := range paths {
		if status, body := post(t, ts, path, pairDoc); status != http.StatusOK {
			t.Errorf("%s after the panics: status %d, want 200: %s", path, status, body)
		}
	}
}

// TestPoolShedsLoad pins the overload behaviour: with one worker and a
// queue of one, a third distinct in-flight problem is rejected with 503
// and a Retry-After header instead of queueing unboundedly. Distinct seeds
// make distinct problems — comment variants would coalesce instead.
func TestPoolShedsLoad(t *testing.T) {
	cfg := Config{Workers: 1, Queue: 1}
	release, entered := blockCompute(&cfg)
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer release()

	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			status, body, err := doPost(ts, fmt.Sprintf("/v1/minimize?firings=200&seed=%d", i+1), pairDoc)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("request %d: status %d (%s)", i, status, body)
			}
			errc <- err
		}(i)
	}
	// Wait until the worker holds flight 1 and flight 2 sits in the queue.
	deadline := time.Now().Add(10 * time.Second)
	for entered.Load() < 1 || len(s.pool.jobs) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("worker holds %d flights, %d queued; want 1 and 1", entered.Load(), len(s.pool.jobs))
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Post(ts.URL+"/v1/minimize?firings=200&seed=3", "application/json", strings.NewReader(pairDoc))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("third problem: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response has no Retry-After header")
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	release()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestHealthzStatsz(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(ok) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, ok)
	}

	post(t, ts, "/v1/size", pairDoc)
	post(t, ts, "/v1/size", pairDoc) // response-cache hit

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// /healthz and /statsz answers are not counted responses.
	if st.Requests != 2 || st.CacheHits != 1 || st.Computes != 1 {
		t.Fatalf("stats %+v, want 2 requests: 1 hit, 1 compute", st)
	}
	if st.CachedResponses != 1 {
		t.Fatalf("cachedResponses = %d, want 1", st.CachedResponses)
	}
}

// TestServersDoNotShareVerdicts pins that a server's default verdict store
// is its own: a second server in the same process, asked a problem the
// first already solved, must simulate it afresh, as /statsz shows.
func TestServersDoNotShareVerdicts(t *testing.T) {
	simEvents := func(s *Server) int64 {
		t.Helper()
		ts := httptest.NewServer(s)
		defer ts.Close()
		if status, body := post(t, ts, "/v1/minimize?firings=200&seed=7", pairDoc); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
		resp, err := http.Get(ts.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.SimEvents
	}
	for i := 1; i <= 2; i++ {
		s := New(Config{})
		t.Cleanup(s.Close)
		if n := simEvents(s); n == 0 {
			t.Fatalf("server %d answered a cold minimize without simulating", i)
		}
	}
}

// TestAccessLog checks that drained entries reach the writer with the
// fixed key=value shape.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var logged bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return logged.Write(p)
	})
	s := newTestServer(t, Config{AccessLog: w, LogInterval: time.Millisecond})
	ts := httptest.NewServer(s)
	defer ts.Close()

	post(t, ts, "/v1/size", pairDoc)
	post(t, ts, "/v1/size", pairDoc)

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		text := logged.String()
		mu.Unlock()
		if strings.Contains(text, "kind=compute") && strings.Contains(text, "kind=hit") {
			for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
				if !strings.Contains(line, "path=size") || !strings.Contains(line, "status=200") ||
					!strings.Contains(line, "dur_ns=") || !strings.Contains(line, "key=") {
					t.Fatalf("malformed access-log line %q", line)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log never drained both kinds; got %q", text)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAccessLogCountsEveryError pins that every response counted on
// /statsz reaches the access log, routing errors included: a 404 (logged
// under path=unknown), a 405 and a 400 give three error lines.
func TestAccessLogCountsEveryError(t *testing.T) {
	var logged bytes.Buffer // written only by the drain goroutine; read after Close
	s := New(Config{AccessLog: &logged, LogInterval: time.Millisecond})
	ts := httptest.NewServer(s)
	post(t, ts, "/v1/nowhere", pairDoc)
	if resp, err := http.Get(ts.URL + "/v1/size"); err == nil {
		resp.Body.Close()
	}
	post(t, ts, "/v1/size", "task a wcrt 1\n")
	st := getStats(t, ts)
	ts.Close()
	s.Close() // drains every buffered entry before returning
	text := logged.String()
	if n := int64(strings.Count(text, "kind=error")); n != st.Errors || n != 3 {
		t.Errorf("access log holds %d error lines, /statsz counts %d errors, want 3 each:\n%s", n, st.Errors, text)
	}
	for _, want := range []string{"path=unknown status=404", "path=size status=405", "path=size status=400"} {
		if !strings.Contains(text, want) {
			t.Errorf("access log lacks %q:\n%s", want, text)
		}
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestAbortedMinimizeCountsEffort pins that effort is counted where it
// happens: a /v1/minimize that the 1 ms budget stops inside a running
// probe still shows that probe's events on /statsz, and the request counts
// once, as an error, not also as a computation. A budget that runs out
// before the first event says nothing about counting, so such attempts
// retry on a fresh server.
func TestAbortedMinimizeCountsEffort(t *testing.T) {
	doc, err := os.ReadFile("../../testdata/mp3.txt")
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 50; attempt++ {
		s := newTestServer(t, Config{RequestTimeout: time.Millisecond, MaxFirings: 2_000_000})
		ts := httptest.NewServer(s)
		status, body := post(t, ts, "/v1/minimize?firings=2000000", string(doc))
		st := getStats(t, ts)
		ts.Close()
		if status != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504: %s", status, body)
		}
		if st.Errors != 1 || st.Computes != 0 || st.Requests != 1 {
			t.Fatalf("stats %+v, want the one request counted once, as an error", st)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("bad error body %s: %v", body, err)
		}
		var aborted int64
		if _, err := fmt.Sscanf(er.Error, "sim: run aborted after %d events", &aborted); err != nil {
			t.Fatalf("error %q does not report the aborted run's events: %v", er.Error, err)
		}
		if aborted == 0 {
			continue
		}
		if st.SimEvents < aborted {
			t.Fatalf("simEvents = %d, below the %d events of the aborted run", st.SimEvents, aborted)
		}
		return
	}
	t.Fatal("every attempt ran out of budget before its first simulated event")
}

// TestResponseKindsSumToRequests pins the /statsz identity: after hits,
// computations, coalesced waiters and errors, every answered request is
// counted under exactly one kind.
func TestResponseKindsSumToRequests(t *testing.T) {
	var cfg Config
	release, _ := blockCompute(&cfg)
	s := newTestServer(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()
	defer release()

	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			status, _, _ := doPost(ts, "/v1/size", variant(i))
			done <- status
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for waiters(s) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the second request never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for i := 0; i < 2; i++ {
		if status := <-done; status != http.StatusOK {
			t.Fatalf("status %d, want 200", status)
		}
	}
	post(t, ts, "/v1/size", variant(0))            // response-cache hit
	post(t, ts, "/v1/size", "task a wcrt 1\n")     // no constraint: 400
	post(t, ts, "/v1/nowhere", pairDoc)            // 404
	post(t, ts, "/v1/minimize?firings=0", pairDoc) // bad horizon: 400
	if resp, err := http.Get(ts.URL + "/healthz"); err == nil {
		resp.Body.Close()
	}

	st := getStats(t, ts)
	if st.CacheHits != 1 || st.Computes != 1 || st.Coalesced != 1 || st.Errors != 3 {
		t.Errorf("stats %+v, want 1 hit, 1 compute, 1 coalesced, 3 errors", st)
	}
	if sum := st.CacheHits + st.Computes + st.Coalesced + st.Errors; sum != st.Requests {
		t.Errorf("cacheHits+computes+coalesced+errors = %d, requests = %d", sum, st.Requests)
	}
}

// getStats reads /statsz over HTTP.
func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMinimizeBufferOrderIndependent pins that a document's buffer order
// does not reach a minimisation: the reordered MP3 document has the same
// fingerprint as the original, so after the original's compiled problem
// is evicted its answer comes from the frontier the original left in the
// store, in the same chain order, byte for byte.
func TestMinimizeBufferOrderIndependent(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/mp3.txt")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	otherPeriod := strings.Replace(doc, "constraint vDAC period 1/44100", "constraint vDAC period 1/44000", 1)
	var bufLines, rest []string
	for _, line := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(line, "buffer ") {
			bufLines = append([]string{line}, bufLines...)
		} else {
			rest = append(rest, line)
		}
	}
	reordered := strings.Join(append(rest, bufLines...), "")
	if otherPeriod == doc || len(bufLines) != 3 {
		t.Fatal("testdata/mp3.txt no longer has the expected constraint and buffer lines")
	}

	s := newTestServer(t, Config{ProblemCacheSize: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	var bodies [3][]byte
	for i, d := range []string{doc, otherPeriod, reordered} {
		status, body := post(t, ts, "/v1/minimize", d)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i+1, status, body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[2], bodies[0]) {
		t.Errorf("reordered document answers\n%s\nthe original answers\n%s", bodies[2], bodies[0])
	}
}

// TestSizeKeyPinned pins the coalescing key /v1/size derives for the §5
// MP3 document: the key is the canonical graph fingerprint, so its bytes
// must not move when the fingerprint's implementation does.
func TestSizeKeyPinned(t *testing.T) {
	doc, err := os.ReadFile("../../testdata/mp3.txt")
	if err != nil {
		t.Fatal(err)
	}
	g, con, err := graphio.DecodeAny(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	spec, err := s.buildSpec(pathSize, g, con, url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	const want = "2c640a9a2b6443e68936ce2ba67c2fe73643c59018e16dac17404e4b32850fc4"
	if spec.key != want {
		t.Fatalf("/v1/size key = %s, want %s", spec.key, want)
	}
}
