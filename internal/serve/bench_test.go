package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// nopWriter is an http.ResponseWriter that swallows the response. Its
// header map persists across requests, matching a real connection where
// net/http reuses the header allocation — so a steady-state cache hit
// writes into existing storage.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// rewindBody replays the same request bytes every iteration without
// re-allocating a reader.
type rewindBody struct{ r *bytes.Reader }

func (b *rewindBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *rewindBody) Close() error               { return nil }
func (b *rewindBody) rewind()                    { _, _ = b.r.Seek(0, io.SeekStart) }

// warmHit returns a server whose response cache already holds the answer
// for the returned request, plus the rewindable body backing it.
func warmHit(tb testing.TB) (*Server, *http.Request, *rewindBody) {
	tb.Helper()
	s := New(Config{})
	tb.Cleanup(s.Close)
	body := &rewindBody{r: bytes.NewReader([]byte(pairDoc))}
	req := httptest.NewRequest(http.MethodPost, "/v1/size", nil)
	req.Body = body
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("warm-up request failed: %d %s", rec.Code, rec.Body)
	}
	return s, req, body
}

// TestServeCacheHitAllocs pins the tentpole property: a steady-state
// response-cache hit allocates NOTHING — pooled request context, retained
// buffers, stack-only hashing, array-keyed map probe, pre-built header
// value. Guarded against the race runtime, which instruments allocations.
func TestServeCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs without -race")
	}
	s, req, body := warmHit(t)
	w := &nopWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(200, func() {
		body.rewind()
		s.ServeHTTP(w, req)
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocated %.1f objects per request, want 0", allocs)
	}
	if got := s.StatsSnapshot().CacheHits; got == 0 {
		t.Fatal("allocation loop never hit the response cache")
	}
}

// BenchmarkServeCacheHit is the CI-gated number: ns/op and 0 allocs/op
// for the exact-repeat fast path.
func BenchmarkServeCacheHit(b *testing.B) {
	s, req, body := warmHit(b)
	w := &nopWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.rewind()
		s.ServeHTTP(w, req)
	}
}

// BenchmarkServeWarmProblem measures the semantic-miss path: every request
// is textually fresh (never response-cached) but names the same problem,
// so the full parse → fingerprint → flight → frontier-replay pipeline runs
// with warm verdicts and no simulation.
func BenchmarkServeWarmProblem(b *testing.B) {
	s := New(Config{Firings: 200})
	b.Cleanup(s.Close)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/minimize?firings=200",
		bytes.NewReader([]byte(pairDoc)))
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm-up request failed: %d %s", rec.Code, rec.Body)
	}
	w := &nopWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc := fmt.Sprintf("# iteration %d\n%s", i, pairDoc)
		r := httptest.NewRequest(http.MethodPost, "/v1/minimize?firings=200",
			bytes.NewReader([]byte(doc)))
		s.ServeHTTP(w, r)
	}
}

// BenchmarkRingPutPop measures the access-log ring's per-entry cost.
func BenchmarkRingPutPop(b *testing.B) {
	r := newRing(1024)
	var e, out logEntry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.when = int64(i)
		r.put(&e)
		r.pop(&out)
	}
}
