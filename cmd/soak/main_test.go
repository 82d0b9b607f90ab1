package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vrdfcap/internal/serve"
)

// TestSoakAgainstInProcessServer drives a short soak at a real serve.Server
// and checks the report plus the success gate.
func TestSoakAgainstInProcessServer(t *testing.T) {
	s := serve.New(serve.Config{Firings: 200})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL,
		"-duration", "300ms",
		"-concurrency", "4",
		"-problems", "2",
		"-variants", "4",
		"-min-rps", "1",
	}, &out)
	if err != nil {
		t.Fatalf("soak failed: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"req/s", "0 errors", "p50=", "p99=", "simEvents+", "requests+"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	// The mix must actually exercise the warm path: more requests than
	// computed problems.
	if st := s.StatsSnapshot(); st.CacheHits == 0 || st.Computes == 0 {
		t.Errorf("soak mix never hit both paths: %+v", st)
	}
}

func TestSoakGates(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("missing -addr accepted")
	}
	// An unreachable server must fail the run, not report success.
	err := run([]string{"-addr", "http://127.0.0.1:1", "-duration", "50ms", "-concurrency", "1"}, &out)
	if err == nil {
		t.Error("soak against an unreachable server succeeded")
	}
}

// TestSoakFailsWhenServerUndercounts pins the counting gate: a server
// whose /statsz requests delta is smaller than the responses soak received
// has lost count, and the soak fails even though every request succeeded.
func TestSoakFailsWhenServerUndercounts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/statsz" {
			_, _ = w.Write([]byte(`{"requests":1}`))
			return
		}
		_, _ = w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-duration", "50ms", "-concurrency", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "server counted 0 requests") {
		t.Fatalf("err = %v, want the undercount reported\n%s", err, out.String())
	}
}

// TestSoakFailsOnInconsistentBodies pins the body-consistency gate: a
// server that answers two variants of one problem with different 200
// bodies fails the soak, though every status was 200.
func TestSoakFailsOnInconsistentBodies(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/statsz" {
			_, _ = w.Write([]byte(`{}`))
			return
		}
		// Echo the variant's comment line: a key that tells variants apart.
		body, _ := io.ReadAll(r.Body)
		first, _, _ := strings.Cut(string(body), "\n")
		_, _ = w.Write([]byte(first))
	}))
	defer ts.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-duration", "50ms", "-concurrency", "1", "-problems", "1", "-variants", "2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "differs from the problem's first answer") {
		t.Fatalf("err = %v, want the body mismatch reported\n%s", err, out.String())
	}
}
