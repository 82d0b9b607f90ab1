package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

const pairDoc = `task a wcrt 1
task b wcrt 1
buffer a -> b prod 3 cons {2,3}
constraint b period 3
`

// syncBuf is a goroutine-safe writer for run's output.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenLine = regexp.MustCompile(`listening on (http://[^\s]+)`)

// TestRunServesAndShutsDown boots the real binary path end to end: free
// port, one analysis request, graceful shutdown, cache flush, final stats.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cacheDir := t.TempDir()
	var out syncBuf
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-cache-dir", cacheDir, "-firings", "200"}, &out)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenLine.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line in %q", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Post(base+"/v1/minimize", "application/json", strings.NewReader(pairDoc))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("minimize: status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// No verdict-store route is served: writes to it are plain 404s.
	url := base + path.Join("/v1", "cache", strings.Repeat("ab", 32))
	for _, method := range []string{http.MethodPut, http.MethodDelete} {
		req, err := http.NewRequest(method, url, strings.NewReader(`{"advisory":true}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", method, url, resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not shut down; output:\n%s", out.String())
	}

	text := out.String()
	if !strings.Contains(text, "served ") || !strings.Contains(text, "flushed to dir:"+cacheDir) {
		t.Fatalf("final stats missing from output:\n%s", text)
	}
	// The minimize verdicts must have landed on disk.
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("cache dir %s is empty after flush", cacheDir)
	}
}

func TestRunRejectsBadInvocation(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(context.Background(), []string{"positional"}, &out); err == nil {
		t.Error("positional argument accepted")
	}
	if err := run(context.Background(), []string{"-access-log", filepath.Join(t.TempDir(), "missing", "log")}, &out); err == nil {
		t.Error("unopenable access log accepted")
	}
	// The remote verdict-store flags and -checkpoints are gone: each is an
	// unknown flag.
	for _, flagName := range []string{"-cache-backend", "-cache-store", "-cache-entries", "-checkpoints"} {
		if err := run(context.Background(), []string{flagName, "x"}, &out); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", flagName, err)
		}
	}
}

// TestNewHTTPServerHardening pins the listener's protective limits: a
// regression that drops one silently reopens the slow-client /
// header-bloat exposure.
func TestNewHTTPServerHardening(t *testing.T) {
	hs := newHTTPServer(nil)
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.ReadTimeout != time.Minute {
		t.Errorf("ReadTimeout = %v, want 1m", hs.ReadTimeout)
	}
	if hs.IdleTimeout != 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want 2m", hs.IdleTimeout)
	}
	if hs.MaxHeaderBytes != 1<<20 {
		t.Errorf("MaxHeaderBytes = %d, want 1 MiB", hs.MaxHeaderBytes)
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (computations answer within the request budget)", hs.WriteTimeout)
	}
}
