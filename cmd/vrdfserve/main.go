// Command vrdfserve runs the capacity-analysis service (internal/serve)
// behind a hardened net/http server: POST graph documents to /v1/size,
// /v1/minimize, /v1/sweep or /v1/degradation; probe /healthz and
// /statsz.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener stops
// accepting, in-flight requests get a drain window, the worker pool and
// access-log drain stop, and a disk-backed verdict cache is flushed so
// the next process (or a cmd/vrdfcap run pointed at the same -cache-dir)
// starts warm.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vrdfcap/internal/graphio"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/serve"
)

// Hardened listener defaults. The service computes for up to the request
// timeout before writing, so there is deliberately no WriteTimeout — the
// per-computation budget (-timeout) bounds that side. The read-side
// limits exist so an idle, trickling or header-bloating client cannot
// pin a connection goroutine forever.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 1 << 20
)

// newHTTPServer returns the hardened http.Server every vrdfserve
// listener uses; a test pins the configured values.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vrdfserve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until ctx cancels or the listener
// fails. Split from main for tests: out receives the "listening on" line
// and the final stats summary.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vrdfserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	workers := fs.Int("workers", 0, "analysis worker goroutines (0: GOMAXPROCS)")
	queue := fs.Int("queue", 64, "jobs waiting for a worker before requests are shed with 503")
	timeout := fs.Duration("timeout", 30*time.Second, "wall-clock budget per computation (negative: unlimited)")
	firings := fs.Int64("firings", 1000, "default simulation horizon for minimize and degradation")
	maxFirings := fs.Int64("max-firings", 200_000, "cap on the per-request firings override")
	maxEvents := fs.Int64("max-events", 0, "cap on simulated events per probe run (0: engine default)")
	maxBytes := fs.Int("max-bytes", graphio.DefaultLimits.MaxBytes, "request-document byte limit")
	maxTasks := fs.Int("max-tasks", graphio.DefaultLimits.MaxTasks, "request-document task limit")
	maxBuffers := fs.Int("max-buffers", graphio.DefaultLimits.MaxBuffers, "request-document buffer limit")
	maxQuanta := fs.Int("max-quanta", graphio.DefaultLimits.MaxQuanta, "request-document quanta-set size limit")
	sweepPeriods := fs.Int("sweep-periods", 64, "cap on the periods of one sweep request")
	respCache := fs.Int("resp-cache", 1024, "rendered responses kept for exact-repeat requests")
	problemCache := fs.Int("problem-cache", 64, "compiled minimization problems kept warm")
	logBuffer := fs.Int("log-buffer", 1024, "access-log ring size in entries (drops, never blocks)")
	accessLog := fs.String("access-log", "", "access-log destination: a file path, \"-\" for stderr, empty for none")
	cacheDir := fs.String("cache-dir", "", "directory for the on-disk feasibility cache (default: in-memory)")
	drain := fs.Duration("drain", 5*time.Second, "grace window for in-flight requests on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (vrdfserve takes only flags)", fs.Arg(0))
	}

	var logW io.Writer
	switch *accessLog {
	case "":
	case "-":
		logW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open access log: %w", err)
		}
		defer f.Close()
		logW = f
	}

	store := probecache.NewStore(*cacheDir)
	s := serve.New(serve.Config{
		Limits: graphio.Limits{
			MaxBytes: *maxBytes, MaxTasks: *maxTasks,
			MaxBuffers: *maxBuffers, MaxQuanta: *maxQuanta,
		},
		Workers:           *workers,
		Queue:             *queue,
		RequestTimeout:    *timeout,
		Firings:           *firings,
		MaxFirings:        *maxFirings,
		MaxEvents:         *maxEvents,
		MaxSweepPeriods:   *sweepPeriods,
		ResponseCacheSize: *respCache,
		ProblemCacheSize:  *problemCache,
		LogBuffer:         *logBuffer,
		AccessLog:         logW,
		Store:             store,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "vrdfserve listening on http://%s\n", ln.Addr())

	hs := newHTTPServer(s)
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()

	select {
	case err := <-served:
		s.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful stop: listener first, in-flight requests within the drain
	// window, then the analysis pool and log drain.
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutErr := hs.Shutdown(shutCtx)
	s.Close()
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	st := s.StatsSnapshot()
	written, flushErr := store.Flush()
	fmt.Fprintf(out, "served: requests=%d cacheHits=%d coalesced=%d computes=%d rejected=%d errors=%d logDropped=%d simEvents=%d verdictHits=%d verdictMisses=%d\n",
		st.Requests, st.CacheHits, st.Coalesced, st.Computes, st.Rejected, st.Errors, st.LogDropped,
		st.SimEvents, st.VerdictHits, st.VerdictMisses)
	if *cacheDir != "" {
		fmt.Fprintf(out, "cache: %d verdict payload(s) flushed to dir:%s\n", written, *cacheDir)
	}
	if flushErr != nil {
		return fmt.Errorf("flush cache: %w", flushErr)
	}
	return shutErr
}
