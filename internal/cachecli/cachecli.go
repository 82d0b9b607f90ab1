// Package cachecli wires the shared probe-verdict cache (internal/probecache)
// into the command-line tools: the -cache-backend/-cache-dir/-no-cache
// flags, store resolution, and the end-of-run flush and stats line. Both
// cmd/vrdfcap and cmd/mp3bench use it so the flags behave identically.
package cachecli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vrdfcap/internal/cachestore"
	"vrdfcap/internal/probecache"
)

// Flags holds the cache flag values of one CLI invocation.
type Flags struct {
	// Backend is a cachestore spec: dir:PATH, mem:, or http[s]://HOST
	// (the /v1/cache protocol served by vrdfserve). "" defers to Dir.
	Backend string
	// Dir is the on-disk cache directory; "" keeps verdicts in memory.
	Dir string
	// Disable turns cross-probe verdict caching off entirely.
	Disable bool
}

// Register installs -cache-backend, -cache-dir and -no-cache on the flag
// set.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Backend, "cache-backend", "",
		"verdict-store backend spec: dir:PATH, mem:, or http[s]://HOST (a vrdfserve /v1/cache store); overrides -cache-dir")
	fs.StringVar(&f.Dir, "cache-dir", "",
		"directory for the on-disk feasibility cache (default: in-memory for this run only)")
	fs.BoolVar(&f.Disable, "no-cache", false,
		"disable cross-probe verdict caching (-no-cache wins over -cache-backend and -cache-dir)")
}

// Store resolves the flags to a verdict store: nil when caching is
// disabled, a backend-backed store for -cache-backend, a disk-backed
// store for -cache-dir, and a fresh in-memory store otherwise.
//
// A -cache-backend spec naming a directory or remote store is wrapped in
// the cachestore.Resilient fault-tolerance layer with an in-memory
// fallback tier: per-op deadlines, bounded jittered retries, a half-open
// circuit breaker, and graceful demotion — a slow or dead store may cost
// cache hits, never stall or fail the analysis. The legacy -cache-dir
// path stays a bare directory store for byte-compatible behaviour.
func (f *Flags) Store() (*probecache.Store, error) {
	switch {
	case f.Disable:
		return nil, nil
	case f.Backend != "":
		b, err := cachestore.Parse(f.Backend)
		if err != nil {
			return nil, err
		}
		if _, ok := b.(*cachestore.Mem); ok {
			// A fresh private in-memory tier cannot misbehave; wrapping
			// it would only add counters that always read zero.
			return probecache.NewStoreBackend(b), nil
		}
		return probecache.NewStoreBackend(cachestore.NewResilient(b, cachestore.NewMem(), cachestore.Options{
			// Replicas pointed at one shared store must not retry in
			// lockstep; the pid decorrelates the jitter streams.
			Seed: uint64(os.Getpid()),
		})), nil
	case f.Dir != "":
		return probecache.NewStore(f.Dir), nil
	default:
		return probecache.NewStore(""), nil
	}
}

// Frontier returns the store's capacity frontier for the fingerprinted
// problem, or nil (no caching) when the store is nil.
func Frontier(st *probecache.Store, fingerprint string, buffers []string) (*probecache.Frontier, error) {
	if st == nil {
		return nil, nil
	}
	return st.Entry(fingerprint).Frontier(buffers)
}

// Periods returns the store's period-verdict cache for the fingerprinted
// problem, or nil when the store is nil.
func Periods(st *probecache.Store, fingerprint string) *probecache.Periods {
	if st == nil {
		return nil
	}
	return st.Entry(fingerprint).Periods()
}

// Flush persists a backed store and returns how many payloads it wrote;
// nil and memory-only stores flush nothing. The caller decides whether a
// flush failure is fatal (the cache is advisory, the computed answers are
// already printed).
func Flush(st *probecache.Store) (int, error) {
	if st == nil {
		return 0, nil
	}
	return st.Flush()
}

// WriteStats prints the one-line cache summary used under -stats.
func WriteStats(w io.Writer, st *probecache.Store, written int) {
	if st == nil {
		fmt.Fprintln(w, "cache: disabled")
		return
	}
	s := st.Stats()
	fmt.Fprintf(w, "cache: %d hits, %d misses across %d problem(s)", s.Hits, s.Misses, s.Entries)
	if s.Backend != "" {
		fmt.Fprintf(w, "; store: %d loaded, %d skipped, %d written (%s)", s.Loaded, s.Skipped, written, s.Backend)
	}
	if r := s.Resilience; r != nil {
		state := "closed"
		if r.BreakerOpen {
			state = "OPEN"
		}
		fmt.Fprintf(w, "; resilience: %d retries, %d demotions, breaker %s", r.Retries, r.Demotions, state)
	}
	fmt.Fprintln(w)
}
