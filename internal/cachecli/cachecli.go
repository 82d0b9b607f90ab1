// Package cachecli wires the shared probe-verdict cache (internal/probecache)
// into the command-line tools: the -cache-dir/-no-cache flags, store
// resolution, and the end-of-run flush and stats line. Both cmd/vrdfcap
// and cmd/mp3bench use it so the flags behave identically.
package cachecli

import (
	"flag"
	"fmt"
	"io"

	"vrdfcap/internal/probecache"
)

// Flags holds the cache flag values of one CLI invocation.
type Flags struct {
	// Dir is the on-disk cache directory; "" keeps verdicts in memory.
	Dir string
	// Disable turns cross-probe verdict caching off entirely.
	Disable bool
}

// Register installs -cache-dir and -no-cache on the flag set.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Dir, "cache-dir", "",
		"directory for the on-disk feasibility cache (default: in-memory for this run only)")
	fs.BoolVar(&f.Disable, "no-cache", false,
		"disable cross-probe verdict caching (-no-cache wins over -cache-dir)")
}

// Store resolves the flags to a verdict store: nil when caching is
// disabled, a disk-backed store for -cache-dir, and a fresh in-memory
// store otherwise.
func (f *Flags) Store() *probecache.Store {
	if f.Disable {
		return nil
	}
	return probecache.NewStore(f.Dir)
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

// Flush persists a disk-backed store and returns how many payloads it wrote;
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
	fmt.Fprintln(w)
}
