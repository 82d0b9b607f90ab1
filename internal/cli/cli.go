// Package cli holds the plumbing cmd/vrdfcap and cmd/mp3bench share, so
// their common flags behave identically: the -cache-dir/-no-cache flags
// with store resolution and the end-of-run flush, the run-stats footer and
// probe-effort line, the -degradation factor grid, and the
// -cpuprofile/-memprofile profiles.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"vrdfcap/internal/faults"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
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

// Run measures one invocation for its stats footer. Its steps count their
// simulation work into Verify (verification runs) and Search (minimisation
// probes, whose own line ProbeEffort prints); the footer reports both.
type Run struct {
	Verify, Search sim.Effort
	workers        int
	start          time.Time
	cpu            time.Duration
}

// StartRun begins measuring wall and process CPU time for a run with the
// given worker bound.
func StartRun(workers int) *Run {
	return &Run{workers: workers, start: time.Now(), cpu: processCPUTime()}
}

// WriteStats prints the footer: the run's simulation effort and the
// verdict-store lookups under their /statsz key names, the worker bound,
// wall and CPU time, and, for a -cache-dir store, what it loaded, skipped
// and wrote.
func (r *Run) WriteStats(w io.Writer, f *Flags, st *probecache.Store, written int) {
	wall := time.Since(r.start)
	var cpu time.Duration
	if c := processCPUTime(); c > 0 {
		cpu = c - r.cpu
	}
	v, m := r.Verify.Counts(), r.Search.Counts()
	fmt.Fprintf(w, "\nrun stats: simEvents=%d resumedEvents=%d warmResets=%d coldResets=%d workers=%d wall=%s cpu=%s\n",
		v.SimEvents+m.SimEvents, v.ResumedEvents+m.ResumedEvents, v.WarmResets+m.WarmResets, v.ColdResets+m.ColdResets,
		r.workers, wall.Round(time.Microsecond), cpu.Round(time.Microsecond))
	if st == nil {
		fmt.Fprintln(w, "cache: disabled")
		return
	}
	s := st.Stats()
	fmt.Fprintf(w, "cache: verdictHits=%d verdictMisses=%d across %d problem(s)", s.VerdictHits, s.VerdictMisses, s.Entries)
	if f.Dir != "" {
		fmt.Fprintf(w, "; store: %d loaded, %d skipped, %d written (dir:%s)", s.Loaded, s.Skipped, written, f.Dir)
	}
	fmt.Fprintln(w)
}

// ProbeEffort prints the probe-effort line of a minimisation report.
func ProbeEffort(w io.Writer, e *sim.Effort) {
	c := e.Counts()
	fmt.Fprintf(w, "  probe effort: %d events simulated, %d replayed from checkpoints (%d warm resets, %d cold)\n",
		c.SimEvents, c.ResumedEvents, c.WarmResets, c.ColdResets)
}

// DegradationFactors parses a -degradation value and returns the overrun
// factors a degradation sweep evaluates: faults.DegradationPoints evenly
// spaced factors from 1 up to it. The value must exceed 1.
func DegradationFactors(s string) ([]ratio.Rat, error) {
	maxFactor, err := ratio.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("bad -degradation: %w", err)
	}
	one := ratio.FromInt(1)
	if !one.Less(maxFactor) {
		return nil, fmt.Errorf("-degradation factor %s must exceed 1", maxFactor)
	}
	return faults.FactorRange(one, maxFactor, faults.DegradationPoints), nil
}

// StartProfiling starts a CPU profile and/or arranges a heap profile,
// returning a stop function to defer. The heap profile is written at stop
// after a GC so it reflects live steady-state allocations.
func StartProfiling(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the start error is the one worth reporting
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			// A failed close can silently truncate the profile.
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}
