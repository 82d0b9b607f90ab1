// Command perfbench is the repository's performance ledger: one command
// that measures the simulator-backed minimisation, the closed-form period
// sweep and the HTTP service end to end, and — in a traced run — layer by
// layer. README.md beside this file explains the workloads and metrics.
//
//	bash perfbench/run.sh --workload mp3-minimize --seed 1 --seconds 20 --trace 0
//
// A run makes a fixed number of passes over a job list derived from the
// seed. Every pass sets up fresh state (timed as set-up), runs the same
// jobs in the same order, and must reproduce the same exact counts; the
// output gates run between the timed phases. The last line of standard
// output is the JSON result.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// workload is one benchmark workload.
type workload interface {
	// passes is the number of passes a run of the given length makes:
	// a fixed function of the length, never of elapsed time.
	passes(seconds int) int
	// setup builds one pass's inputs and state, replacing what an earlier
	// set-up built; it is timed as set-up.
	setup() error
	// pass runs the pass's fixed job list, timing every job into rec and,
	// when tr is non-nil, recording spans. It returns the pass's exact
	// counts.
	pass(tr *tracer, rec *recorder) (map[string]int64, error)
	// verify runs the output gates deferred to after the timed phase;
	// last marks the run's final pass, after which peak_rss_mb has been
	// read, so a gate that needs much memory runs then.
	verify(last bool) error
}

// bench is the state shared by every workload of a run.
type bench struct {
	seed   int64
	out    string // directory for the span dump and the count ledger
	failed atomic.Int64
	jobID  atomic.Int64
}

// fail counts a failed operation or output gate.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

func (b *bench) nextJob() int { return int(b.jobID.Add(1)) }

var workloads = map[string]func(*bench) (workload, error){
	"mp3-minimize": newMP3,
	"chain-sweep":  newChains,
	"serve-mixed":  newServe,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: mp3-minimize, chain-sweep or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "nominal run length; sets the number of passes")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the span dump and the exact-count ledger")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	b := &bench{seed: *seed, out: *out}
	w, err := mk(b)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	traced := *traceFlag == 1

	// Passes alternate traced and untraced in a traced run, so tracing
	// overhead is read off within one run; end-to-end metrics come from
	// untraced runs only.
	n := w.passes(*seconds)
	var (
		setups      []float64
		passP50     []float64      // every pass's job_p50_ms, in order: drift within the run
		recs        [2][]*recorder // untraced, traced: one per pass
		tr          *tracer
		tracedN     int
		peakRSS     float64 // MiB, before the last pass's gates
		first       map[string]int64
		alloc, gcs  uint64 // over the passes' timed phases
		steal0, t0  = hostTicks()
		countsFault bool
	)
	if traced {
		tr = newTracer()
	}
	for p := 0; p < n; p++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		var ptr *tracer
		i := 0
		if traced && p%2 == 0 {
			ptr, i = tr, 1
			tracedN++
		}
		rec := &recorder{}
		recs[i] = append(recs[i], rec)
		m0 := readMem()
		counts, err := w.pass(ptr, rec)
		if err != nil {
			return err
		}
		m1 := readMem()
		passP50 = append(passP50, quantile(rec.walls(), 0.5))
		alloc, gcs = alloc+m1.alloc-m0.alloc, gcs+m1.gc-m0.gc
		if p == n-1 {
			peakRSS = peakRSSMB()
		}
		if err := w.verify(p == n-1); err != nil {
			return err
		}
		if first == nil {
			first = counts
		} else if !maps.Equal(first, counts) {
			countsFault = true
			b.fail("pass %d counts %v differ from pass 0 counts %v", p, counts, first)
		}
	}
	steal1, t1 := hostTicks()
	if !countsFault {
		if err := b.ledger(*name, first); err != nil {
			return err
		}
	}

	var all []float64 // every untraced job's wall time
	var jobs int
	var busy [2]time.Duration
	for i := range recs {
		for _, r := range recs[i] {
			if i == 0 {
				all = append(all, r.walls()...)
			}
			jobs += r.jobs
			busy[i] += r.busy
		}
	}
	attempted := int64(jobs)
	stealShare := 0.0
	if t1 > t0 {
		stealShare = float64(steal1-steal0) / float64(t1-t0)
	}
	fmt.Fprintf(stdout, "host: nproc=%d gomaxprocs=%d go=%s steal_share=%.4f passes=%d jobs=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), stealShare, n, jobs)
	fmt.Fprintf(stdout, "counts per pass: %s\n", formatCounts(first))
	fmt.Fprintf(stdout, "job_p50_ms per pass: %s\n", formatFloats(passP50))
	fmt.Fprintf(stdout, "setup_s per pass: %s\n", formatFloats(setups))

	m := map[string]metric{}
	if !traced {
		m["setup_s"] = metric{best(setups), "s"}
		m["peak_rss_mb"] = metric{peakRSS, "MiB"}
		for k, v := range timings(recs[0]) {
			m[k] = metric{v, "ms"}
		}
		fmt.Fprintf(stdout, "diagnostics: host.steal_share=%.4f host.jobs_per_s=%.2f host.job_p90_wall_ms=%.4f\n",
			stealShare, float64(jobs)/busy[0].Seconds(), quantile(all, 0.9))
	} else {
		layerMetrics(m, tr, first, tracedN)
		tracedP50, untracedP50 := timings(recs[1])["job_p50_ms"], timings(recs[0])["job_p50_ms"]
		m["trace.job_p50_ms"] = metric{tracedP50, "ms"}
		m["trace.untraced_job_p50_ms"] = metric{untracedP50, "ms"}
		m["trace.overhead_share"] = metric{ratioOf(tracedP50, untracedP50) - 1, "ratio"}
		m["go.alloc_kb_per_job"] = metric{float64(alloc) / 1024 / float64(jobs), "KiB"}
		m["go.gc_per_100_jobs"] = metric{float64(gcs) * 100 / float64(jobs), "count"}
		both := all
		for _, r := range recs[1] {
			both = append(both, r.walls()...)
		}
		m["host.steal_share"] = metric{stealShare, "ratio"}
		m["host.jobs_per_s"] = metric{float64(jobs) / (busy[0] + busy[1]).Seconds(), "1/s"}
		m["host.job_p90_wall_ms"] = metric{quantile(both, 0.9), "ms"}
		path := filepath.Join(*out, fmt.Sprintf("perfbench-trace-%s-%d.csv", *name, *seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(tr.spans), path)
	}
	failed := b.failed.Load()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func ratioOf(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func formatFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(s, " ")
}

func formatCounts(c map[string]int64) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf(" %s=%d", k, c[k])
	}
	return s
}

// ledger checks the pass's exact counts against earlier runs of the same
// binary, workload and seed, recording them on the first such run. The
// binary's hash keys the ledger, so a changed program starts a new one.
func (b *bench) ledger(workload string, counts map[string]int64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(data)
	dir := filepath.Join(b.out, "perfbench-counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", hex.EncodeToString(sum[:8]), workload, b.seed))
	if prev, err := os.ReadFile(path); err == nil {
		var want map[string]int64
		if err := json.Unmarshal(prev, &want); err != nil {
			return fmt.Errorf("count ledger %s: %w", path, err)
		}
		if !maps.Equal(want, counts) {
			b.fail("counts%s differ from an earlier run of this seed:%s", formatCounts(counts), formatCounts(want))
		}
		return nil
	}
	enc, err := json.Marshal(counts)
	if err != nil {
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

// layerMetrics fills the per-layer metrics of a traced run. Every workload
// reports every name; a layer a workload does not exercise reads 0.
// Counts are per pass (they repeat exactly); times are means per call
// over the traced passes, from span self time unless noted.
func layerMetrics(m map[string]metric, tr *tracer, c map[string]int64, tracedPasses int) {
	layers, unattributed := tr.summary()
	get := func(name string) layerStats {
		if l := layers[name]; l != nil {
			return *l
		}
		return layerStats{}
	}
	perCall := func(d time.Duration, calls int) time.Duration {
		if calls == 0 {
			return 0
		}
		return d / time.Duration(calls)
	}
	selfUS := func(name string) float64 { l := get(name); return us(perCall(l.self, l.calls)) }
	count := func(name string) metric { return metric{float64(c[name]), "count"} }

	m["trace.unattributed_share"] = metric{unattributed, "ratio"}
	m["graphio.parse_us"] = metric{selfUS("graphio.parse"), "us"}
	m["probecache.fingerprint_us"] = metric{selfUS("probecache.fingerprint"), "us"}
	m["capacity.analyze_us"] = metric{selfUS("capacity.analyze"), "us"}
	m["capacity.compile_us"] = metric{selfUS("capacity.compile"), "us"}
	m["capacity.sweep_us"] = metric{selfUS("capacity.sweep"), "us"}
	m["capacity.at_us"] = metric{selfUS("capacity.at"), "us"}
	m["capacity.minperiod_us"] = metric{selfUS("capacity.minperiod"), "us"}
	m["capacity.periods"] = count("capacity.periods")
	m["capacity.valid_share"] = metric{ratioOf(float64(c["capacity.valid_points"]), float64(c["capacity.sweep_points"])), "ratio"}
	m["probecache.period_hits"] = count("probecache.period_hits")
	m["probecache.period_misses"] = count("probecache.period_misses")

	search, check := get("minimize.search"), get("sim.check")
	m["minimize.search_ms"] = metric{ms(perCall(search.total, search.calls)), "ms"}
	m["minimize.self_ms"] = metric{ms(perCall(search.self, search.calls)), "ms"}
	m["minimize.probes_sim"] = count("minimize.probes_sim")
	m["minimize.probes_cached"] = count("minimize.probes_cached")
	m["minimize.probes_bound"] = count("minimize.probes_bound")
	probes := c["minimize.probes_sim"] + c["minimize.probes_cached"] + c["minimize.probes_bound"]
	m["minimize.sim_share"] = metric{ratioOf(float64(c["minimize.probes_sim"]), float64(probes)), "ratio"}
	// sim.check is the total CheckFunc time of one search.
	m["sim.check_ms"] = metric{ms(perCall(check.total, search.calls)), "ms"}
	m["sim.events"] = count("sim.events")
	m["sim.resumed_events"] = count("sim.resumed_events")
	m["sim.events_per_probe"] = metric{ratioOf(float64(c["sim.events"]), float64(c["minimize.probes_sim"])), "count"}
	m["sim.mevents_per_s"] = metric{ratioOf(float64(c["sim.events"]*int64(tracedPasses)), check.total.Seconds()) / 1e6, "Mevents/s"}
	m["sim.warm_resets"] = count("sim.warm_resets")
	m["sim.cold_resets"] = count("sim.cold_resets")
	m["report.render_us"] = metric{selfUS("report.render"), "us"}

	for _, cn := range className {
		m["serve.handler_"+cn+"_us"] = metric{selfUS("serve.handler." + cn), "us"}
		// The round-trip span's self time is the client round trip
		// minus the handler: HTTP transport on loopback.
		m["http.transport_"+cn+"_us"] = metric{selfUS("http.roundtrip." + cn), "us"}
	}
	m["serve.hits"] = count("serve.hits")
	m["serve.computes"] = count("serve.computes")
	m["serve.coalesced"] = count("serve.coalesced")
	m["serve.rejected"] = count("serve.rejected")
	answered := c["serve.hits"] + c["serve.computes"] + c["serve.coalesced"]
	m["serve.hit_share"] = metric{ratioOf(float64(c["serve.hits"]), float64(answered)), "ratio"}
	m["serve.sim_events"] = count("serve.sim_events")
}
