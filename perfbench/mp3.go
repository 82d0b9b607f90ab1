package main

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"time"

	"vrdfcap"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// The mp3-minimize workload is the `vrdfcap -minimize` call path on the
// paper's §5 MP3 chain, run in process and serially (Workers: 1).
const (
	mp3Doc         = "testdata/mp3.txt"
	mp3Firings     = 2205 // DAC firings per probe: 50 ms of 44.1 kHz audio
	mp3Checkpoints = 8    // the CLI default
	mp3Cold        = 192  // cold jobs per pass, each with its own VBR seed
	mp3HotEvery    = 3    // a hot repeat follows every third cold job
	mp3Warmup      = 2    // untimed cold jobs in set-up
	mp3Oracles     = 2    // seeds re-checked by an unpruned search per run
)

// Eq-4 capacities of the three MP3 buffers (Table 1 of the paper, with
// d3 = 883 from Eq. 4 against the paper's 882).
var mp3Eq4 = map[string]int64{"vBR->vMP3": 6015, "vMP3->vSRC": 3263, "vSRC->vDAC": 883}

type mp3Workload struct {
	b     *bench
	doc   []byte
	seeds []int64
	hotOf []int              // per cold job: the earlier cold job repeated hot right after it, or -1
	caps  []map[string]int64 // per cold job: the minimal capacities found
}

func newMP3(b *bench) (workload, error) {
	rng := rand.New(rand.NewSource(b.seed))
	w := &mp3Workload{b: b, seeds: make([]int64, mp3Cold), hotOf: make([]int, mp3Cold)}
	for i := range w.seeds {
		w.seeds[i] = 1 + rng.Int63n(1<<31)
		w.hotOf[i] = -1
		if i%mp3HotEvery == mp3HotEvery-1 {
			w.hotOf[i] = rng.Intn(i + 1)
		}
	}
	return w, nil
}

// passes: a pass is 1.3 to 3 s of serial minimisation on a 2.0 GHz
// Xeon, depending on how busy the host's other tenants are.
func (w *mp3Workload) passes(seconds int) int { return max(4, seconds*3/4) }

func (w *mp3Workload) setup() error {
	doc, err := os.ReadFile(mp3Doc)
	if err != nil {
		return err
	}
	w.doc = doc
	g, c, err := graphio.DecodeAny(doc)
	if err != nil {
		return err
	}
	res, err := capacity.Compute(g, *c, capacity.PolicyEquation4)
	if err != nil {
		return err
	}
	for _, br := range res.Buffers {
		if want := mp3Eq4[br.Buffer]; br.Capacity != want {
			w.b.fail("Eq-4 capacity of %s is %d, want %d", br.Buffer, br.Capacity, want)
		}
	}
	// Warm-up jobs, not counted as jobs, let the heap reach its working size.
	store := map[string]*probecache.Frontier{}
	for i := 0; i < mp3Warmup; i++ {
		if _, err := w.job(nil, 0, w.seeds[i], store, cold, &minimize.ProbeStats{}); err != nil {
			return err
		}
	}
	return nil
}

// mp3Outcome is what one job returns to the gates and counters.
type mp3Outcome struct {
	res                *minimize.Result
	analytic           int64
	buffers            []string
	upper              map[string]int64
	sim, bound, cached int // probes simulated, bound-decided, cache-answered
}

// job runs one minimisation. A cold job starts from a fresh feasibility
// frontier; a hot job repeats a problem of this pass against the frontier
// its cold run left under the same fingerprint, as `vrdfcap -minimize`
// does with a warm verdict store.
func (w *mp3Workload) job(tr *tracer, job int, seed int64, store map[string]*probecache.Frontier, class int, ps *minimize.ProbeStats) (*mp3Outcome, error) {
	root := tr.begin("job", -1, job)
	sp := tr.begin("graphio.parse", root, job)
	g, c, err := graphio.DecodeAny(w.doc)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("capacity.analyze", root, job)
	res, err := capacity.Compute(g, *c, capacity.PolicyEquation4)
	if err != nil {
		return nil, err
	}
	sized, err := capacity.Sized(g, res)
	if err != nil {
		return nil, err
	}
	sufficient, necessary, err := capacity.SearchBounds(res, g)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out := &mp3Outcome{analytic: res.TotalCapacity()}
	out.buffers, out.upper = searchSpace(sized)
	sp = tr.begin("probecache.fingerprint", root, job)
	fp := probecache.GraphKey(sized,
		"minimize-throughput",
		"task="+c.Task, "period="+c.Period.String(),
		fmt.Sprintf("firings=%d", mp3Firings),
		fmt.Sprintf("workload=uniform:seed=%d", seed),
		"max-events=0",
	)
	tr.end(sp)
	frontier := store[fp]
	if class == cold {
		frontier = probecache.NewFrontier(out.buffers)
		store[fp] = frontier
	} else if frontier == nil {
		return nil, fmt.Errorf("hot job %d: no frontier under its fingerprint", job)
	}

	search := tr.begin("minimize.search", root, job)
	opts := minimize.Options{
		Workers:     1,
		Cache:       frontier,
		Checkpoints: mp3Checkpoints,
		Bounds:      &minimize.Bounds{Sufficient: sufficient, Necessary: necessary},
		Stats:       ps,
	}
	check := minimize.ThroughputCheck(g, *c, mp3Firings, []sim.Workloads{sim.UniformWorkloads(sized, seed)}, opts)
	if tr != nil {
		inner := check
		check = func(caps map[string]int64) (bool, error) {
			s := tr.begin("sim.check", search, job)
			ok, err := inner(caps)
			tr.end(s)
			return ok, err
		}
	}
	mres, err := minimize.Search(out.buffers, out.upper, check, opts)
	tr.end(search)
	if err != nil {
		return nil, err
	}
	out.res = mres
	out.sim, out.bound, out.cached = mres.Checks, mres.BoundHits, mres.CacheHits

	sp = tr.begin("report.render", root, job)
	var buf bytes.Buffer
	err = vrdfcap.WriteReport(&buf, res)
	fmt.Fprintf(&buf, "\nempirically minimal capacities for this workload (%d firings per probe; %d probes simulated, %d answered by the feasibility cache, %d decided by analytic bounds):\n",
		mp3Firings, mres.Checks, mres.CacheHits, mres.BoundHits)
	for _, b := range out.buffers {
		fmt.Fprintf(&buf, "  %-12s analytic %6d  minimal %6d\n", b, out.upper[b], mres.Caps[b])
	}
	fmt.Fprintf(&buf, "  totals: analytic=%d, minimal=%d\n", out.analytic, mres.Total())
	tr.end(sp)
	tr.end(root)
	return out, err
}

func (w *mp3Workload) pass(tr *tracer, rec *recorder) (map[string]int64, error) {
	store := map[string]*probecache.Frontier{}
	ps := &minimize.ProbeStats{}
	counts := map[string]int64{}
	w.caps = make([]map[string]int64, mp3Cold)
	timed := func(seed int64, class int) (*mp3Outcome, error) {
		t0, c0 := time.Now(), cpuNow()
		out, err := w.job(tr, w.b.nextJob(), seed, store, class, ps)
		rec.job(class, time.Since(t0), cpuNow()-c0)
		if err != nil {
			return nil, err
		}
		counts["minimize.probes_sim"] += int64(out.sim)
		counts["minimize.probes_cached"] += int64(out.cached)
		counts["minimize.probes_bound"] += int64(out.bound)
		return out, nil
	}
	for i, seed := range w.seeds {
		out, err := timed(seed, cold)
		if err != nil {
			return nil, err
		}
		w.caps[i] = out.res.Caps
		if out.res.Total() > out.analytic {
			w.b.fail("seed %d: minimal total %d exceeds the analytic total %d", seed, out.res.Total(), out.analytic)
		}
		if j := w.hotOf[i]; j >= 0 {
			out, err := timed(w.seeds[j], hot)
			if err != nil {
				return nil, err
			}
			if !maps.Equal(out.res.Caps, w.caps[j]) || out.sim != 0 {
				w.b.fail("seed %d: warm repeat found %v with %d probes simulated, cold run found %v",
					w.seeds[j], out.res.Caps, out.sim, w.caps[j])
			}
		}
	}
	counts["sim.events"] = ps.SimEvents.Load()
	counts["sim.resumed_events"] = ps.ResumedEvents.Load()
	counts["sim.warm_resets"] = ps.WarmResets.Load()
	counts["sim.cold_resets"] = ps.ColdResets.Load()
	return counts, nil
}

// verify re-derives the minimum of the first seeds with an unpruned
// search — no feasibility cache, no checkpoints, no analytic bounds —
// once per run, after the last pass: the unpruned search needs twice the
// memory of the workload's jobs.
func (w *mp3Workload) verify(last bool) error {
	if !last {
		return nil
	}
	g, c, err := graphio.DecodeAny(w.doc)
	if err != nil {
		return err
	}
	sized, _, err := vrdfcap.Size(g, *c, capacity.PolicyEquation4)
	if err != nil {
		return err
	}
	buffers, upper := searchSpace(sized)
	for i := 0; i < mp3Oracles; i++ {
		opts := minimize.Options{Workers: 1, NoCache: true}
		check := minimize.ThroughputCheck(g, *c, mp3Firings, []sim.Workloads{sim.UniformWorkloads(sized, w.seeds[i])}, opts)
		res, err := minimize.Search(buffers, upper, check, opts)
		if err != nil {
			return err
		}
		if !maps.Equal(res.Caps, w.caps[i]) {
			w.b.fail("seed %d: pruned search found %v, unpruned oracle %v", w.seeds[i], w.caps[i], res.Caps)
		}
	}
	return nil
}

// searchSpace returns the buffers of a sized graph in order and their
// capacities, the upper bounds a minimisation starts from.
func searchSpace(sized *taskgraph.Graph) ([]string, map[string]int64) {
	var buffers []string
	upper := map[string]int64{}
	for _, b := range sized.Buffers() {
		buffers = append(buffers, b.DefaultName())
		upper[b.DefaultName()] = b.Capacity
	}
	return buffers, upper
}
