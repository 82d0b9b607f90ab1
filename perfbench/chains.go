package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"vrdfcap"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// The chain-sweep workload is closed-form design-space exploration on
// random chains: sweep a period grid, then find the minimal feasible
// period on a finer grid. It never simulates.
const (
	chainCold     = 800 // cold jobs per pass, one distinct chain each
	chainHotEvery = 3   // a hot repeat follows every third cold job
	chainWarmup   = 8   // untimed cold jobs in set-up
	chainGrid     = 64  // points of the coarse and of the fine grid
	chainSample   = 16  // every this many cold jobs, re-check points against capacity.Compute
)

type chainWorkload struct {
	b      *bench
	graphs []*taskgraph.Graph
	cons   []taskgraph.Constraint
	docs   [][]byte
	hotOf  []int // per cold job: the earlier cold job repeated hot right after it, or -1
}

// chainState is what a cold job leaves for hot repeats under the chain's
// fingerprint: its period-verdict cache, fine grid and answer.
type chainState struct {
	periods *probecache.Periods
	fine    []ratio.Rat
	least   ratio.Rat
}

// newChains draws the run's chains (4–8 tasks) and the hot repeats.
func newChains(b *bench) (workload, error) {
	rng := rand.New(rand.NewSource(b.seed))
	w := &chainWorkload{b: b, hotOf: make([]int, chainCold)}
	for i := range w.hotOf {
		g, c, err := graphgen.Random(graphgen.Config{
			Seed: b.seed*1_000_003 + int64(i), MinTasks: 4, MaxTasks: 8, MaxQuantum: 8, MaxSetSize: 3,
		})
		if err != nil {
			return nil, err
		}
		w.graphs, w.cons = append(w.graphs, g), append(w.cons, c)
		w.hotOf[i] = -1
		if i%chainHotEvery == chainHotEvery-1 {
			w.hotOf[i] = rng.Intn(i + 1)
		}
	}
	return w, nil
}

// passes: a pass is 0.5 to 1 s on a 2.0 GHz Xeon, depending on how busy
// the host's other tenants are.
func (w *chainWorkload) passes(seconds int) int { return max(4, seconds*6/5) }

// setup encodes the chains to text, as a user's documents would arrive,
// and runs a few warm-up jobs, not counted as jobs, so the heap reaches
// its working size.
func (w *chainWorkload) setup() error {
	w.docs = w.docs[:0]
	for i, g := range w.graphs {
		w.docs = append(w.docs, graphio.EncodeText(g, &w.cons[i]))
	}
	store := map[string]*chainState{}
	for i := 0; i < chainWarmup; i++ {
		if _, err := w.coldJob(nil, 0, w.docs[i], store); err != nil {
			return err
		}
	}
	return nil
}

// coarseGrid is chainGrid periods k/32·τ, k = 1..64, around the constraint
// τ: graphgen draws every response time at most τ, so the minimal feasible
// period lies inside it.
func coarseGrid(tau ratio.Rat) []ratio.Rat {
	out := make([]ratio.Rat, chainGrid)
	for k := range out {
		out[k] = tau.MulInt(int64(k + 1)).DivInt(32)
	}
	return out
}

// fineGrid is chainGrid evenly spaced periods from lo to hi inclusive.
func fineGrid(lo, hi ratio.Rat) []ratio.Rat {
	out := make([]ratio.Rat, chainGrid)
	step := hi.Sub(lo).DivInt(chainGrid - 1)
	for j := range out {
		out[j] = lo.Add(step.MulInt(int64(j)))
	}
	return out
}

// chainOutcome is what one job returns to the gates and counters.
type chainOutcome struct {
	g            *taskgraph.Graph
	c            *taskgraph.Constraint
	pts          []capacity.SweepPoint
	least        capacity.SweepPoint // the minimal feasible period found
	st           *chainState
	hits, misses int64
	materialised int64 // 1 when MinimalFeasiblePeriodOpt re-analysed a cache-answered winner
}

func (w *chainWorkload) parse(tr *tracer, root, job int, doc []byte) (*taskgraph.Graph, *taskgraph.Constraint, string, error) {
	sp := tr.begin("graphio.parse", root, job)
	g, c, err := graphio.DecodeAny(doc)
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	sp = tr.begin("probecache.fingerprint", root, job)
	key := capacity.SweepKey(g, c.Task, capacity.PolicyEquation4)
	tr.end(sp)
	return g, c, key, nil
}

func render(tr *tracer, root, job int, res *capacity.Result) error {
	sp := tr.begin("report.render", root, job)
	var buf bytes.Buffer
	err := vrdfcap.WriteReport(&buf, res)
	tr.end(sp)
	return err
}

// coldJob sweeps a chain never seen in the pass against a fresh period
// cache, then finds its minimal feasible period on a fine grid between
// the last infeasible and the first feasible coarse point.
func (w *chainWorkload) coldJob(tr *tracer, job int, doc []byte, store map[string]*chainState) (*chainOutcome, error) {
	root := tr.begin("job", -1, job)
	defer tr.end(root)
	g, c, key, err := w.parse(tr, root, job, doc)
	if err != nil {
		return nil, err
	}
	st := &chainState{periods: probecache.NewPeriods()}
	store[key] = st
	opts := capacity.SweepOptions{Parallel: 1, Cache: st.periods}
	sp := tr.begin("capacity.sweep", root, job)
	pts, err := capacity.SweepPeriodsOpt(g, c.Task, coarseGrid(c.Period), capacity.PolicyEquation4, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	first := len(pts) - 1
	for first > 0 && pts[first-1].Valid {
		first--
	}
	lo := pts[first].Period.DivInt(2)
	if first > 0 {
		lo = pts[first-1].Period
	}
	st.fine = fineGrid(lo, pts[first].Period)
	sp = tr.begin("capacity.minperiod", root, job)
	least, err := capacity.MinimalFeasiblePeriodOpt(g, c.Task, st.fine, capacity.PolicyEquation4, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	st.least = least.Period
	if err := render(tr, root, job, least.Result); err != nil {
		return nil, err
	}
	hits, misses := st.periods.Counters()
	// The fine grid's last period is the first feasible sweep point, the
	// only fine period the cache answers as feasible; a winner there was a
	// cache hit, which MinimalFeasiblePeriodOpt analyses once more to
	// build its result.
	var materialised int64
	if least.Period.Equal(st.fine[len(st.fine)-1]) {
		materialised = 1
	}
	return &chainOutcome{g: g, c: c, pts: pts, least: least, st: st, hits: hits, misses: misses, materialised: materialised}, nil
}

// hotJob repeats the minimal-period query of a chain already swept in
// this pass; its period cache answers every probe, so the winner is
// analysed once more to build the result.
func (w *chainWorkload) hotJob(tr *tracer, job int, doc []byte, store map[string]*chainState) (*chainOutcome, error) {
	root := tr.begin("job", -1, job)
	defer tr.end(root)
	g, c, key, err := w.parse(tr, root, job, doc)
	if err != nil {
		return nil, err
	}
	st := store[key]
	if st == nil {
		return nil, fmt.Errorf("hot job %d: no period cache under its fingerprint", job)
	}
	h0, m0 := st.periods.Counters()
	sp := tr.begin("capacity.minperiod", root, job)
	least, err := capacity.MinimalFeasiblePeriodOpt(g, c.Task, st.fine, capacity.PolicyEquation4,
		capacity.SweepOptions{Parallel: 1, Cache: st.periods})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := render(tr, root, job, least.Result); err != nil {
		return nil, err
	}
	h1, m1 := st.periods.Counters()
	return &chainOutcome{g: g, c: c, least: least, st: st, hits: h1 - h0, misses: m1 - m0, materialised: 1}, nil
}

func (w *chainWorkload) pass(tr *tracer, rec *recorder) (map[string]int64, error) {
	store := map[string]*chainState{}
	counts := map[string]int64{}
	timed := func(class int, doc []byte) (*chainOutcome, error) {
		job := w.b.nextJob()
		t0, c0 := time.Now(), cpuNow()
		var out *chainOutcome
		var err error
		if class == cold {
			out, err = w.coldJob(tr, job, doc, store)
		} else {
			out, err = w.hotJob(tr, job, doc, store)
		}
		rec.job(class, time.Since(t0), cpuNow()-c0)
		if err != nil {
			return nil, err
		}
		counts["probecache.period_hits"] += out.hits
		counts["probecache.period_misses"] += out.misses
		counts["capacity.sweep_points"] += int64(len(out.pts))
		// Every sweep point, every cache miss and every re-analysed
		// cache-answered winner is one closed-form analysis at one period.
		counts["capacity.periods"] += int64(len(out.pts)) + out.misses + out.materialised
		for _, pt := range out.pts {
			if pt.Valid {
				counts["capacity.valid_points"]++
			}
		}
		return out, nil
	}
	for i, doc := range w.docs {
		out, err := timed(cold, doc)
		if err != nil {
			return nil, err
		}
		w.checkSweep(i, out)
		if tr != nil && i%chainSample == 0 {
			if err := replay(tr, w.b.nextJob(), out); err != nil {
				return nil, err
			}
		}
		if j := w.hotOf[i]; j >= 0 {
			hotOut, err := timed(hot, w.docs[j])
			if err != nil {
				return nil, err
			}
			if !hotOut.least.Period.Equal(hotOut.st.least) || hotOut.misses != 0 {
				w.b.fail("chain %d: hot repeat found period %v with %d cache misses, cold run found %v",
					j, hotOut.least.Period, hotOut.misses, hotOut.st.least)
			}
		}
	}
	return counts, nil
}

// replay decomposes one cold job's sweep outside its timer: compile the
// chain once, then analyse every coarse period, as SweepPeriodsOpt does.
// It gives capacity.compile_us and capacity.at_us in traced runs.
func replay(tr *tracer, job int, out *chainOutcome) error {
	root := tr.begin("replay", -1, job)
	defer tr.end(root)
	sp := tr.begin("capacity.compile", root, job)
	a, err := capacity.CompileAnalysis(out.g, out.c.Task, capacity.PolicyEquation4)
	tr.end(sp)
	if err != nil {
		return err
	}
	for _, pt := range out.pts {
		sp := tr.begin("capacity.at", root, job)
		_, err := a.At(pt.Period)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// checkSweep is the sweep's output gate: validity is monotone in the
// period, totals never grow with it, and — on a sample of jobs — sweep
// points and the minimal period agree with a fresh per-period Compute.
func (w *chainWorkload) checkSweep(i int, out *chainOutcome) {
	for k := 1; k < len(out.pts); k++ {
		prev, cur := out.pts[k-1], out.pts[k]
		if prev.Valid && !cur.Valid {
			w.b.fail("chain %d: valid at %v but not at %v", i, prev.Period, cur.Period)
		}
		if prev.Valid && cur.Total > prev.Total {
			w.b.fail("chain %d: total grows from %d at %v to %d at %v", i, prev.Total, prev.Period, cur.Total, cur.Period)
		}
	}
	if !out.least.Valid {
		w.b.fail("chain %d: minimal period %v is not feasible", i, out.least.Period)
	}
	if i%chainSample != 0 {
		return
	}
	at := func(tau ratio.Rat) *capacity.Result {
		res, err := capacity.Compute(out.g, taskgraph.Constraint{Task: out.c.Task, Period: tau}, capacity.PolicyEquation4)
		if err != nil {
			w.b.fail("chain %d: Compute at %v: %v", i, tau, err)
			return nil
		}
		return res
	}
	for _, k := range []int{0, len(out.pts) / 2, len(out.pts) - 1} {
		pt := out.pts[k]
		if res := at(pt.Period); res != nil && (res.Valid != pt.Valid || res.TotalCapacity() != pt.Total) {
			w.b.fail("chain %d: sweep point %v is (%v, %d), Compute gives (%v, %d)",
				i, pt.Period, pt.Valid, pt.Total, res.Valid, res.TotalCapacity())
		}
	}
	fine := out.st.fine
	for j, tau := range fine {
		if !tau.Equal(out.least.Period) {
			continue
		}
		if res := at(tau); res != nil && (!res.Valid || res.TotalCapacity() != out.least.Total) {
			w.b.fail("chain %d: minimal period %v disagrees with Compute", i, tau)
		}
		if j > 0 {
			if res := at(fine[j-1]); res != nil && res.Valid {
				w.b.fail("chain %d: %v is feasible below the minimal period %v", i, fine[j-1], tau)
			}
		}
	}
}

func (w *chainWorkload) verify(bool) error { return nil }
