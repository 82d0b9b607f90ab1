package minimize

import (
	"context"
	"fmt"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// problemCheckpoints is the warm-start checkpoint count of every
// Problem's probe machines. Warm and cold probes give the same verdicts,
// so it sets only how fast a probe is, never its answer.
const problemCheckpoints = 8

// Fingerprint is the verdict-store key of a throughput minimisation: it
// pins everything that co-determines a probe's verdict — the sized graph
// (upper bounds included), the constraint, the probe horizon, the
// workload and the event cap. workloadKey names the workload, for example
// "uniform:seed=1". Every surface that minimises the same problem gets
// the same key, so CLI runs and the service share one frontier.
func Fingerprint(sized *taskgraph.Graph, c taskgraph.Constraint, firings int64, workloadKey string, maxEvents int64) string {
	return probecache.GraphKey(sized,
		"minimize-throughput",
		"task="+c.Task, "period="+c.Period.String(),
		fmt.Sprintf("firings=%d", firings),
		"workload="+workloadKey,
		fmt.Sprintf("max-events=%d", maxEvents),
	)
}

// Problem is one throughput-constrained minimisation, set up once and
// searchable any number of times: the buffer order and analytic upper
// bounds of the sized graph, the α̂/α̌ pruning bounds, the verdict-store
// frontier and the compiled throughput check, whose verifiers are reused
// across probes and across searches. The Problem holds no context: each
// Search hands its own to the probes it runs.
type Problem struct {
	// Fingerprint keys the problem's frontier in the verdict store.
	Fingerprint string
	// Buffers lists the searched buffers in chain order, source to sink,
	// whatever order the graph was built in: the frontier the store keeps
	// for Fingerprint, which does not depend on that order, has its
	// vectors in this order.
	Buffers []string
	// Upper holds the analytic capacity of each buffer.
	Upper map[string]int64

	check    probeFunc
	bounds   *Bounds
	frontier *probecache.Frontier
}

// NewProblem sets up the minimisation of the sized graph (the analysis
// result res applied to g) under constraint c, probing `firings` firings
// of the constrained task against one workload named by workloadKey.
// Verdicts come from and go to store's frontier for the problem's
// Fingerprint; a nil store disables verdict caching entirely. opts
// supplies MaxEvents and Stats for the probes; the problem sets the cache,
// the bounds and the checkpoint count itself, and ignores opts.Context:
// the context of each Search bounds its probes.
func NewProblem(g, sized *taskgraph.Graph, res *capacity.Result, c taskgraph.Constraint, firings int64, workloads sim.Workloads, workloadKey string, store *probecache.Store, opts Options) (*Problem, error) {
	if firings <= 0 {
		return nil, fmt.Errorf("minimize: probe horizon must be positive, got %d firings", firings)
	}
	_, buffers, err := sized.Chain()
	if err != nil {
		return nil, err
	}
	p := &Problem{
		Fingerprint: Fingerprint(sized, c, firings, workloadKey, opts.MaxEvents),
		Buffers:     make([]string, len(buffers)),
		Upper:       make(map[string]int64, len(buffers)),
	}
	for i, b := range buffers {
		p.Buffers[i] = b.Name
		p.Upper[b.Name] = b.Capacity
	}
	if store != nil {
		if p.frontier, err = store.Frontier(p.Fingerprint, p.Buffers); err != nil {
			return nil, err
		}
	}
	// The analytic result prunes probes the simulator need not run: its
	// capacities are sufficient for every admissible workload (so also
	// for this one), and the liveness thresholds are necessary at any
	// horizon.
	sufficient, necessary, err := capacity.SearchBounds(res, g)
	if err != nil {
		return nil, err
	}
	p.bounds = &Bounds{Sufficient: sufficient, Necessary: necessary}
	opts.Checkpoints = problemCheckpoints
	p.check = throughputCheck(g, c, firings, []sim.Workloads{workloads}, opts)
	return p, nil
}

// Search finds the minimal capacities, pruning with the problem's bounds
// and its frontier. ctx cancels or time-bounds the search: it is checked
// before every probe and by the probe's running simulation, so a search
// stops within a few thousand simulated events of ctx ending. Concurrent
// searches of one Problem are safe; they share the frontier and the
// verifier pool.
func (p *Problem) Search(ctx context.Context) (*Result, error) {
	return search(ctx, p.Buffers, p.Upper, p.check, Options{
		Cache:   p.frontier,
		NoCache: p.frontier == nil,
		Bounds:  p.bounds,
	})
}
