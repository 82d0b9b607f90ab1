// Package vrdfcap computes buffer capacities for throughput-constrained
// task graphs with data-dependent inter-task communication, implementing
//
//	M. H. Wiggers, M. J. G. Bekooij, G. J. M. Smit.
//	"Computation of Buffer Capacities for Throughput Constrained and
//	Data Dependent Inter-Task Communication." DATE 2008.
//
// Streaming applications are modelled as chains of tasks communicating over
// circular FIFO buffers. A task starts an execution only when its input
// buffer holds enough full containers and its output buffer enough empty
// containers for the whole execution — and the amount of data transferred
// may change every execution (e.g. a variable-length decoder). Given a
// throughput constraint on the chain's sink or source, this package
// computes buffer capacities guaranteed to satisfy it, using the
// Variable-Rate Dataflow (VRDF) analysis of the paper.
//
// # Quick start
//
//	g, _ := vrdfcap.Chain(
//		[]vrdfcap.Stage{
//			{Name: "producer", WCRT: vrdfcap.Rat(1, 1)},
//			{Name: "consumer", WCRT: vrdfcap.Rat(1, 1)},
//		},
//		[]vrdfcap.Link{{
//			Prod: vrdfcap.Quanta(3),    // always produces 3 containers
//			Cons: vrdfcap.Quanta(2, 3), // consumes 2 or 3, data dependent
//		}},
//	)
//	res, _ := vrdfcap.Analyze(g, vrdfcap.Constraint{
//		Task: "consumer", Period: vrdfcap.Rat(3, 1),
//	}, vrdfcap.PolicyEquation4)
//	fmt.Println(res.Buffers[0].Capacity) // 7
//
// Verify the sizing by simulation with Verify, explore empirical minima
// with the internal/minimize package, and reproduce the paper's MP3
// experiment with the benchmarks in this package or cmd/mp3bench.
package vrdfcap

import (
	"io"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
	"vrdfcap/internal/vrdf"
)

// Core model types, re-exported from the internal packages.
type (
	// Graph is a task graph T = (W, B, ξ, λ, κ, ζ): tasks communicating
	// over circular buffers.
	Graph = taskgraph.Graph
	// Task is a node of the task graph with a worst-case response time.
	Task = taskgraph.Task
	// Buffer is a circular FIFO buffer between two tasks.
	Buffer = taskgraph.Buffer
	// QuantaSet is a finite set of possible transfer quanta.
	QuantaSet = taskgraph.QuantaSet
	// Stage and Link feed the Chain builder.
	Stage = taskgraph.Stage
	Link  = taskgraph.Link
	// Constraint is a strict-periodicity throughput requirement on the
	// chain's sink or source.
	Constraint = taskgraph.Constraint
	// RatNum is an exact rational number; all times and rates are exact.
	RatNum = ratio.Rat

	// Policy selects the capacity formula (Equation 4, the constant-rate
	// baseline, or the hybrid refinement).
	Policy = capacity.Policy
	// Result is a capacity-analysis outcome: per-buffer capacities,
	// minimal start distances φ, and schedule-validity checks.
	Result = capacity.Result
	// BufferResult is the per-buffer slice of a Result.
	BufferResult = capacity.BufferResult

	// Sequence yields per-firing transfer quanta for simulation.
	Sequence = quanta.Sequence
	// Workload and Workloads bind sequences to buffers.
	Workload  = sim.Workload
	Workloads = sim.Workloads
	// Verification is the outcome of a simulation-based throughput
	// check.
	Verification = sim.Verification
	// VerifyOptions tunes Verify.
	VerifyOptions = sim.VerifyOptions
	// UnderrunInfo is the structured diagnostic of a missed periodic
	// start: actor, firing, tick, and the starved edge (empty when the
	// previous firing was still running).
	UnderrunInfo = sim.UnderrunInfo
	// DeadlockInfo is the structured diagnostic of a deadlocked
	// simulation: the tick and every blocked actor.
	DeadlockInfo = sim.DeadlockInfo
	// BlockedActor is one blocked actor of a DeadlockInfo.
	BlockedActor = sim.BlockedActor
)

// Typed cancellation and budget errors, re-exported from internal/budget.
// Any search, sweep or verification given a Context reports its
// cancellation or its expired deadline with an error satisfying errors.Is
// against these.
var (
	// ErrCanceled reports a cooperative cancellation via a Context; such
	// errors also satisfy errors.Is(err, context.Canceled).
	ErrCanceled = budget.ErrCanceled
	// ErrBudgetExceeded reports an exhausted wall-clock budget: a Context
	// whose deadline passed (the error text ends in "wall-clock budget
	// exceeded: context deadline exceeded"), or a simulation cut short by
	// its MaxEvents cap.
	ErrBudgetExceeded = budget.ErrBudgetExceeded
)

// Capacity policies.
const (
	// PolicyEquation4 is the paper's algorithm (Equation 4), valid for
	// data-dependent quanta.
	PolicyEquation4 = capacity.PolicyEquation4
	// PolicyBaseline is the constant-rate comparator of the paper's
	// related work; it rejects graphs with variable quanta.
	PolicyBaseline = capacity.PolicyBaseline
	// PolicyHybrid refines Equation 4 with the constant-rate bound on
	// buffers whose quanta are constant.
	PolicyHybrid = capacity.PolicyHybrid
)

// NewGraph returns an empty task graph; add tasks and buffers with its
// AddTask and AddBuffer methods, or use Chain / Pair.
func NewGraph() *Graph { return taskgraph.New() }

// Chain builds a chain task graph from stages and the links between them.
func Chain(stages []Stage, links []Link) (*Graph, error) {
	return taskgraph.BuildChain(stages, links)
}

// Pair builds a two-task producer–consumer graph (the paper's Figure 1).
func Pair(prodName string, prodWCRT RatNum, consName string, consWCRT RatNum, prod, cons QuantaSet) (*Graph, error) {
	return taskgraph.Pair(prodName, prodWCRT, consName, consWCRT, prod, cons)
}

// Rat returns the exact rational num/den; it panics on a zero denominator.
func Rat(num, den int64) RatNum { return ratio.MustNew(num, den) }

// ParseRat parses "3", "1/44100" or "51.2" into an exact rational.
func ParseRat(s string) (RatNum, error) { return ratio.Parse(s) }

// Quanta returns the quanta set holding the given values; it panics on an
// invalid set (empty, negative members, or {0}).
func Quanta(values ...int64) QuantaSet { return taskgraph.MustQuanta(values...) }

// NewQuanta is the error-returning form of Quanta.
func NewQuanta(values ...int64) (QuantaSet, error) { return taskgraph.NewQuantaSet(values...) }

// QuantaRange returns the set {lo, …, hi}.
func QuantaRange(lo, hi int64) (QuantaSet, error) { return taskgraph.Range(lo, hi) }

// Analyze computes sufficient buffer capacities for the chain g under the
// throughput constraint c with the given policy. It never mutates g.
func Analyze(g *Graph, c Constraint, p Policy) (*Result, error) {
	return capacity.Compute(g, c, p)
}

// Size runs Analyze and returns a sized copy of the graph alongside the
// analysis result.
func Size(g *Graph, c Constraint, p Policy) (*Graph, *Result, error) {
	res, err := capacity.Compute(g, c, p)
	if err != nil {
		return nil, nil, err
	}
	sized, err := capacity.Sized(g, res)
	if err != nil {
		return nil, nil, err
	}
	return sized, res, nil
}

// Verify checks by discrete-event simulation that a sized graph sustains
// the throughput constraint under the given workload: a self-timed phase
// followed by a strictly periodic phase of the constrained task.
func Verify(sized *Graph, c Constraint, opts VerifyOptions) (*Verification, error) {
	return sim.VerifyThroughput(sized, c, opts)
}

// Workload generators for Verify.

// ConstantSeq always yields v.
func ConstantSeq(v int64) Sequence { return quanta.Constant(v) }

// CycleSeq cycles through the given values.
func CycleSeq(values ...int64) Sequence { return quanta.Cycle(values...) }

// UniformSeq draws uniformly from the set, deterministically from seed.
func UniformSeq(set QuantaSet, seed int64) Sequence { return quanta.Uniform(set, seed) }

// UniformWorkloads builds a workload drawing every variable quanta set
// uniformly at random (deterministic in seed).
func UniformWorkloads(g *Graph, seed int64) Workloads { return sim.UniformWorkloads(g, seed) }

// EncodeJSON serialises a graph and optional constraint to JSON.
func EncodeJSON(g *Graph, c *Constraint) ([]byte, error) { return graphio.Encode(g, c) }

// DecodeJSON parses a JSON document into a graph and optional constraint.
func DecodeJSON(data []byte) (*Graph, *Constraint, error) { return graphio.Decode(data) }

// DecodeGraph parses a graph document in either supported format, sniffing
// JSON (leading '{') versus the line-oriented text format.
func DecodeGraph(data []byte) (*Graph, *Constraint, error) { return graphio.DecodeAny(data) }

// EncodeText renders a graph and optional constraint in the line-oriented
// text format (see internal/graphio for the grammar): tasks, then buffers,
// then the constraint, one per line. The returned slice is the caller's
// own copy.
func EncodeText(g *Graph, c *Constraint) []byte { return graphio.EncodeText(g, c) }

// WriteDOT renders the task graph in Graphviz DOT form.
func WriteDOT(w io.Writer, g *Graph) error { return graphio.WriteDOT(w, g) }

// WriteVRDFDOT renders the VRDF analysis graph of g in Graphviz DOT form.
func WriteVRDFDOT(w io.Writer, g *Graph) error {
	vg, _, err := vrdf.FromTaskGraph(g)
	if err != nil {
		return err
	}
	return graphio.WriteVRDFDOT(w, vg)
}
