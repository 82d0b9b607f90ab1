// Package capacity implements the buffer-capacity computation of Wiggers et
// al. (DATE 2008), §4: sufficient buffer capacities for throughput
// constrained chains of tasks with data-dependent transfer quanta.
//
// The computation decomposes a chain into producer–consumer pairs (§4.3).
// For each pair it derives the rate μ of the linear token-transfer bounds
// from the minimal start distance φ of the consuming (sink-constrained,
// §4.2) or producing (source-constrained, §4.4) task, evaluates the bound
// distances of Equations (1)–(3) and converts them into a sufficient number
// of initial tokens on the space edge with Equation (4). That number is the
// buffer capacity in containers.
//
// Three policies are offered:
//
//   - PolicyEquation4 applies the paper's Equation (4) to every buffer.
//     On the MP3 application it yields (6015, 3263, 883); the paper reports
//     (6015, 3263, 882), an off-by-one on the constant-rate third buffer
//     only (see EXPERIMENTS.md for the exact-tie reading that explains it).
//   - PolicyBaseline applies the constant-rate technique the paper compares
//     against ([10, 14]); it requires every buffer to have constant quanta
//     and reproduces the published comparison row (5888, 3072, 882) exactly.
//   - PolicyHybrid is a refinement this library adds: per buffer, the
//     tighter of Equation (4) and — when both quanta sets are singletons,
//     where the gcd-granularity argument of [14] applies — the baseline.
package capacity

import (
	"fmt"

	"vrdfcap/internal/bounds"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// Policy selects the capacity formula applied per buffer.
type Policy int

const (
	// PolicyEquation4 is the paper's contribution: Equation (4) on every
	// buffer, valid for data-dependent quanta.
	//
	// Known off-by-one versus the published table (DESIGN.md §2,
	// EXPERIMENTS.md): on the MP3 chain's fully constant SRC→DAC buffer a
	// faithful evaluation of Equation (4) yields d3 = 883 where the paper
	// reports 882. 882 is that edge's exact minimum (internal/sdf,
	// TestExactMinimaOfConstantMP3Edges: 881 misses the rate); the extra
	// token is Equation (4)'s +1 tie term, which covers a produce and a
	// consume at the same instant and is not needed on a fully constant
	// edge. d1 and d2 reproduce exactly; PolicyHybrid recovers 882.
	PolicyEquation4 Policy = iota
	// PolicyBaseline is the constant-rate comparator of [10, 14]:
	// capacity = (ρx+ρy)/μ + p + c − 2·gcd(p, c). It is only applicable
	// when both quanta sets of the buffer are singletons.
	PolicyBaseline
	// PolicyHybrid uses the tighter of Equation (4) and the baseline on
	// constant-rate buffers, and Equation (4) elsewhere.
	PolicyHybrid
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyEquation4:
		return "equation4"
	case PolicyBaseline:
		return "baseline"
	case PolicyHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "equation4", "eq4", "vrdf":
		return PolicyEquation4, nil
	case "baseline", "sdf":
		return PolicyBaseline, nil
	case "hybrid", "paper":
		return PolicyHybrid, nil
	}
	return 0, fmt.Errorf("capacity: unknown policy %q", s)
}

// Direction tells which end of the chain carries the throughput constraint.
type Direction int

const (
	// SinkConstrained means the task without output buffers must execute
	// strictly periodically (§4.2, §4.3): rates propagate upstream, the
	// producer of every buffer needs a minimum production rate matching
	// the consumer's maximum consumption rate.
	SinkConstrained Direction = iota
	// SourceConstrained means the task without input buffers must
	// execute strictly periodically (§4.4): rates propagate downstream,
	// production is maximised and consumption minimised.
	SourceConstrained
)

// String returns the direction name.
func (d Direction) String() string {
	if d == SourceConstrained {
		return "source-constrained"
	}
	return "sink-constrained"
}

// TaskCheck records the schedule-validity condition for one task: its
// worst-case response time must not exceed its minimal start distance φ.
// For the producer of a sink-constrained buffer this is the paper's
// ρ(va) ≤ π̌(e_ab)·τ/γ̂(e_ab); for the throughput-determining task it is
// ρ(vτ) ≤ τ.
type TaskCheck struct {
	Task string
	// Rho is the task's worst-case response time.
	Rho ratio.Rat
	// Phi is the minimal required difference between subsequent starts.
	Phi ratio.Rat
	// OK reports Rho ≤ Phi.
	OK bool
}

// BufferResult is the per-buffer outcome of the computation.
type BufferResult struct {
	// Buffer, Producer and Consumer identify the buffer.
	Buffer   string
	Producer string
	Consumer string
	// Mu is the rate of the transfer bounds on this buffer, in time per
	// container.
	Mu ratio.Rat
	// RhoProd and RhoCons are the response times of the producing and
	// consuming tasks.
	RhoProd, RhoCons ratio.Rat
	// ProdMax and ConsMax are the maximum transfer quanta π̂ and γ̂ of
	// the buffer.
	ProdMax, ConsMax int64
	// Distances holds Equations (1)–(3) for the pair.
	Distances bounds.PairDistances
	// CapacityEq4 is Equation (4)'s sufficient capacity.
	CapacityEq4 int64
	// ConstantRates reports whether both quanta sets are singletons, in
	// which case the baseline formula applies.
	ConstantRates bool
	// CapacityBaseline is the constant-rate capacity; valid only when
	// ConstantRates (otherwise zero).
	CapacityBaseline int64
	// Capacity is the capacity selected by the policy in force.
	Capacity int64
	// ContainerBytes echoes the buffer's container size (0 when
	// unspecified); MemoryBytes() = Capacity · ContainerBytes.
	ContainerBytes int64
}

// MemoryBytes returns the memory footprint of the selected capacity, or 0
// when the container size is unspecified.
func (br *BufferResult) MemoryBytes() int64 { return br.Capacity * br.ContainerBytes }

// Result is the outcome of Compute.
type Result struct {
	// Constraint echoes the throughput constraint analysed.
	Constraint taskgraph.Constraint
	// Direction tells whether the constraint sat on the sink or source.
	Direction Direction
	// Policy echoes the policy in force.
	Policy Policy
	// Phi maps every task to its minimal start distance. For the
	// constrained task φ = τ; it decreases (or stays) along the
	// propagation direction only if quanta demand it.
	Phi map[string]ratio.Rat
	// Checks holds the per-task schedule-validity conditions in chain
	// order (source to sink).
	Checks []TaskCheck
	// Buffers holds per-buffer results in chain order.
	Buffers []BufferResult
	// Valid reports whether every schedule check passed, i.e. whether
	// the computed capacities come with the paper's guarantee.
	Valid bool
	// Diagnostics collects human-readable explanations of failed checks.
	Diagnostics []string
}

// TotalCapacity returns the sum of the selected capacities, a common
// minimisation objective when comparing policies.
func (r *Result) TotalCapacity() int64 {
	var sum int64
	for _, b := range r.Buffers {
		sum += b.Capacity
	}
	return sum
}

// TotalMemoryBytes returns the summed memory footprint over the buffers
// whose container size is specified.
func (r *Result) TotalMemoryBytes() int64 {
	var sum int64
	for i := range r.Buffers {
		sum += r.Buffers[i].MemoryBytes()
	}
	return sum
}

// BufferByName returns the result for the named buffer, or nil.
func (r *Result) BufferByName(name string) *BufferResult {
	for i := range r.Buffers {
		if r.Buffers[i].Buffer == name {
			return &r.Buffers[i]
		}
	}
	return nil
}

// Compute derives sufficient buffer capacities for the chain graph g under
// throughput constraint c using policy p.
//
// The graph must be a valid chain and the constrained task must be its sink
// or its source. Compute never mutates g; use Sized to obtain a copy with
// the capacities filled in. Compute is the one-shot form of
// CompileAnalysis followed by At, and checks what c.Validate would in the
// same order while deriving the chain once; callers probing many periods
// of the same graph should compile once instead.
func Compute(g *taskgraph.Graph, c taskgraph.Constraint, p Policy) (*Result, error) {
	if err := taskgraph.CheckPeriod(c.Period); err != nil {
		return nil, err
	}
	a, err := CompileAnalysis(g, c.Task, p)
	if err != nil {
		return nil, err
	}
	return a.At(c.Period)
}

// baselineCapacity is the constant-rate comparator of [10, 14]:
//
//	capacity = (ρx + ρy)/μ + p + c − 2·gcd(p, c)
//
// with the response-time term rounded up to a multiple of gcd(p, c) for
// sufficiency when it is not already one. With constant quanta, tokens
// effectively move in multiples of g = gcd(p, c), which tightens the
// variable-rate correction (p−1) + (c−1) + 1 of Equation (4) to
// (p−g) + (c−g). This reproduces the paper's published baseline numbers
// (5888, 3072, 882) exactly. It fails when a term is not representable in
// int64.
func baselineCapacity(mu, rhoProd, rhoCons ratio.Rat, p, c int64) (int64, error) {
	g := ratio.GCD(p, c)
	rho, err := rhoProd.AddChecked(rhoCons)
	if err != nil {
		return 0, err
	}
	resp, err := rho.DivChecked(mu) // containers "in flight" due to response times
	if err != nil {
		return 0, err
	}
	units, err := resp.DivChecked(ratio.FromInt(g)) // round up to whole gcd units
	if err != nil {
		return 0, err
	}
	// units·g + (p−g) + (c−g), each step checked.
	total, err := ratio.FromInt(units.Ceil()).MulChecked(ratio.FromInt(g))
	if err != nil {
		return 0, err
	}
	if total, err = total.AddChecked(ratio.FromInt(p - g)); err != nil {
		return 0, err
	}
	if total, err = total.AddChecked(ratio.FromInt(c - g)); err != nil {
		return 0, err
	}
	return total.Num(), nil
}

// Sized returns a deep copy of g whose buffer capacities are set to the
// capacities selected in res.
func Sized(g *taskgraph.Graph, res *Result) (*taskgraph.Graph, error) {
	out := g.Clone()
	for _, br := range res.Buffers {
		b := out.BufferByName(br.Buffer)
		if b == nil {
			return nil, fmt.Errorf("capacity: result buffer %q not in graph", br.Buffer)
		}
		b.Capacity = br.Capacity
	}
	return out, nil
}

// WithConstantMaxRates returns a copy of g in which every quanta set is
// collapsed to the singleton holding its maximum. The paper uses this graph
// to obtain a lower bound on the required capacities with the traditional
// technique ("by assuming that n is constant and equals 960").
func WithConstantMaxRates(g *taskgraph.Graph) *taskgraph.Graph {
	out := g.Clone()
	for _, b := range out.Buffers() {
		b.Prod = taskgraph.MustQuanta(b.Prod.Max())
		b.Cons = taskgraph.MustQuanta(b.Cons.Max())
	}
	return out
}

// WithConstantMinRates returns a copy of g in which every quanta set is
// collapsed to the singleton holding its minimum (zeros are preserved only
// when the set is not reduced to {0}, in which case the minimum positive
// member is used). Useful for adversarial what-if analyses like the
// motivating example's "n equals two in every execution".
func WithConstantMinRates(g *taskgraph.Graph) *taskgraph.Graph {
	out := g.Clone()
	for _, b := range out.Buffers() {
		b.Prod = collapseMin(b.Prod)
		b.Cons = collapseMin(b.Cons)
	}
	return out
}

func collapseMin(q taskgraph.QuantaSet) taskgraph.QuantaSet {
	m := q.Min()
	if m == 0 {
		vs := q.Values()
		// The set is not {0}, so a positive member exists.
		for _, v := range vs {
			if v > 0 {
				m = v
				break
			}
		}
	}
	return taskgraph.MustQuanta(m)
}
