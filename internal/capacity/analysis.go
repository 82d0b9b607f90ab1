package capacity

import (
	"fmt"

	"vrdfcap/internal/bounds"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// Analysis is a chain analysis compiled once and evaluated at many
// periods. Compiling validates the chain structure, fixes the propagation
// direction and resolves every per-buffer task reference, quantum extreme,
// name and period-independent diagnostic, so that At pays only for the
// period-dependent arithmetic of §4.3/§4.4 and Equations (1)–(4) — the
// same compile-once/probe-many split sim.Compile gives the simulator. An
// Analysis never mutates the graph it was compiled from; mutating that
// graph after compiling invalidates the Analysis.
//
// At is a pure function of the period, so one Analysis may be shared by
// any number of goroutines.
type Analysis struct {
	task      string
	policy    Policy
	direction Direction
	tasks     []*taskgraph.Task // chain order, source to sink
	buffers   []chainBuffer     // chain order; buffers[i] links tasks[i] to tasks[i+1]
	// closed answers verdict without At. It is nil where it was not
	// compiled (Compute, a minimal-period query) or where no period can
	// take it.
	closed *closedForm
}

// chainBuffer is one buffer of a compiled chain with everything At needs
// that does not depend on the period.
type chainBuffer struct {
	b          *taskgraph.Buffer
	name       string          // b.DefaultName()
	prod, cons *taskgraph.Task // producing and consuming task
	// prodMin, prodMax, consMin and consMax are π̌, π̂, γ̌ and γ̂.
	prodMin, prodMax, consMin, consMax int64
	constant                           bool // both quanta sets are singletons
	// zeroQuantum is the diagnostic raised at every period when the
	// minimum quantum that scales the propagated φ is 0 (production
	// under a sink constraint, consumption under a source constraint);
	// "" otherwise.
	zeroQuantum string
}

// CompileAnalysis validates g as a chain with the constrained task at an
// endpoint and returns the reusable Analysis for probing periods under
// policy p. It also compiles the closed form the period sweeps decide
// their points by (see closedForm).
func CompileAnalysis(g *taskgraph.Graph, task string, p Policy) (*Analysis, error) {
	a, err := compileChain(g, task, p)
	if err != nil {
		return nil, err
	}
	a.closed = compileClosedForm(a)
	return a, nil
}

// compileChain is CompileAnalysis without the closed form, for callers
// that evaluate a single period.
func compileChain(g *taskgraph.Graph, task string, p Policy) (*Analysis, error) {
	tasks, buffers, err := g.ChainFor(task)
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		task:    task,
		policy:  p,
		tasks:   tasks,
		buffers: make([]chainBuffer, len(buffers)),
	}
	if task == tasks[len(tasks)-1].Name {
		a.direction = SinkConstrained
	} else {
		a.direction = SourceConstrained
	}
	for i, b := range buffers {
		cb := chainBuffer{
			b:        b,
			name:     b.DefaultName(),
			prod:     tasks[i],
			cons:     tasks[i+1],
			prodMin:  b.Prod.Min(),
			prodMax:  b.Prod.Max(),
			consMin:  b.Cons.Min(),
			consMax:  b.Cons.Max(),
			constant: b.Prod.IsConstant() && b.Cons.IsConstant(),
		}
		switch {
		case a.direction == SinkConstrained && cb.prodMin == 0:
			cb.zeroQuantum = "buffer " + cb.name + ": production quantum 0 is not allowed under a sink constraint (the producer's required rate would be unbounded); only consumption quanta may contain 0"
		case a.direction == SourceConstrained && cb.consMin == 0:
			cb.zeroQuantum = "buffer " + cb.name + ": consumption quantum 0 is not allowed under a source constraint (the consumer's required rate would be unbounded); only production quanta may contain 0"
		}
		a.buffers[i] = cb
	}
	return a, nil
}

// Task returns the constrained task the analysis was compiled for.
func (a *Analysis) Task() string { return a.task }

// Policy returns the capacity policy in force.
func (a *Analysis) Policy() Policy { return a.policy }

// Direction returns the propagation direction fixed at compile time.
func (a *Analysis) Direction() Direction { return a.direction }

// At evaluates the compiled analysis at period tau. The Result is
// identical to Compute on the same graph, constraint and policy.
func (a *Analysis) At(tau ratio.Rat) (*Result, error) {
	if err := taskgraph.CheckPeriod(tau); err != nil {
		return nil, err
	}
	res := &Result{
		Constraint: taskgraph.Constraint{Task: a.task, Period: tau},
		Direction:  a.direction,
		Policy:     a.policy,
		Phi:        make(map[string]ratio.Rat, len(a.tasks)),
		Checks:     make([]TaskCheck, len(a.tasks)),
		Buffers:    make([]BufferResult, len(a.buffers)),
		Valid:      true,
	}
	if err := a.propagatePhi(res); err != nil {
		return nil, err
	}
	for i, w := range a.tasks {
		res.Phi[w.Name] = res.Checks[i].Phi
	}
	a.runTaskChecks(res)
	for i := range a.buffers {
		if err := a.computeBuffer(res, i); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// propagatePhi derives every task's φ per §4.3 (sink-constrained) or §4.4
// (source-constrained) into res.Checks[i].Phi, and every buffer's bound
// rate μ into res.Buffers[i].Mu. A zero quantum clears res.Valid and adds
// its diagnostic. It fails when a rate or a start distance is not
// representable in int64 rationals.
func (a *Analysis) propagatePhi(res *Result) error {
	checks, bufs := res.Checks, res.Buffers
	switch a.direction {
	case SinkConstrained:
		checks[len(checks)-1].Phi = res.Constraint.Period
		// Walk upstream: φ(vx) = (φ(vy)/γ̂(e_xy)) · π̌(e_xy).
		for i := len(a.buffers) - 1; i >= 0; i-- {
			b := &a.buffers[i]
			mu, err := checks[i+1].Phi.DivChecked(ratio.FromInt(b.consMax))
			if err != nil {
				return fmt.Errorf("capacity: buffer %s: rate μ: %w", b.name, err)
			}
			bufs[i].Mu = mu
			if b.zeroQuantum != "" {
				res.Valid = false
				res.Diagnostics = append(res.Diagnostics, b.zeroQuantum)
				// φ would be 0; keep a positive placeholder equal to μ so
				// downstream arithmetic stays well-defined while the
				// result is already marked invalid.
				checks[i].Phi = mu
				continue
			}
			if checks[i].Phi, err = mu.MulChecked(ratio.FromInt(b.prodMin)); err != nil {
				return fmt.Errorf("capacity: task %s: minimal start distance φ: %w", b.prod.Name, err)
			}
		}
	case SourceConstrained:
		checks[0].Phi = res.Constraint.Period
		// Walk downstream: φ(vy) = (φ(vx)/π̂(e_xy)) · γ̌(e_xy).
		for i := range a.buffers {
			b := &a.buffers[i]
			mu, err := checks[i].Phi.DivChecked(ratio.FromInt(b.prodMax))
			if err != nil {
				return fmt.Errorf("capacity: buffer %s: rate μ: %w", b.name, err)
			}
			bufs[i].Mu = mu
			if b.zeroQuantum != "" {
				res.Valid = false
				res.Diagnostics = append(res.Diagnostics, b.zeroQuantum)
				checks[i+1].Phi = mu
				continue
			}
			if checks[i+1].Phi, err = mu.MulChecked(ratio.FromInt(b.consMin)); err != nil {
				return fmt.Errorf("capacity: task %s: minimal start distance φ: %w", b.cons.Name, err)
			}
		}
	}
	return nil
}

// runTaskChecks evaluates ρ(w) ≤ φ(w) for every task.
func (a *Analysis) runTaskChecks(res *Result) {
	for i, w := range a.tasks {
		c := &res.Checks[i]
		c.Task, c.Rho, c.OK = w.Name, w.WCRT, w.WCRT.LessEq(c.Phi)
		if !c.OK {
			res.Valid = false
			res.Diagnostics = append(res.Diagnostics, "task "+w.Name+": worst-case response time "+w.WCRT.String()+
				" exceeds the minimal start distance "+c.Phi.String()+
				" required by the throughput constraint; no valid schedule exists")
		}
	}
}

// computeBuffer evaluates Equations (1)–(4) and the baseline for buffer i
// into res.Buffers[i], whose μ propagatePhi has set.
func (a *Analysis) computeBuffer(res *Result, i int) error {
	b, br := &a.buffers[i], &res.Buffers[i]
	mu := br.Mu
	dist, err := bounds.Distances(mu, b.prod.WCRT, b.cons.WCRT, b.prodMax, b.consMax)
	if err != nil {
		return fmt.Errorf("capacity: buffer %s: %w", b.name, err)
	}
	eq4, err := dist.SufficientTokens()
	if err != nil {
		return fmt.Errorf("capacity: buffer %s: equation (4): %w", b.name, err)
	}
	*br = BufferResult{
		Buffer:         b.name,
		Producer:       b.b.Producer,
		Consumer:       b.b.Consumer,
		Mu:             mu,
		RhoProd:        b.prod.WCRT,
		RhoCons:        b.cons.WCRT,
		ProdMax:        b.prodMax,
		ConsMax:        b.consMax,
		Distances:      dist,
		CapacityEq4:    eq4,
		ConstantRates:  b.constant,
		ContainerBytes: b.b.ContainerBytes,
	}
	if br.ConstantRates {
		if br.CapacityBaseline, err = baselineCapacity(mu, b.prod.WCRT, b.cons.WCRT, b.prodMax, b.consMax); err != nil {
			return fmt.Errorf("capacity: buffer %s: baseline: %w", b.name, err)
		}
	}
	switch a.policy {
	case PolicyEquation4:
		br.Capacity = br.CapacityEq4
	case PolicyBaseline:
		if !br.ConstantRates {
			return fmt.Errorf(
				"capacity: buffer %s has variable quanta (ξ=%v, λ=%v); the baseline technique requires constant rates — this is precisely the limitation the paper lifts",
				b.name, b.b.Prod, b.b.Cons)
		}
		br.Capacity = br.CapacityBaseline
	case PolicyHybrid:
		br.Capacity = br.CapacityEq4
		if br.ConstantRates && br.CapacityBaseline < br.Capacity {
			br.Capacity = br.CapacityBaseline
		}
	default:
		return fmt.Errorf("capacity: unknown policy %v", a.policy)
	}
	return nil
}
