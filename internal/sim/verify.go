package sim

import (
	"context"
	"fmt"
	"slices"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
	"vrdfcap/internal/vrdf"
)

// Workload supplies the per-firing transfer quanta of one buffer: Prod for
// the producing task's executions, Cons for the consuming task's. A nil
// sequence is allowed when the corresponding quanta set is constant.
type Workload struct {
	Prod quanta.Sequence
	Cons quanta.Sequence
}

// Workloads maps buffer names to their workloads.
type Workloads map[string]Workload

// UniformWorkloads draws every variable quanta set uniformly at random
// (deterministically from seed); constant sets use their single value.
func UniformWorkloads(tg *taskgraph.Graph, seed int64) Workloads {
	w := make(Workloads)
	for i, b := range tg.Buffers() {
		var wl Workload
		if !b.Prod.IsConstant() {
			wl.Prod = quanta.Uniform(b.Prod, seed+int64(i)*2)
		}
		if !b.Cons.IsConstant() {
			wl.Cons = quanta.Uniform(b.Cons, seed+int64(i)*2+1)
		}
		w[b.DefaultName()] = wl
	}
	return w
}

// Adversary names a deterministic workload pattern used for stress
// verification.
type Adversary int

const (
	// AdversaryMin transfers the minimum quantum in every firing (the
	// "n equals two in every execution" case of the motivating example).
	AdversaryMin Adversary = iota
	// AdversaryMax transfers the maximum quantum in every firing.
	AdversaryMax
	// AdversaryAlternate alternates minimum and maximum.
	AdversaryAlternate
)

// String names the adversary.
func (a Adversary) String() string {
	switch a {
	case AdversaryMin:
		return "min"
	case AdversaryMax:
		return "max"
	case AdversaryAlternate:
		return "alternate"
	default:
		return fmt.Sprintf("Adversary(%d)", int(a))
	}
}

// Adversaries lists all adversarial patterns.
var Adversaries = []Adversary{AdversaryMin, AdversaryMax, AdversaryAlternate}

// AdversarialWorkloads builds the named deterministic workload for every
// buffer with variable quanta.
func AdversarialWorkloads(tg *taskgraph.Graph, adv Adversary) Workloads {
	pick := func(set taskgraph.QuantaSet) quanta.Sequence {
		switch adv {
		case AdversaryMin:
			return quanta.MinOf(set)
		case AdversaryMax:
			return quanta.MaxOf(set)
		default:
			return quanta.AlternateMinMax(set)
		}
	}
	w := make(Workloads)
	for _, b := range tg.Buffers() {
		var wl Workload
		if !b.Prod.IsConstant() {
			wl.Prod = pick(b.Prod)
		}
		if !b.Cons.IsConstant() {
			wl.Cons = pick(b.Cons)
		}
		w[b.DefaultName()] = wl
	}
	return w
}

// TaskGraphConfig builds a simulation Config for a sized task graph: the
// VRDF construction of §3.3 with the buffer workloads wired to both edges of
// each pair (a task's production on the data edge and its space consumption
// are the same quantum, and symmetrically for the consumer).
//
// Every buffer must have a positive capacity; run the capacity analysis (or
// choose capacities) first.
func TaskGraphConfig(tg *taskgraph.Graph, w Workloads) (Config, *vrdf.Mapping, error) {
	return taskGraphConfig(tg, w, false, true)
}

// taskGraphConfig is TaskGraphConfig. With unsized set it accepts buffers
// of capacity 0, whose space edges then start empty, and with invariants
// clear it registers no buffer invariants.
func taskGraphConfig(tg *taskgraph.Graph, w Workloads, unsized, invariants bool) (Config, *vrdf.Mapping, error) {
	for _, b := range tg.Buffers() {
		if b.Capacity < 0 || b.Capacity == 0 && !unsized {
			return Config{}, nil, unsizedError(b.DefaultName(), b.Capacity)
		}
	}
	g, m, err := vrdf.FromTaskGraph(tg)
	if err != nil {
		return Config{}, nil, err
	}
	cfg := Config{
		Graph:  g,
		Quanta: make(map[string]EdgeQuanta, len(g.Edges())),
	}
	if invariants {
		cfg.Invariants = make([]TokenInvariant, 0, len(m.Pairs))
	}
	for _, p := range m.Pairs {
		wl := w[p.Buffer]
		cfg.Quanta[p.Data] = EdgeQuanta{Prod: wl.Prod, Cons: wl.Cons}
		cfg.Quanta[p.Space] = EdgeQuanta{Prod: wl.Cons, Cons: wl.Prod}
		if !invariants {
			continue
		}
		// Tokens on the data and space edges of one buffer can never
		// exceed its capacity (some containers may additionally be
		// held by in-flight firings). Registered for use with
		// Config.CheckInvariants.
		cfg.Invariants = append(cfg.Invariants, TokenInvariant{
			Name:  "buffer " + p.Buffer,
			Edges: []string{p.Data, p.Space},
			Max:   tg.BufferByName(p.Buffer).Capacity,
		})
	}
	return cfg, m, nil
}

// unsizedError is the error for simulating a buffer without a positive
// capacity.
func unsizedError(buffer string, capacity int64) error {
	return fmt.Errorf("sim: buffer %s has capacity %d; size the graph before simulating", buffer, capacity)
}

// Verification is the outcome of VerifyThroughput.
type Verification struct {
	// OK reports whether the strictly periodic schedule ran to the
	// requested horizon without underrun.
	OK bool
	// Reason explains a failure in one line.
	Reason string
	// Underrun carries the structured diagnostic of the failing phase
	// when the failure was a missed periodic start: which actor, which
	// firing, at what tick, and which edge lacked how many tokens. Nil
	// on success and for non-underrun failures.
	Underrun *UnderrunInfo
	// Deadlock carries the structured diagnostic when a phase
	// deadlocked: the tick and every blocked actor with the edge it
	// starved on. Nil on success and for non-deadlock failures.
	Deadlock *DeadlockInfo
	// OffsetTicks and Offset give the start offset of the last periodic
	// attempt: the first that passed, or else the last candidate, the
	// quiet start (see Verifier.Feasible). A quiet-start attempt that
	// MaxEvents cut short before the start was decided reports -1 tick.
	OffsetTicks int64
	Offset      ratio.Rat
	// SelfTimed and Periodic are the raw results of the two phases;
	// Periodic is the last periodic attempt and nil when the self-timed
	// phase already failed.
	SelfTimed *Result
	Periodic  *Result
	// Attempts counts the periodic-phase offsets tried.
	Attempts int
}

// VerifyOptions tunes VerifyThroughput.
type VerifyOptions struct {
	// Firings is the number of constrained-task firings to verify
	// (default 1000).
	Firings int64
	// Workloads supplies buffer quanta; buffers with variable quanta
	// and no workload entry are an error.
	Workloads Workloads
	// MaxEvents caps each phase (0 = engine default).
	MaxEvents int64
	// RecordTransfers is passed through to both phases.
	RecordTransfers []string
	// Offsets lists candidate periodic start offsets Verify tries before
	// the automatically derived ones — e.g. the analytic offset from
	// capacity.Anchored. Each must be non-negative and representable in
	// the run's time base. Feasible ignores them: no offset passes where
	// its quiet start fails.
	Offsets []ratio.Rat
	// Exec optionally supplies per-task execution-time models (values in
	// (0, ρ]); tasks without an entry take exactly ρ per firing. List
	// the values' denominators in ExtraTimes.
	Exec map[string]func(k int64) ratio.Rat
	// ExtraTimes extends the run's time base (needed for Exec values and
	// custom offsets with new denominators).
	ExtraTimes []ratio.Rat
	// LiteResult skips the per-actor/per-edge summary maps of the phase
	// Results (see Config.LiteResult); feasibility probes that only read
	// Verification.OK don't pay for them.
	LiteResult bool
	// AllowOverrun passes through to Config.AllowOverrun: Exec values
	// beyond ρ are simulated as late finishes instead of rejected —
	// fault injection for measuring how much overrun a sizing absorbs.
	AllowOverrun bool
	// Validate enables per-transfer quanta-set checking.
	Validate bool
	// Context, if non-nil, cancels or time-bounds Verify cooperatively
	// (see Config.Context); the typed errors satisfy budget.ErrCanceled
	// and budget.ErrBudgetExceeded. Feasible takes its context per call
	// instead.
	Context context.Context
	// Checkpoints enables warm-started probing on the phase machines:
	// each retains up to this many run checkpoints (Config.Checkpoints)
	// and a probe resumes a phase from the newest checkpoint the changed
	// capacities cannot have affected instead of replaying from tick 0.
	// Periodic-phase checkpoints are only valid under the offset they
	// were taken with. Every Feasible probe runs the quiet start, whose
	// checkpoints record the start tick the run decided, so its next
	// probe usually resumes; Verify's ascending attempts mostly replay
	// cold, and Verify never resumes from a checkpoint Feasible took,
	// which holds no start times. Results are bit-identical either way;
	// Effort counts how much re-simulation the resumed runs skipped.
	// 0 disables.
	Checkpoints int
	// Effort, if non-nil, counts the simulation work of every phase run
	// (Config.Effort of both phase machines).
	Effort *Effort
}

// Verifier is a compiled throughput verification, reusable across capacity
// assignments. A capacity search compiles one Verifier per workload, pools
// it between probes, and calls Feasible (or Verify, for the full
// diagnostics) with a fresh capacity vector per probe, which becomes one
// per-edge initial-token frame (§3.3: a buffer's capacity is its space
// edge's initial tokens) that the phase machines reset from and every
// buffer invariant's bound is written from.
//
// The periodic machine runs the strictly periodic phase: every Feasible
// probe, from the quiet start, and every Verify attempt, from the offset
// the attempt sets. Its checkpoints are keyed on that offset, so they
// serve the next run with the same one — which is what consecutive
// Feasible probes are. The self-timed machine serves only Verify and is
// compiled by its first call, so a Verifier that only answers Feasible
// compiles one machine.
//
// A Verifier is not safe for concurrent use.
type Verifier struct {
	c        taskgraph.Constraint
	periodic *Machine
	// selfTimed is Verify's self-timed phase, compiled from selfTimedCfg
	// on first use (nil until then).
	selfTimed    *Machine
	selfTimedCfg Config
	periodTicks  int64
	// fixedOffsets holds opts.Offsets converted to ticks, Verify's first
	// candidates.
	fixedOffsets []int64
	// buffers lists the buffers in the order the phase machines compile
	// their invariants (under Validate only), which load reads a probe's
	// capacities in.
	buffers []verifierBuffer
	frame   []int64 // the current probe's initial tokens, per edge
}

// verifierBuffer is one buffer of a Verifier: its name, its space edge's
// index, and whether it was compiled unsized, so that every probe must
// give its capacity.
type verifierBuffer struct {
	name    string
	space   int
	unsized bool
}

// CompileVerifier validates the constraint and builds the periodic phase of
// the throughput check once; Verify builds the self-timed phase on first
// use. Verify(caps) and Feasible(caps) can override buffer capacities per
// probe without recompiling. A buffer of capacity 0 is compiled unsized:
// every probe must give its capacity, and one that leaves it out is the
// error TaskGraphConfig returns for an unsized graph.
func CompileVerifier(tg *taskgraph.Graph, c taskgraph.Constraint, opts VerifyOptions) (*Verifier, error) {
	if err := c.Validate(tg); err != nil {
		return nil, err
	}
	firings := opts.Firings
	if firings <= 0 {
		firings = 1000
	}
	// Only Validate's machines check the buffer invariants.
	cfg, mapping, err := taskGraphConfig(tg, opts.Workloads, true, opts.Validate)
	if err != nil {
		return nil, err
	}
	cfg.Stop = Stop{Actor: c.Task, Firings: firings}
	cfg.Validate = opts.Validate
	cfg.CheckInvariants = opts.Validate
	cfg.MaxEvents = opts.MaxEvents
	cfg.RecordStarts = []string{c.Task}
	cfg.RecordTransfers = opts.RecordTransfers
	cfg.LiteResult = opts.LiteResult
	cfg.AllowOverrun = opts.AllowOverrun
	cfg.Context = opts.Context
	cfg.Checkpoints = opts.Checkpoints
	cfg.Effort = opts.Effort
	cfg.ExtraTimes = append([]ratio.Rat{c.Period}, opts.Offsets...)
	cfg.ExtraTimes = append(cfg.ExtraTimes, opts.ExtraTimes...)
	if len(opts.Exec) > 0 {
		cfg.Actors = make(map[string]ActorConfig, len(opts.Exec))
		for task, fn := range opts.Exec {
			if tg.Task(task) == nil {
				return nil, fmt.Errorf("sim: Exec model for unknown task %q", task)
			}
			cfg.Actors[task] = ActorConfig{Exec: fn}
		}
	}

	pcfg := cfg
	pcfg.Actors = make(map[string]ActorConfig, len(cfg.Actors)+1)
	for k, ac := range cfg.Actors {
		pcfg.Actors[k] = ac
	}
	// Every run sets the offset; compile with the placeholder 0, which
	// adds no time to the base, so the self-timed phase compiled from cfg
	// later shares it.
	constrained := ActorConfig{Mode: Periodic, Offset: ratio.MustNew(0, 1), Period: c.Period}
	if prev, ok := cfg.Actors[c.Task]; ok {
		constrained.Exec = prev.Exec
	}
	pcfg.Actors[c.Task] = constrained
	// TaskGraphConfig's graph comes from vrdf.FromTaskGraph, which
	// validated it.
	periodic, err := compile(pcfg)
	if err != nil {
		return nil, err
	}

	periodTicks, err := periodic.Base().Ticks(c.Period)
	if err != nil {
		return nil, fmt.Errorf("sim: period not representable: %w", err)
	}
	vf := &Verifier{
		c:            c,
		periodic:     periodic,
		selfTimedCfg: cfg,
		periodTicks:  periodTicks,
		buffers:      make([]verifierBuffer, len(mapping.Pairs)),
		frame:        make([]int64, len(periodic.edgeList)),
	}
	for k, p := range mapping.Pairs {
		// vrdf.FromTaskGraph adds each buffer's data edge, then its space
		// edge, and the machine keeps the graph's edge order.
		space := periodic.edgeList[2*k+1]
		if space.name != p.Space {
			return nil, fmt.Errorf("sim: internal error: buffer %s has space edge %s, not %s", p.Buffer, space.name, p.Space)
		}
		vf.buffers[k] = verifierBuffer{name: p.Buffer, space: 2*k + 1, unsized: space.initial == 0}
	}
	for _, o := range opts.Offsets {
		t, err := periodic.Base().Ticks(o)
		if err != nil {
			return nil, fmt.Errorf("sim: candidate offset %v: %w (list its denominator in the graph's times)", o, err)
		}
		if t < 0 {
			return nil, fmt.Errorf("sim: candidate offset %v is negative", o)
		}
		vf.fixedOffsets = append(vf.fixedOffsets, t)
	}
	return vf, nil
}

// selfTimedPhase returns Verify's self-timed machine, compiling it on first
// use. Its configuration lists the periodic machine's graph and rational
// times, so the two share one edge order and one time base.
func (vf *Verifier) selfTimedPhase() (*Machine, error) {
	if vf.selfTimed == nil {
		m, err := compile(vf.selfTimedCfg)
		if err != nil {
			return nil, err
		}
		if m.Base() != vf.periodic.Base() {
			return nil, fmt.Errorf("sim: internal error: phase time bases differ (%v vs %v)", m.Base(), vf.periodic.Base())
		}
		vf.selfTimed = m
	}
	return vf.selfTimed, nil
}

// slackPeriods lists Verify's automatically derived periodic offsets, in
// periods of slack beyond the smallest offset dominating the self-timed
// schedule.
var slackPeriods = [...]int64{0, 1, 10, 100}

// load validates caps and writes the next runs' initial-token frame: the
// compiled tokens, with each buffer in caps at its capacity there. It
// reads caps by looking up its own buffers in order, so an entry naming
// none of them shows only in the count of entries found. Every buffer
// invariant's bound is then written from the frame. An invalid entry, or
// an unsized buffer left out, returns an error before any machine state
// changes.
//
//vrdf:noalloc
func (vf *Verifier) load(caps map[string]int64) error {
	for i, es := range vf.periodic.edgeList {
		vf.frame[i] = es.initial
	}
	found := 0
	for _, b := range vf.buffers {
		c, ok := caps[b.name]
		switch {
		case !ok && b.unsized:
			return unsizedError(b.name, 0) //vrdf:allocok(the error of an invalid probe)
		case !ok:
			continue
		case c <= 0:
			return fmt.Errorf("sim: Verify: buffer %s capacity %d must be positive", b.name, c) //vrdf:allocok(the error of an invalid probe)
		}
		vf.frame[b.space] = c
		found++
	}
	if found < len(caps) {
		return vf.unknownBuffer(caps)
	}
	for k := range vf.periodic.invariants {
		bound := vf.frame[vf.buffers[k].space]
		vf.periodic.invariants[k].max = bound
		if vf.selfTimed != nil {
			vf.selfTimed.invariants[k].max = bound
		}
	}
	return nil
}

// unknownBuffer returns the error for an entry of caps that names none of
// the verifier's buffers.
func (vf *Verifier) unknownBuffer(caps map[string]int64) error {
	for name := range caps {
		if !slices.ContainsFunc(vf.buffers, func(b verifierBuffer) bool { return b.name == name }) {
			return fmt.Errorf("sim: Verify: unknown buffer %q", name)
		}
	}
	return nil
}

// runPeriodic runs the periodic phase under ctx from the loaded frame with
// the constrained task — the machine's stop actor — first starting at
// offset ticks, or at the quiet start for quietStart, and returns how the
// run ended (see Machine.verdict). The offset is set before the reset,
// which resumes only from checkpoints taken under the same offset. With
// starts set the run records start times.
func (vf *Verifier) runPeriodic(ctx context.Context, offset int64, starts bool) (Outcome, error) {
	vf.periodic.stop.offset = offset
	vf.periodic.resetWarm(vf.frame, starts)
	return vf.periodic.verdict(ctx)
}

// Verify runs both phases for one capacity assignment: buffers named in
// caps take that capacity (their space edges' initial tokens, and their
// invariants' bound under Validate), all others the capacity they were
// compiled with, whatever an earlier probe asked for. An unknown buffer, a
// non-positive capacity or a buffer compiled unsized left out is an error
// that changes nothing. Verify(nil) checks the graph as compiled. Results
// are bit-identical to VerifyThroughput on an equivalently sized graph.
//
// Verify tries the candidate offsets in ascending order and reports the
// first that passes, or the last failure, with full diagnostics: the
// fixed offsets, then the smallest offset dominating the self-timed
// schedule (MaxLateness over its recorded starts) with 0, 1, 10 and 100
// periods of slack, and last Feasible's quiet start, so that Verify(caps).OK
// equals Feasible's verdict. Both phases record the constrained task's
// start times into their Results. Callers that only need the verdict
// should call Feasible, which reaches it with one periodic run and records
// no start times.
func (vf *Verifier) Verify(caps map[string]int64) (*Verification, error) {
	st, err := vf.selfTimedPhase()
	if err != nil {
		return nil, err
	}
	if err := vf.load(caps); err != nil {
		return nil, err
	}
	ctx := vf.periodic.cfg.Context
	st.resetWarm(vf.frame, true)
	selfTimed, err := st.run(ctx)
	if err != nil {
		return nil, err
	}
	v := &Verification{SelfTimed: selfTimed}
	if selfTimed.Outcome != Completed {
		v.Reason = fmt.Sprintf("self-timed phase %s", selfTimed.Outcome)
		if selfTimed.Deadlock != nil {
			v.Reason += fmt.Sprintf(" at tick %d", selfTimed.Deadlock.Tick)
		}
		v.Underrun = selfTimed.Underrun
		v.Deadlock = selfTimed.Deadlock
		return v, nil
	}

	base := MaxLateness(selfTimed.Starts[vf.c.Task], vf.periodTicks)

	// The throughput guarantee is existential in the offset: a periodic
	// schedule with *some* offset must exist. Try caller-supplied
	// offsets (e.g. the analytic anchoring) first, then the smallest
	// offset that dominates the self-timed schedule, then grow the
	// slack, and last the quiet start, which passes exactly when some
	// offset does.
	offsetTicks := append([]int64(nil), vf.fixedOffsets...)
	for _, slack := range slackPeriods {
		offsetTicks = append(offsetTicks, base+slack*vf.periodTicks)
	}
	offsetTicks = append(offsetTicks, quietStart)
	//vrdf:unbudgeted(at most len fixedOffsets plus five attempts; each Run enforces the machine budget)
	for _, ot := range offsetTicks {
		v.Attempts++
		out, err := vf.runPeriodic(ctx, ot, true)
		if err != nil {
			return nil, err
		}
		periodic := vf.periodic.result(out)
		v.OffsetTicks = vf.periodic.stop.offsetT
		v.Offset = vf.periodic.Base().Rat(v.OffsetTicks)
		v.Periodic = periodic
		// The structured diagnostics track the last attempt, like Reason.
		v.Underrun = periodic.Underrun
		v.Deadlock = periodic.Deadlock
		if periodic.Outcome == Completed {
			v.OK = true
			return v, nil
		}
	}
	// Every attempt failed. Reason explains the last one, so only that
	// one is formatted.
	if v.Underrun != nil {
		v.Reason = v.Underrun.String()
	} else {
		v.Reason = fmt.Sprintf("periodic phase %s", v.Periodic.Outcome)
	}
	return v, nil
}

// Feasible reports the verdict of Verify(caps).OK with one periodic run,
// whose constrained task starts at the quiet start q: the first tick at
// which, with that task not yet started, every other task is blocked and
// no event is pending. This one run answers the existential question
// "does the periodic phase pass at some offset" exactly:
//
//   - From q on nothing happens until the constrained task starts, so every
//     offset o ≥ q gives q's run, shifted in time by o − q.
//   - A periodic phase that passes at offset o also passes at every o+d:
//     the passing run shifted by d is a schedule for offset o+d in which
//     every task starts d later, and since VRDF graphs are monotone in
//     their start times (Definition 1) the self-timed tasks of the actual
//     run at o+d start no later than in that shifted run, so every
//     periodic start is still enabled. A pass below q implies one at q.
//
// On a source-constrained chain (§4.4) nothing can fire before the source
// does, so q = 0. The run decides q itself, as an event its checkpoints
// capture, so a warm-started probe resumes past q only where a cold one
// reaches the same q. Feasible runs no self-timed phase, ignores
// VerifyOptions.Offsets and records no start times: a probe costs the
// events it simulates, not the firings it covers. Before q those grow with
// the total capacity, since the other tasks run until the buffers block
// them.
//
// The run is under ctx (nil: no cancellation) in place of
// VerifyOptions.Context, so one pooled Verifier serves probes of searches
// with different budgets and keeps none of their contexts. A run cut
// short by VerifyOptions.MaxEvents says nothing about the capacities:
// Feasible then returns an error satisfying
// errors.Is(err, budget.ErrBudgetExceeded) instead of a verdict, as it
// does when ctx's deadline passes.
func (vf *Verifier) Feasible(ctx context.Context, caps map[string]int64) (bool, error) {
	if err := vf.load(caps); err != nil {
		return false, err
	}
	out, err := vf.runPeriodic(ctx, quietStart, false)
	if err != nil {
		return false, err
	}
	if out == LimitExceeded {
		return false, budget.Exhausted(fmt.Errorf("sim: periodic phase hit the event cap after %d events, before a verdict", vf.periodic.events))
	}
	return out == Completed, nil
}

// VerifyThroughput checks by simulation that the (sized) task graph can
// satisfy the throughput constraint under the given workload — the
// experiment the paper runs with its dataflow simulator in §5. It is the
// one-shot form of CompileVerifier + Verify; callers probing many capacity
// assignments of one graph should compile once instead.
//
// Phase 1 runs self-timed and records the constrained task's start times
// s_k. Phase 2 forces the constrained task to the strictly periodic
// schedule O + k·τ with O = max_k (s_k − k·τ), the smallest offset that
// dominates the self-timed schedule, and reports an underrun if any firing
// is not enabled at its scheduled start; it retries with more slack and
// last from the quiet start (see Verifier.Feasible). By monotonicity
// (Definition 1) a sufficient buffer sizing passes this check for every
// admissible workload.
func VerifyThroughput(tg *taskgraph.Graph, c taskgraph.Constraint, opts VerifyOptions) (*Verification, error) {
	vf, err := CompileVerifier(tg, c, opts)
	if err != nil {
		return nil, err
	}
	return vf.Verify(nil)
}

// MaxLateness returns max_k (starts[k] − k·periodTicks): the smallest offset
// O such that the periodic schedule O + k·period dominates the observed
// start times, and Verify's first derived candidate offset. Returns 0 for
// an empty slice.
func MaxLateness(starts []int64, periodTicks int64) int64 {
	var max int64
	for k, s := range starts {
		l := s - int64(k)*periodTicks
		if k == 0 || l > max {
			max = l
		}
	}
	return max
}

// AveragePeriodTicks returns the mean distance between consecutive starts,
// in ticks, as a rational. Needs at least two starts.
func AveragePeriodTicks(starts []int64) (ratio.Rat, error) {
	if len(starts) < 2 {
		return ratio.Rat{}, fmt.Errorf("sim: need at least two starts, got %d", len(starts))
	}
	span := starts[len(starts)-1] - starts[0]
	return ratio.MustNew(span, int64(len(starts)-1)), nil
}

// JitterTicks returns the peak-to-peak jitter of the inter-start distances
// in ticks: max gap minus min gap. Zero for strictly periodic starts.
// Needs at least two starts.
func JitterTicks(starts []int64) (int64, error) {
	if len(starts) < 2 {
		return 0, fmt.Errorf("sim: need at least two starts, got %d", len(starts))
	}
	minGap, maxGap := int64(1<<62), int64(0)
	for i := 1; i < len(starts); i++ {
		g := starts[i] - starts[i-1]
		if g < minGap {
			minGap = g
		}
		if g > maxGap {
			maxGap = g
		}
	}
	return maxGap - minGap, nil
}
