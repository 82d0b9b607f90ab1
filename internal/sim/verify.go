package sim

import (
	"context"
	"fmt"
	"time"

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
	for _, b := range tg.Buffers() {
		if b.Capacity <= 0 {
			return Config{}, nil, fmt.Errorf("sim: buffer %s has capacity %d; size the graph before simulating", b.DefaultName(), b.Capacity)
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
	for _, p := range m.Pairs {
		wl := w[p.Buffer]
		cfg.Quanta[p.Data] = EdgeQuanta{Prod: wl.Prod, Cons: wl.Cons}
		cfg.Quanta[p.Space] = EdgeQuanta{Prod: wl.Cons, Cons: wl.Prod}
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
	// OffsetTicks and Offset give the start offset used for the
	// periodic phase: the smallest offset that dominates the observed
	// self-timed schedule.
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
	// Offsets lists candidate periodic start offsets tried before the
	// automatically derived ones — e.g. the analytic offset from
	// capacity.Anchored. Each must be non-negative and representable in
	// the run's time base.
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
	// Context, if non-nil, cancels the verification cooperatively (see
	// Config.Context); the typed error satisfies budget.ErrCanceled.
	Context context.Context
	// Deadline, if non-zero, bounds the verification in wall-clock time
	// (see Config.Deadline); the typed error satisfies
	// budget.ErrBudgetExceeded.
	Deadline time.Time
	// Checkpoints enables warm-started probing on both phase machines:
	// each retains up to this many run checkpoints (Config.Checkpoints)
	// and a probe resumes a phase from the newest checkpoint the changed
	// capacities cannot have affected instead of replaying from tick 0.
	// Periodic-phase checkpoints are only valid under the offset they
	// were taken with. Feasible runs one periodic offset per probe, so its
	// next probe usually resumes; Verify's ascending attempts mostly
	// replay cold. Results are bit-identical either way; LastEffort
	// reports how much re-simulation each call actually skipped. 0
	// disables.
	Checkpoints int
}

// Verifier is a compiled throughput verification: both simulation phases —
// self-timed and strictly periodic — built once and reusable across
// capacity assignments. A capacity search compiles one Verifier per
// workload, pools it between probes, and calls Feasible (or Verify, for
// the full diagnostics) with a fresh capacity vector per probe; each probe only resets token counts and
// counters instead of re-validating and rebuilding the graph.
//
// A Verifier holds exactly two machines, one per phase. Every periodic run
// repoints the one periodic machine's offset; its checkpoints are keyed on
// that offset, so they serve the next run at the same offset — which is
// what consecutive Feasible probes are, since each runs at the largest
// candidate offset.
//
// A Verifier is not safe for concurrent use.
type Verifier struct {
	c           taskgraph.Constraint
	firings     int64
	mapping     *vrdf.Mapping
	tg          *taskgraph.Graph
	selfTimed   *Machine
	periodic    *Machine
	periodTicks int64
	// fixedOffsets holds opts.Offsets converted to ticks, tried before
	// the offsets derived from the self-timed schedule.
	fixedOffsets []int64
	// Effort counters of the most recent Verify or Feasible (see
	// LastEffort).
	lastSim     int64
	lastResumed int64
	lastWarm    int
	lastCold    int
}

// LastEffort reports the simulation effort of the most recent Verify or
// Feasible call: events actually executed across all phase runs, events
// skipped by resuming phases from checkpoints, and how many phase resets
// were warm (resumed) versus cold (replayed from tick 0). All zeros before
// the first call; without VerifyOptions.Checkpoints every reset is cold.
func (vf *Verifier) LastEffort() (simulated, resumedEvents int64, warm, cold int) {
	return vf.lastSim, vf.lastResumed, vf.lastWarm, vf.lastCold
}

// noteRun accumulates one phase run's effort into the call's counters.
func (vf *Verifier) noteRun(totalEvents, resumed int64) {
	vf.lastSim += totalEvents - resumed
	vf.lastResumed += resumed
	if resumed > 0 {
		vf.lastWarm++
	} else {
		vf.lastCold++
	}
}

// CompileVerifier validates the constraint and builds both phases of the
// throughput check once. The graph must be fully sized; Verify(caps) and
// Feasible(caps) can override buffer capacities per probe without
// recompiling.
func CompileVerifier(tg *taskgraph.Graph, c taskgraph.Constraint, opts VerifyOptions) (*Verifier, error) {
	if err := c.Validate(tg); err != nil {
		return nil, err
	}
	firings := opts.Firings
	if firings <= 0 {
		firings = 1000
	}
	cfg, mapping, err := TaskGraphConfig(tg, opts.Workloads)
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
	cfg.Deadline = opts.Deadline
	cfg.Checkpoints = opts.Checkpoints
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

	selfTimed, err := Compile(cfg)
	if err != nil {
		return nil, err
	}

	pcfg := cfg
	pcfg.Actors = make(map[string]ActorConfig, len(cfg.Actors)+1)
	for k, ac := range cfg.Actors {
		pcfg.Actors[k] = ac
	}
	// The offset is repointed per run via SetPeriodicOffsetTicks; compile
	// with the placeholder 0.
	constrained := ActorConfig{Mode: Periodic, Offset: ratio.MustNew(0, 1), Period: c.Period}
	if prev, ok := cfg.Actors[c.Task]; ok {
		constrained.Exec = prev.Exec
	}
	pcfg.Actors[c.Task] = constrained
	periodic, err := Compile(pcfg)
	if err != nil {
		return nil, err
	}
	// Both configs list the same rational times (the placeholder offset
	// is integral), so the phases share one time base by construction.
	if selfTimed.Base() != periodic.Base() {
		return nil, fmt.Errorf("sim: internal error: phase time bases differ (%v vs %v)", selfTimed.Base(), periodic.Base())
	}

	periodTicks, err := selfTimed.Base().Ticks(c.Period)
	if err != nil {
		return nil, fmt.Errorf("sim: period not representable: %w", err)
	}
	vf := &Verifier{
		c:           c,
		firings:     firings,
		mapping:     mapping,
		tg:          tg,
		selfTimed:   selfTimed,
		periodic:    periodic,
		periodTicks: periodTicks,
	}
	for _, o := range opts.Offsets {
		t, err := selfTimed.Base().Ticks(o)
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

// slackPeriods lists the automatically derived periodic offsets, in periods
// of slack beyond the smallest offset dominating the self-timed schedule.
var slackPeriods = [...]int64{0, 1, 10, 100}

// overrides translates a capacity assignment into the space-edge
// initial-token overrides of the next runs and repoints the buffer
// invariants' bounds. Buffers without an entry keep their compiled
// capacity.
func (vf *Verifier) overrides(caps map[string]int64) (map[string]int64, error) {
	if len(caps) == 0 {
		return nil, nil
	}
	ov := make(map[string]int64, len(caps))
	for name, c := range caps {
		b := vf.tg.BufferByName(name)
		if b == nil {
			return nil, fmt.Errorf("sim: Verify: unknown buffer %q", name)
		}
		if c <= 0 {
			return nil, fmt.Errorf("sim: Verify: buffer %s capacity %d must be positive", name, c)
		}
		pair, ok := vf.mapping.Pair(b.DefaultName())
		if !ok {
			return nil, fmt.Errorf("sim: Verify: buffer %q has no edge pair", name)
		}
		ov[pair.Space] = c
		inv := "buffer " + pair.Buffer
		vf.selfTimed.setInvariantMax(inv, c)
		vf.periodic.setInvariantMax(inv, c)
	}
	return ov, nil
}

// runSelfTimed resets the call's effort counters and runs the self-timed
// phase under the token overrides ov. ResetWarm resumes the phase from a
// retained checkpoint when the capacity change provably cannot affect the
// replayed prefix; with checkpointing disabled it is a plain cold reset.
func (vf *Verifier) runSelfTimed(ov map[string]int64) (*Result, error) {
	vf.lastSim, vf.lastResumed, vf.lastWarm, vf.lastCold = 0, 0, 0, 0
	resumed, err := vf.selfTimed.ResetWarm(ov)
	if err != nil {
		return nil, err
	}
	res, err := vf.selfTimed.Run()
	if err != nil {
		return nil, err
	}
	vf.noteRun(res.Events, resumed)
	return res, nil
}

// runPeriodic runs the periodic phase with the constrained task's first
// start at offset ticks. ResetWarm must not revert the offset override, so
// the offset is set first and the machine reset after; the checkpoints it
// resumes from are only those taken under the same offset.
func (vf *Verifier) runPeriodic(ov map[string]int64, offset int64) (*Result, error) {
	//vrdf:reuseok(the override is deliberately committed to the resumed run by ResetWarm below; every periodic run re-points it)
	if err := vf.periodic.SetPeriodicOffsetTicks(vf.c.Task, offset); err != nil {
		return nil, err
	}
	resumed, err := vf.periodic.ResetWarm(ov)
	if err != nil {
		return nil, err
	}
	res, err := vf.periodic.Run()
	if err != nil {
		return nil, err
	}
	vf.noteRun(res.Events, resumed)
	return res, nil
}

// Verify runs both phases for one capacity assignment: buffers named in
// caps take that capacity (a space-edge initial-token override on the
// compiled machines), all others keep the capacity they were compiled
// with. Verify(nil) checks the graph as compiled. Results are bit-identical
// to VerifyThroughput on an equivalently sized graph.
//
// Verify tries the candidate offsets in ascending order and reports the
// first that passes, or the last failure, with full diagnostics. Callers
// that only need the verdict should call Feasible, which reaches the same
// verdict with one periodic run.
func (vf *Verifier) Verify(caps map[string]int64) (*Verification, error) {
	ov, err := vf.overrides(caps)
	if err != nil {
		return nil, err
	}
	selfTimed, err := vf.runSelfTimed(ov)
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

	starts := selfTimed.Starts[vf.c.Task]
	base := MaxLateness(starts, vf.periodTicks)

	// The throughput guarantee is existential in the offset: a periodic
	// schedule with *some* offset must exist. Try caller-supplied
	// offsets (e.g. the analytic anchoring) first, then the smallest
	// offset that dominates the self-timed schedule, then grow the
	// slack; a sizing that underruns even with generous slack is
	// insufficient.
	offsetTicks := append([]int64(nil), vf.fixedOffsets...)
	for _, slack := range slackPeriods {
		offsetTicks = append(offsetTicks, base+slack*vf.periodTicks)
	}
	//vrdf:unbudgeted(at most len fixedOffsets plus four attempts; each Run enforces the machine budget)
	for _, ot := range offsetTicks {
		v.Attempts++
		v.OffsetTicks = ot
		v.Offset = vf.selfTimed.Base().Rat(ot)
		periodic, err := vf.runPeriodic(ov, ot)
		if err != nil {
			return nil, err
		}
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

// Feasible reports the verdict of Verify(caps).OK with a single periodic
// run. A periodic phase that passes at offset o also passes at every
// o+d: the passing run shifted by d is a schedule for offset o+d in which
// every task starts d later, and since VRDF graphs are monotone in their
// start times (Definition 1) the self-timed tasks of the actual run at o+d
// start no later than in that shifted run, so every periodic start is
// still enabled. The largest of Verify's candidate offsets — the fixed
// offsets and the one with 100 periods of slack — therefore passes exactly
// when some candidate does, and Feasible runs only that one.
//
// A phase cut short by VerifyOptions.MaxEvents says nothing about the
// capacities: Feasible then returns an error satisfying
// errors.Is(err, budget.ErrBudgetExceeded) instead of a verdict.
func (vf *Verifier) Feasible(caps map[string]int64) (bool, error) {
	ov, err := vf.overrides(caps)
	if err != nil {
		return false, err
	}
	selfTimed, err := vf.runSelfTimed(ov)
	if err != nil {
		return false, err
	}
	if selfTimed.Outcome != Completed {
		return false, eventCapError("self-timed", selfTimed)
	}
	offset := MaxLateness(selfTimed.Starts[vf.c.Task], vf.periodTicks) + slackPeriods[len(slackPeriods)-1]*vf.periodTicks
	for _, ot := range vf.fixedOffsets {
		offset = max(offset, ot)
	}
	periodic, err := vf.runPeriodic(ov, offset)
	if err != nil {
		return false, err
	}
	if periodic.Outcome != Completed {
		return false, eventCapError("periodic", periodic)
	}
	return true, nil
}

// eventCapError returns the typed error of a phase run that MaxEvents cut
// short, and nil for any outcome that is a verdict.
func eventCapError(phase string, res *Result) error {
	if res.Outcome != LimitExceeded {
		return nil
	}
	return budget.Exhausted(fmt.Errorf("sim: %s phase hit the event cap after %d events, before a verdict", phase, res.Events))
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
// is not enabled at its scheduled start. By monotonicity (Definition 1) a
// sufficient buffer sizing passes this check for every admissible workload.
func VerifyThroughput(tg *taskgraph.Graph, c taskgraph.Constraint, opts VerifyOptions) (*Verification, error) {
	vf, err := CompileVerifier(tg, c, opts)
	if err != nil {
		return nil, err
	}
	return vf.Verify(nil)
}

// MaxLateness returns max_k (starts[k] − k·periodTicks): the smallest offset
// O such that the periodic schedule O + k·period dominates the observed
// start times. Returns 0 for an empty slice.
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
