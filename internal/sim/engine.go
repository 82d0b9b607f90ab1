// Package sim is a discrete-event simulator for Variable-Rate Dataflow
// graphs and the task graphs they model.
//
// It plays the role of the "dataflow simulator" the paper uses in §5 to
// verify that the computed buffer capacities are sufficient to satisfy the
// throughput constraint. Actors follow the VRDF semantics of §3.2: a firing
// is enabled when every input edge holds sufficient tokens for that firing's
// consumption quanta, tokens are consumed atomically at the start, produced
// atomically at the finish (the actor's response time later), and firings of
// one actor never overlap.
//
// Each actor runs in one of two modes. ASAP (self-timed) actors start every
// firing as soon as it is enabled. Periodic actors attempt to start firing k
// exactly at offset + k·period and the simulation fails with an underrun if
// the firing is not enabled at that instant — this is how a throughput
// constraint is checked against concrete buffer capacities.
//
// Time is integer ticks derived from an exact rational TimeBase, so
// simulated schedules are bit-reproducible and free of rounding artefacts.
//
// The engine is built for tight feasibility-search loops: Compile builds all
// index-based state of a run once, Reset rewinds it in O(graph) without
// reallocating, and the event loop itself — a typed binary heap over a
// preallocated []event plus a dirty-actor bitset — performs no heap
// allocation per event. Ports with a constant quantum read it as a plain
// integer; only data-dependent ports call their quanta.Sequence. Back-to-back
// firings of one constant-rate actor that no other event interleaves — the
// §5 DAC draining its buffer one sample at a time — are applied as one
// run-length step in O(1), with every count, statistic and checkpoint
// position the per-event loop would produce. A Verifier's feasibility probe
// is one periodic run that records no start times and starts the
// constrained task when the rest of the graph goes quiet, a tick the run
// decides itself, so a probe costs the events it simulates, not the firings
// it covers. Run is the convenience wrapper for one-shot use.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/vrdf"
)

// Mode selects how an actor's firings are scheduled.
type Mode int

const (
	// ASAP starts each firing as soon as it is enabled (self-timed).
	ASAP Mode = iota
	// Periodic starts firing k exactly at offset + k·period; an
	// un-enabled firing at its scheduled start is an underrun.
	Periodic
)

// ActorConfig configures one actor's scheduling and execution times.
type ActorConfig struct {
	// Mode is ASAP by default.
	Mode Mode
	// Offset is the start time of firing 0 in Periodic mode.
	Offset ratio.Rat
	// Period is the strict period in Periodic mode; must be positive.
	Period ratio.Rat
	// Exec, if non-nil, gives the execution time of firing k; values
	// must be positive and at most the actor's response time ρ (the
	// response time is the worst case) unless Config.AllowOverrun is
	// set. If nil, every firing takes exactly ρ. Every returned value
	// must be representable in the run's time base; list the
	// denominators via Config.ExtraTimes.
	Exec func(k int64) ratio.Rat
	// StartShift, if non-nil, delays the start of firing k by the given
	// non-negative amount beyond its enabling (ASAP mode only). Used by
	// the monotonicity and linearity property tests, which compare
	// shifted schedules.
	StartShift func(k int64) ratio.Rat
}

// EdgeQuanta supplies the per-firing transfer quanta of one edge.
type EdgeQuanta struct {
	// Prod yields the production quantum of the source actor's k-th
	// firing. If nil, the edge's production quanta set must be a
	// singleton and its value is used.
	Prod quanta.Sequence
	// Cons yields the consumption quantum of the destination actor's
	// k-th firing. If nil, the consumption quanta set must be constant.
	Cons quanta.Sequence
}

// Stop tells the engine when a run is complete.
type Stop struct {
	// Actor names the actor whose progress ends the run.
	Actor string
	// Firings is the number of completed firings of Actor after which
	// the run stops. Must be positive.
	Firings int64
}

// Config configures a simulation run.
type Config struct {
	// Graph is the VRDF graph to execute. Initial tokens are taken from
	// the graph's edges.
	Graph *vrdf.Graph
	// Actors holds per-actor overrides; actors without an entry run
	// ASAP with constant execution time ρ.
	Actors map[string]ActorConfig
	// Quanta holds per-edge quanta sequences, keyed by edge name. Edges
	// without an entry must have constant quanta sets on both sides.
	Quanta map[string]EdgeQuanta
	// Stop is the run's completion condition; required.
	Stop Stop
	// MaxEvents bounds the total number of processed events as a runaway
	// guard; 0 means the default of 50 million.
	MaxEvents int64
	// Context, if non-nil, cancels or time-bounds each Run
	// cooperatively: the engine checks it every budgetCheckInterval
	// events and aborts with an error satisfying errors.Is(err,
	// budget.ErrCanceled) once it is cancelled, or
	// errors.Is(err, budget.ErrBudgetExceeded) once its deadline passed.
	Context context.Context
	// RecordStarts lists actors whose firing start times are collected.
	RecordStarts []string
	// RecordTransfers lists edges whose token transfers are collected
	// (for bound-conservativeness checks and Figure-3 style plots).
	RecordTransfers []string
	// RecordOccupancy lists edges whose token-count timeline is
	// collected: one sample per change, starting with the initial
	// tokens at tick 0.
	RecordOccupancy []string
	// ExtraTimes lists additional rational times that must be exactly
	// representable in the run's time base (e.g. a period used later to
	// post-process recorded start times).
	ExtraTimes []ratio.Rat
	// Invariants lists token-sum invariants checked after every event
	// when CheckInvariants is set: for each entry, the tokens on the
	// named edges must never exceed Max (buffer pairs: data + space
	// tokens never exceed the capacity) and no edge may go negative.
	Invariants []TokenInvariant
	// Validate wraps all sequences so that a value outside the edge's
	// declared quanta set aborts the run with a panic. Costs one set
	// lookup per transfer.
	Validate bool
	// AllowOverrun permits Exec values beyond the actor's worst-case
	// response time ρ — a fault-injection mode. The analyses of the
	// paper assume every firing finishes within ρ, so the engine
	// rejects larger values by default; with AllowOverrun a stalled
	// firing simply finishes late, and a periodic actor whose previous
	// firing is still running at its scheduled start underruns with a
	// structured diagnostic.
	AllowOverrun bool
	// CheckInvariants enables the per-event invariant checks; a
	// violation aborts the run with an error. Costs one pass over the
	// invariants per event.
	CheckInvariants bool
	// LiteResult skips the per-actor and per-edge summary maps of the
	// Result (Fired, Finished, BusyTicks, Edges). Feasibility probes
	// that only read Outcome pay for none of the bookkeeping they never
	// look at; explicitly requested recordings (Starts, Transfers,
	// Occupancy) are still collected.
	LiteResult bool
	// Checkpoints is the number of run-state checkpoints the machine
	// retains for warm-starting (0 disables). With N > 0 slots, Run
	// checkpoints its state every checkpointEvery events into a reusable
	// arena — thinning logarithmically once the slots fill, so the
	// retained checkpoints always span the whole run — and Reset resumes
	// the next run from the newest checkpoint the changed initial tokens
	// cannot have affected, instead of replaying from tick 0. The resumed
	// run is bit-identical to a cold one. Checkpointing is silently
	// disabled under Validate, CheckInvariants or StartShift (a warm start
	// skips re-executing the prefix, so per-event prefix checks and
	// enabling-time-dependent shifts could diverge from a cold run).
	Checkpoints int
	// Effort, if non-nil, counts the simulation work of every run of
	// the machine, including runs that MaxEvents or Context stop.
	Effort *Effort
}

// TokenInvariant bounds the token sum of a set of edges.
type TokenInvariant struct {
	// Name identifies the invariant in error messages.
	Name string
	// Edges lists the edge names whose token counts are summed.
	Edges []string
	// Max is the bound the sum must never exceed.
	Max int64
}

// Outcome classifies how a run ended.
type Outcome int

const (
	// Completed: the stop condition was reached.
	Completed Outcome = iota
	// Deadlocked: no actor could make progress before the stop
	// condition was reached.
	Deadlocked
	// Underrun: a periodic actor was not enabled at a scheduled start.
	Underrun
	// LimitExceeded: MaxEvents was hit.
	LimitExceeded
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Completed:
		return "completed"
	case Deadlocked:
		return "deadlocked"
	case Underrun:
		return "underrun"
	case LimitExceeded:
		return "limit-exceeded"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// UnderrunInfo describes a failed periodic start.
type UnderrunInfo struct {
	Actor  string
	Firing int64
	// Tick is the scheduled start time.
	Tick int64
	// Edge is the input edge lacking tokens ("" when the failure is an
	// unfinished previous firing).
	Edge string
	// Have and Need are the token counts on Edge at the failure.
	Have, Need int64
}

func (u *UnderrunInfo) String() string {
	if u.Edge == "" {
		return fmt.Sprintf("actor %s firing %d: previous firing still running at scheduled start tick %d", u.Actor, u.Firing, u.Tick)
	}
	return fmt.Sprintf("actor %s firing %d at tick %d: edge %s has %d tokens, needs %d", u.Actor, u.Firing, u.Tick, u.Edge, u.Have, u.Need)
}

// DeadlockInfo describes a deadlock: which actors were blocked on what.
type DeadlockInfo struct {
	Tick    int64
	Blocked []BlockedActor
}

// BlockedActor names one blocked actor and the first input edge that lacked
// tokens for its next firing.
type BlockedActor struct {
	Actor      string
	Firing     int64
	Edge       string
	Have, Need int64
}

// TransferRec is one recorded atomic token transfer on an edge: cumulative
// token indices [From, To] (1-based) moved at Tick. Produce distinguishes
// production from consumption.
type TransferRec struct {
	From, To int64
	Tick     int64
	Produce  bool
}

// OccupancySample is one point of an edge's token-count timeline: the
// count holds from Tick until the next sample's tick.
type OccupancySample struct {
	Tick   int64
	Tokens int64
}

// EdgeStats summarises one edge over a run.
type EdgeStats struct {
	// Produced and Consumed are cumulative token counts.
	Produced, Consumed int64
	// Peak and Min are the extreme token counts observed (including the
	// initial tokens).
	Peak, Min int64
}

// Result is the outcome of a run.
type Result struct {
	Outcome  Outcome
	Base     TimeBase
	EndTick  int64
	Events   int64
	Fired    map[string]int64
	Finished map[string]int64
	// BusyTicks accumulates each actor's execution time in ticks;
	// BusyTicks[a]/EndTick is the actor's utilisation of its resource.
	BusyTicks map[string]int64
	// Starts holds tick start times per recorded actor.
	Starts map[string][]int64
	// Transfers holds recorded transfers per recorded edge in time
	// order.
	Transfers map[string][]TransferRec
	// Occupancy holds recorded token-count timelines per recorded edge.
	Occupancy map[string][]OccupancySample
	// Edges holds per-edge statistics for every edge.
	Edges map[string]EdgeStats
	// Underrun is set when Outcome == Underrun.
	Underrun *UnderrunInfo
	// Deadlock is set when Outcome == Deadlocked.
	Deadlock *DeadlockInfo
}

const defaultMaxEvents = 50_000_000

// budgetCheckInterval is how often (in processed events) the event loop
// re-checks the run's context. A power of two so the check is a mask, not a
// division; small enough that cancellation is honoured within a fraction of
// a millisecond of simulation work, large enough that ctx.Err never shows
// up in profiles.
const budgetCheckInterval = 4096

// Run executes the configured simulation: Compile plus one (*Machine).Run.
// Callers probing many variants of one graph should Compile once and Reset
// between runs instead.
func Run(cfg Config) (*Result, error) {
	m, err := Compile(cfg)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// portRef is one input or output port of an actor. A port whose quantum is
// data-independent keeps it in q and leaves seq nil, so the event loop reads
// it without an interface call; otherwise seq yields the per-firing quantum.
type portRef struct {
	seq  quanta.Sequence
	edge *edgeState
	q    int64
}

// at returns the port's transfer quantum of firing k.
//
//vrdf:noalloc
func (p *portRef) at(k int64) int64 {
	if p.seq == nil {
		return p.q
	}
	return p.seq.At(k)
}

// newPort builds a port over seq, or over the single value of the constant
// quanta set when seq is nil, keeping a constant quantum as a plain integer.
// Under validate every transfer is checked against set: the sequence is
// wrapped in a quanta.Checked, which is never hoisted.
func newPort(es *edgeState, seq quanta.Sequence, set vrdf.QuantaSet, validate bool) portRef {
	if seq == nil {
		if !validate {
			return portRef{edge: es, q: set.Max()}
		}
		seq = quanta.Constant(set.Max())
	}
	if validate {
		seq = quanta.Checked(seq, set)
	}
	if v, ok := quanta.ConstantValue(seq); ok {
		return portRef{edge: es, q: v}
	}
	return portRef{edge: es, seq: seq}
}

type actorState struct {
	idx        int
	name       string
	mode       Mode
	rhoTicks   int64
	exec       func(k int64) ratio.Rat
	startShift func(k int64) ratio.Rat
	offsetT    int64 // the current run's start of firing 0 (see offset)
	periodT    int64
	started    int64
	finished   int64
	busyTicks  int64 // accumulated execution time
	busyUntil  int64 // earliest tick the next firing may start
	readyAt    int64 // ASAP with StartShift: tick the armed firing may start
	armedFor   int64 // ASAP with StartShift: firing index the timer is armed for, -1 none
	in         []portRef
	out        []portRef
	// offset is the configured start of a periodic actor's firing 0 in
	// ticks, which a cold reset copies to offsetT: set by Compile,
	// repointed by the Verifier between runs, and quietStart for a stop
	// actor that starts when the rest of the graph goes quiet. A quiet
	// run sets offsetT to the tick at which that happened. Checkpoints
	// are keyed on offset and save offsetT.
	offset int64
	// starts is the start-time recording of an actor in RecordStarts,
	// appended to only by runs that record starts (see Machine.recStarts).
	starts []int64
	// runLengthFirings counts the firings the run-length path applied,
	// over the machine's life.
	runLengthFirings int64
	record           bool
	// runLength marks an actor whose back-to-back firings the event loop
	// may apply in one step (see Machine.runLength); fixed by Compile.
	runLength bool
}

type edgeState struct {
	name     string
	initial  int64 // default token count at tick 0
	producer int   // index of the source actor
	consumer int   // index of the destination actor
	tokens   int64
	peak     int64
	min      int64
	produced int64
	consumed int64
	// minShortfall is the smallest token deficit any failed enabled()
	// check observed on this edge so far in the run (noShortfall when no
	// check failed). A warm start that adds δ tokens to this edge keeps
	// the replayed prefix bit-identical only when δ < minShortfall: every
	// enabling check that failed must still fail.
	minShortfall int64
	record       bool
	recordOcc    bool
	recs         []TransferRec
	occ          []OccupancySample
}

// noShortfall is the minShortfall sentinel: no enabling check has failed on
// the edge, so a token increase of any size keeps failed checks failed
// (there are none).
const noShortfall = int64(^uint64(0) >> 1)

// sample records the edge's occupancy at the given tick, coalescing
// same-tick updates.
//
//vrdf:noalloc
func (es *edgeState) sample(tick int64) {
	if !es.recordOcc {
		return
	}
	if n := len(es.occ); n > 0 && es.occ[n-1].Tick == tick {
		es.occ[n-1].Tokens = es.tokens
		return
	}
	es.occ = append(es.occ, OccupancySample{Tick: tick, Tokens: es.tokens}) //vrdf:allocok(es.occ keeps its capacity across Reset, so steady-state reruns append into retained backing)
}

type eventKind int

const (
	evFinish eventKind = iota
	evPeriodicStart
	evShiftedStart
)

// ordKindShift places an event's kind above its push sequence number in
// event.ord. Sequence numbers count pushes, and every pushed event is
// either popped as a counted event or still waiting in the calendar, so
// they stay below MaxEvents plus the calendar size: far below 2^60 for any
// run that can finish.
const ordKindShift = 60

type event struct {
	tick int64
	// ord is kind<<ordKindShift | seq: the kind, then the push sequence
	// number as a tiebreaker, folded into one comparable key.
	ord   uint64
	actor int
}

// kind returns the event's kind.
//
//vrdf:noalloc
func (ev event) kind() eventKind { return eventKind(ev.ord >> ordKindShift) }

// eventLess is the total order of the event calendar: time, then kind
// (finishes before starts at equal time), then push order. Total because
// the push sequence number is unique, so the pop sequence is independent
// of heap layout.
//
//vrdf:noalloc
func eventLess(a, b event) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.ord < b.ord
}

// eventHeap is a hand-inlined binary min-heap over a preallocated []event.
// Unlike container/heap it moves concrete values — no interface boxing, no
// per-push/per-pop allocation in the steady state.
type eventHeap []event

//vrdf:noalloc
func (h *eventHeap) push(ev event) {
	q := append(*h, ev) //vrdf:allocok(the calendar keeps its capacity across Reset, so steady-state pushes append into retained backing)
	i := len(q) - 1
	//vrdf:unbudgeted(heap sift-up, O-of-log-n in the calendar size)
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

//vrdf:noalloc
func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	h.down(0)
	return top
}

// tickAt returns the tick of the event at index i, or farTick past the end.
//
//vrdf:noalloc
func (h eventHeap) tickAt(i int) int64 {
	if i < len(h) {
		return h[i].tick
	}
	return farTick
}

// farTick stands for "never": later than any event.
const farTick = math.MaxInt64

// quietStart is the offset of a periodic stop actor whose first start is
// decided by the run: at the first tick the event calendar runs dry, when
// every other actor is blocked and nothing is pending. The Verifier's
// feasibility probe starts the constrained task this way.
const quietStart = -1

// down restores the heap order below index i after the event there grew.
//
//vrdf:noalloc
func (h eventHeap) down(i int) {
	q, n := h, len(h)
	//vrdf:unbudgeted(heap sift-down, O-of-log-n in the calendar size)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && eventLess(q[r], q[l]) {
			least = r
		}
		if !eventLess(q[least], q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// Machine is a compiled simulation: the graph validated, the time base
// resolved and every per-actor/per-edge structure built, ready to run.
// Compile once, then alternate Reset and Run to probe many initial-token
// variants of the same configuration without paying the build cost again —
// results are bit-identical to a fresh Run of the same configuration.
//
// A Machine is not safe for concurrent use; feasibility searches keep one
// per worker.
type Machine struct {
	cfg        Config
	base       TimeBase
	actors     []*actorState
	edgeList   []*edgeState
	edgeIdx    map[string]int // edge name → edgeList index, built by edgeIndex
	eq         eventHeap
	seq        int64
	events     int64
	maxEvents  int64
	stop       *actorState
	invariants []resolvedInvariant
	dirty      []uint64 // bitset by actor index: ASAP actors to re-examine at the current tick
	ran        bool     // a Run consumed the state; Reset required
	resumed    bool     // next Run resumes from a restored checkpoint
	// recStarts is set when the pending run appends to the RecordStarts
	// recordings and fills Result.Starts. Every reset sets it; only the
	// Verifier's verdict-only probes clear it.
	recStarts bool
	// ckptStarts is set when every retained checkpoint was taken by a run
	// that recorded starts, so its start-recording prefix exists.
	ckptStarts bool

	runTokens []int64 // per edgeList index: initial tokens of the pending/current run
	frame     []int64 // fillFrame scratch: the initial tokens a name-keyed reset asks for

	// Warm-start state (all inert when ckptSlots == 0).
	ckptSlots  int           // retained checkpoint slots; 0 disables
	ckpts      []*checkpoint // checkpoints of the last/current run, ascending by events
	ckptFree   []*checkpoint // retired checkpoint arenas for reuse
	ckptArena  []checkpoint  // checkpoint slots never handed out yet
	ckptEvery  int64         // current checkpoint interval in events
	ckptNext   int64         // event count at which the next checkpoint is taken
	ckptTokens []int64       // initial tokens of the run the checkpoints describe
	ckptOffs   []int64       // per-actor offset the checkpoints were taken under
	resumeTick int64         // tick of the restored checkpoint

	// endTick is the tick at which the last run ended and underrun its
	// failed start when it underran; result reads both.
	endTick  int64
	underrun UnderrunInfo
}

type resolvedInvariant struct {
	name  string
	edges []*edgeState
	max   int64
}

// checkInvariants validates the configured token invariants; called after
// every event when enabled.
func (m *Machine) checkInvariants(tick int64) error {
	for _, es := range m.edgeList {
		if es.tokens < 0 {
			return fmt.Errorf("sim: invariant violated at tick %d: edge %s has %d tokens", tick, es.name, es.tokens)
		}
	}
	for _, inv := range m.invariants {
		var sum int64
		for _, es := range inv.edges {
			sum += es.tokens
		}
		if sum > inv.max {
			return fmt.Errorf("sim: invariant %s violated at tick %d: token sum %d exceeds %d", inv.name, tick, sum, inv.max)
		}
	}
	return nil
}

// Compile validates the configuration, resolves the time base and builds
// all index-based simulation state once. The returned Machine is ready to
// Run; call Reset between runs to reuse it.
func Compile(cfg Config) (*Machine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	if err := cfg.Graph.Validate(); err != nil {
		return nil, err
	}
	return compile(cfg)
}

// compile is Compile for a graph known to be valid: vrdf.FromTaskGraph
// validates the graphs it builds, so the Verifier skips a second
// connectivity search per machine.
func compile(cfg Config) (*Machine, error) {
	g := cfg.Graph
	if cfg.Stop.Actor == "" || cfg.Stop.Firings <= 0 {
		return nil, fmt.Errorf("sim: stop condition requires an actor and a positive firing count")
	}
	if g.Actor(cfg.Stop.Actor) == nil {
		return nil, fmt.Errorf("sim: stop actor %q not in graph", cfg.Stop.Actor)
	}
	gActors, gEdges := g.Actors(), g.Edges()

	// Fold every rational time the run will see into the base.
	base, err := NewTimeBase(cfg.ExtraTimes...)
	if err != nil {
		return nil, err
	}
	for _, a := range gActors {
		if base, err = base.extend(a.Rho); err != nil {
			return nil, err
		}
		if ac := cfg.Actors[a.Name]; ac.Mode == Periodic {
			if base, err = base.extend(ac.Offset, ac.Period); err != nil {
				return nil, err
			}
		}
	}

	m := &Machine{
		cfg:       cfg,
		base:      base,
		maxEvents: cfg.MaxEvents,
	}
	if m.maxEvents <= 0 {
		m.maxEvents = defaultMaxEvents
	}

	for _, n := range cfg.RecordStarts {
		if g.Actor(n) == nil {
			return nil, fmt.Errorf("sim: RecordStarts actor %q not in graph", n)
		}
	}
	for _, n := range cfg.RecordTransfers {
		if g.EdgeByName(n) == nil {
			return nil, fmt.Errorf("sim: RecordTransfers edge %q not in graph", n)
		}
	}
	for _, n := range cfg.RecordOccupancy {
		if g.EdgeByName(n) == nil {
			return nil, fmt.Errorf("sim: RecordOccupancy edge %q not in graph", n)
		}
	}

	// The actor and edge states are carved from one backing array each.
	edges := make([]edgeState, len(gEdges))
	m.edgeList = make([]*edgeState, len(gEdges))
	for i, ge := range gEdges {
		edges[i] = edgeState{name: ge.Name, initial: ge.Initial}
		m.edgeList[i] = &edges[i]
	}
	actors := make([]actorState, len(gActors))
	m.actors = make([]*actorState, len(gActors))
	byName := make(map[string]int, len(gActors))
	for i, ga := range gActors {
		rhoT, err := base.Ticks(ga.Rho)
		if err != nil {
			return nil, fmt.Errorf("sim: actor %s: %w", ga.Name, err)
		}
		as := &actors[i]
		*as = actorState{
			idx:      i,
			name:     ga.Name,
			rhoTicks: rhoT,
			armedFor: -1,
		}
		if ac, ok := cfg.Actors[ga.Name]; ok {
			as.mode = ac.Mode
			as.exec = ac.Exec
			as.startShift = ac.StartShift
			if ac.Mode == Periodic {
				if ac.Period.Sign() <= 0 {
					return nil, fmt.Errorf("sim: periodic actor %s needs a positive period, got %v", ga.Name, ac.Period)
				}
				if ac.Offset.Sign() < 0 {
					return nil, fmt.Errorf("sim: periodic actor %s needs a non-negative offset, got %v", ga.Name, ac.Offset)
				}
				if as.offset, err = base.Ticks(ac.Offset); err != nil {
					return nil, fmt.Errorf("sim: actor %s offset: %w", ga.Name, err)
				}
				if as.periodT, err = base.Ticks(ac.Period); err != nil {
					return nil, fmt.Errorf("sim: actor %s period: %w", ga.Name, err)
				}
				if as.startShift != nil {
					return nil, fmt.Errorf("sim: actor %s: StartShift is only valid in ASAP mode", ga.Name)
				}
			}
		}
		m.actors[i] = as
		byName[ga.Name] = i
	}
	for _, n := range cfg.RecordStarts {
		actors[byName[n]].record = true
	}
	for _, n := range cfg.RecordTransfers {
		i, _ := m.edgeIndex(n)
		edges[i].record = true
	}
	for _, n := range cfg.RecordOccupancy {
		i, _ := m.edgeIndex(n)
		edges[i].recordOcc = true
	}

	// Every edge is one output port of its producer and one input port of
	// its consumer. The ports are carved from one backing array too: the
	// first pass counts each actor's ports as the lengths of slices over
	// the whole array, the second gives each actor its own range of it.
	ports := make([]portRef, 2*len(gEdges))
	for _, as := range m.actors {
		as.in, as.out = ports[:0], ports[:0]
	}
	for i, ge := range gEdges {
		es := &edges[i]
		es.producer, es.consumer = byName[ge.Src], byName[ge.Dst]
		src, dst := &actors[es.producer], &actors[es.consumer]
		src.out = src.out[:len(src.out)+1]
		dst.in = dst.in[:len(dst.in)+1]
	}
	next := 0
	for _, as := range m.actors {
		nIn, nOut := len(as.in), len(as.out)
		as.in = ports[next : next : next+nIn]
		next += nIn
		as.out = ports[next : next : next+nOut]
		next += nOut
	}
	for i, ge := range gEdges {
		eq := cfg.Quanta[ge.Name]
		if eq.Prod == nil && !ge.Prod.IsConstant() {
			return nil, fmt.Errorf("sim: edge %s has variable production quanta %v but no sequence configured", ge.Name, ge.Prod)
		}
		if eq.Cons == nil && !ge.Cons.IsConstant() {
			return nil, fmt.Errorf("sim: edge %s has variable consumption quanta %v but no sequence configured", ge.Name, ge.Cons)
		}
		es := &edges[i]
		src, dst := &actors[es.producer], &actors[es.consumer]
		src.out = append(src.out, newPort(es, eq.Prod, ge.Prod, cfg.Validate))
		dst.in = append(dst.in, newPort(es, eq.Cons, ge.Cons, cfg.Validate))
	}

	if cfg.CheckInvariants {
		for _, inv := range cfg.Invariants {
			ri := resolvedInvariant{name: inv.Name, max: inv.Max}
			for _, name := range inv.Edges {
				i, ok := m.edgeIndex(name)
				if !ok {
					return nil, fmt.Errorf("sim: invariant %s references unknown edge %q", inv.Name, name)
				}
				ri.edges = append(ri.edges, m.edgeList[i])
			}
			m.invariants = append(m.invariants, ri)
		}
	}

	m.stop = m.actors[byName[cfg.Stop.Actor]]
	m.eq = make(eventHeap, 0, m.calendarBound())
	m.dirty = make([]uint64, (len(m.actors)+63)/64)
	if cfg.Checkpoints < 0 {
		return nil, fmt.Errorf("sim: negative checkpoint count %d", cfg.Checkpoints)
	}
	m.ckptSlots = cfg.Checkpoints
	if cfg.Validate || cfg.CheckInvariants {
		// A cold run evaluates per-event checks over the whole prefix a
		// warm start would skip; keep runs bit-identical by never warm
		// starting under them.
		m.ckptSlots = 0
	}
	for _, a := range m.actors {
		if a.startShift != nil {
			// Shifted starts arm timers at enabling time, which a token
			// change can move without changing any replayed token state.
			m.ckptSlots = 0
		}
	}
	// runTokens, the fillFrame scratch and, on a checkpointing machine, the
	// checkpoints' key (initial tokens per edge, offsets per actor) share
	// one backing array.
	ne, na := len(m.edgeList), len(m.actors)
	n := 2 * ne
	if m.ckptSlots > 0 {
		n += ne + na
	}
	tokens := make([]int64, n)
	m.runTokens, m.frame = tokens[:ne:ne], tokens[ne:2*ne:2*ne]
	if m.ckptSlots > 0 {
		m.ckptTokens, m.ckptOffs = tokens[2*ne:3*ne:3*ne], tokens[3*ne:3*ne:n]
	}
	if !cfg.CheckInvariants {
		// Invariants are checked after every event, so their runs stay
		// per-event throughout.
		for _, a := range m.actors {
			m.compileRunLength(a)
		}
	}
	if err := m.Reset(nil); err != nil {
		return nil, err
	}
	return m, nil
}

// calendarBound is the most events the calendar can hold at once: one
// finish per actor (firings of one actor never overlap), one pending start
// attempt per periodic actor and one armed start per shifted actor. The
// calendar and every checkpoint's copy of it are allocated at this size,
// so no run grows them.
func (m *Machine) calendarBound() int {
	n := len(m.actors)
	for _, a := range m.actors {
		if a.mode == Periodic {
			n++
		}
		if a.startShift != nil {
			n++
		}
	}
	return n
}

// edgeIndex returns the edgeList index of the named edge. The name index
// is built on first use: only name-keyed resets, recordings and
// invariants look edges up by name.
func (m *Machine) edgeIndex(name string) (int, bool) {
	if m.edgeIdx == nil {
		m.edgeIdx = make(map[string]int, len(m.edgeList))
		for i, es := range m.edgeList {
			m.edgeIdx[es.name] = i
		}
	}
	i, ok := m.edgeIdx[name]
	return i, ok
}

// Base returns the machine's resolved time base.
func (m *Machine) Base() TimeBase { return m.base }

// Reset prepares the machine to Run again: initialTokens optionally
// overrides the initial token count of the named edges for the next run
// (capacity probes override the space edges); edges without an entry
// revert to the graph's initial tokens. With Config.Checkpoints set, the
// next run resumes from the newest retained checkpoint of the previous run
// that the changed initial tokens cannot have affected; otherwise, and
// when no checkpoint qualifies, the machine rewinds to tick 0. Either way
// the next run is bit-identical to a fresh Run of the same configuration
// with those tokens. No compiled structure is rebuilt and no per-edge
// state is reallocated. An unknown edge or a negative count is an error
// that leaves the machine unchanged.
func (m *Machine) Reset(initialTokens map[string]int64) error {
	if err := m.fillFrame(initialTokens); err != nil {
		return err
	}
	m.resetWarm(m.frame, true)
	return nil
}

// fillFrame validates a name-keyed initial-token override and writes the
// per-edge frame it asks for into m.frame: every edge's compiled initial
// tokens, with the named edges overridden.
func (m *Machine) fillFrame(initialTokens map[string]int64) error {
	for i, es := range m.edgeList {
		m.frame[i] = es.initial
	}
	for name, v := range initialTokens {
		i, ok := m.edgeIndex(name)
		if !ok {
			return fmt.Errorf("sim: Reset: unknown edge %q", name)
		}
		if v < 0 {
			return fmt.Errorf("sim: Reset: edge %q: negative initial tokens %d", name, v)
		}
		m.frame[i] = v
	}
	return nil
}

// resetTokens rewinds all per-run state (tokens, counters, recordings, the
// event calendar) to the start of a run from the per-edge initial-token
// frame. It invalidates the retained checkpoints: they describe a run
// whose recordings are truncated here.
func (m *Machine) resetTokens(frame []int64) {
	for i, es := range m.edgeList {
		tok := frame[i]
		es.tokens = tok
		es.peak = tok
		es.min = tok
		es.produced = 0
		es.consumed = 0
		es.minShortfall = noShortfall
		es.recs = es.recs[:0]
		es.occ = es.occ[:0]
		es.sample(0)
		m.runTokens[i] = tok
	}
	for _, a := range m.actors {
		a.started = 0
		a.finished = 0
		a.busyTicks = 0
		a.busyUntil = 0
		a.readyAt = 0
		a.armedFor = -1
		a.starts = a.starts[:0]
		a.offsetT = a.offset
	}
	m.eq = m.eq[:0]
	m.seq = 0
	m.events = 0
	clear(m.dirty)
	m.ran = false
	m.resumed = false
	m.dropCheckpoints(0)
}

// push schedules an event of the given kind for actor at tick.
//
//vrdf:noalloc
func (m *Machine) push(tick int64, kind eventKind, actor int) {
	m.eq.push(event{tick: tick, ord: uint64(kind)<<ordKindShift | uint64(m.seq), actor: actor})
	m.seq++
}

// markDirty queues an ASAP actor for a start attempt at the current tick.
//
//vrdf:noalloc
func (m *Machine) markDirty(idx int) {
	if m.actors[idx].mode == ASAP {
		m.dirty[idx>>6] |= 1 << (idx & 63)
	}
}

// enabled reports whether actor a's next firing has sufficient tokens on
// every input edge, returning the first lacking edge otherwise.
//
//vrdf:noalloc
func (a *actorState) enabled() (ok bool, lacking *portRef, need int64) {
	k := a.started
	for i := range a.in {
		p := &a.in[i]
		n := p.at(k)
		if p.edge.tokens < n {
			return false, p, n
		}
	}
	return true, nil, 0
}

// start begins actor a's next firing at tick t: consumes input tokens and
// schedules the finish event.
func (m *Machine) start(a *actorState, t int64) error {
	k := a.started
	for i := range a.in {
		p := &a.in[i]
		n := p.at(k)
		if n > 0 {
			p.edge.consumed += n
			if p.edge.record {
				p.edge.recs = append(p.edge.recs, TransferRec{
					From: p.edge.consumed - n + 1, To: p.edge.consumed, Tick: t, Produce: false,
				})
			}
			p.edge.tokens -= n
			if p.edge.tokens < p.edge.min {
				p.edge.min = p.edge.tokens
			}
			p.edge.sample(t)
		}
	}
	execT := a.rhoTicks
	if a.exec != nil {
		et, err := m.base.Ticks(a.exec(k))
		if err != nil {
			return fmt.Errorf("sim: actor %s firing %d execution time: %w", a.name, k, err)
		}
		if et <= 0 {
			return fmt.Errorf("sim: actor %s firing %d execution time %d ticks outside (0, ρ=%d]", a.name, k, et, a.rhoTicks)
		}
		if et > a.rhoTicks && !m.cfg.AllowOverrun {
			return fmt.Errorf("sim: actor %s firing %d execution time %d ticks outside (0, ρ=%d] (set Config.AllowOverrun to inject overrun stalls)", a.name, k, et, a.rhoTicks)
		}
		execT = et
	}
	a.started++
	a.busyUntil = t + execT
	a.busyTicks += execT
	if a.record && m.recStarts {
		a.starts = append(a.starts, t)
	}
	m.push(t+execT, evFinish, a.idx)
	return nil
}

// finish completes actor a's oldest running firing at tick t: produces
// output tokens and queues the actors this may enable — the consumers of
// the edges that received tokens, plus a itself, now free to start again.
//
//vrdf:noalloc
func (m *Machine) finish(a *actorState, t int64) {
	k := a.finished
	for i := range a.out {
		p := &a.out[i]
		n := p.at(k)
		if n > 0 {
			p.edge.tokens += n
			p.edge.produced += n
			if p.edge.record {
				//vrdf:allocok(p.edge.recs keeps its capacity across Reset, so steady-state reruns append into retained backing)
				p.edge.recs = append(p.edge.recs, TransferRec{
					From: p.edge.produced - n + 1, To: p.edge.produced, Tick: t, Produce: true,
				})
			}
			if p.edge.tokens > p.edge.peak {
				p.edge.peak = p.edge.tokens
			}
			p.edge.sample(t)
			m.markDirty(p.edge.consumer)
		}
	}
	a.finished++
	m.markDirty(a.idx)
}

// startDirty starts every queued ASAP actor that is enabled at tick t, in
// actor-index order — the same order as the full fixpoint scan it replaces,
// and the order a walk over the dirty bitset yields. One ordered pass
// suffices: production happens only at finish, so a start at t can disable
// but never enable a peer at t (nor mark one dirty), and an actor can only
// have become startable through an event that marked it dirty (its own
// finish, a token arrival on an input edge, or an armed shifted start
// expiring).
func (m *Machine) startDirty(t int64) error {
	for w, word := range m.dirty {
		if word == 0 {
			continue
		}
		m.dirty[w] = 0
		//vrdf:unbudgeted(one iteration per set bit of a 64-bit word; Run budgets the surrounding event loop)
		for ; word != 0; word &= word - 1 {
			a := m.actors[w<<6|bits.TrailingZeros64(word)]
			//vrdf:unbudgeted(each firing consumes tokens or advances busyUntil, so the start cascade is bounded; Run budgets the surrounding event loop)
			for a.busyUntil <= t {
				ok, p, need := a.enabled()
				if !ok {
					// Remember how far the failing edge was from enabling;
					// warm starts must not add enough tokens to flip a
					// replayed failure into a start.
					if sh := need - p.edge.tokens; sh < p.edge.minShortfall {
						p.edge.minShortfall = sh
					}
					break
				}
				if a.startShift != nil {
					if a.armedFor == a.started {
						// Timer armed for this firing; wait for it.
						if a.readyAt > t {
							break
						}
					} else {
						// First time this firing is enabled: apply the
						// shift once, measured from the enabling time.
						d := a.startShift(a.started)
						if d.Sign() < 0 {
							return fmt.Errorf("sim: actor %s: negative start shift %v", a.name, d)
						}
						dt, err := m.base.Ticks(d)
						if err != nil {
							return fmt.Errorf("sim: actor %s start shift: %w", a.name, err)
						}
						if dt > 0 {
							a.armedFor = a.started
							a.readyAt = t + dt
							m.push(a.readyAt, evShiftedStart, a.idx)
							break
						}
					}
				}
				if err := m.start(a, t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// compileRunLength decides whether the event loop may apply a's firings in
// runs (see runLength). It may when every port of a is constant, every
// firing takes exactly ρ (ρ > 0, and within the period for a periodic
// actor, which otherwise underruns), no start of a or of a consumer it
// wakes is shifted, no recording watches a's edges, and no edge leads from
// a back into a.
func (m *Machine) compileRunLength(a *actorState) {
	if a.exec != nil || a.startShift != nil || a.rhoTicks <= 0 ||
		(a.mode == Periodic && a.rhoTicks > a.periodT) {
		return
	}
	for _, ports := range [][]portRef{a.in, a.out} {
		for _, p := range ports {
			if p.seq != nil || p.edge.record || p.edge.recordOcc {
				return
			}
		}
	}
	for _, p := range a.out {
		if c := m.actors[p.edge.consumer]; c == a || c.startShift != nil {
			return
		}
	}
	a.runLength = true
}

// runLength is the event loop's fast path, tried at quiescent points (every
// same-tick event drained, the dirty set empty) whose earliest event
// belongs to a run-length actor a. When that event is a's finish, it works
// out how many firings L of a the per-event loop would process back to
// back, and applies all L at once. An ASAP a finishes and restarts at the
// same tick (one event per firing); a periodic a finishes and starts its
// next scheduled firing (two events per firing). The run ends before the
// firing at which
//
//   - another actor's event is due at the same tick or earlier,
//   - a lacks the input tokens to start again,
//   - an idle consumer woken by a's production becomes enabled,
//   - a reaches the stop horizon (a's last firings stay per-event), or
//   - the events would pass MaxEvents, the next context check or the next
//     checkpoint.
//
// Tokens, produced/consumed counts, peaks and minima, busy time, firing
// counters, events, sequence numbers, the minimum shortfall every failed
// wake-up check would have recorded and a's calendar entries all come out
// as the per-event loop leaves them. Only a recording run writes start
// ticks, one per firing. A run leaves a's last finish in the calendar, so
// it never steps over the point where the calendar runs dry and a quiet
// start is decided. It returns the tick of the last applied event, and
// false when not even one firing can be applied.
//
//vrdf:noalloc
func (m *Machine) runLength() (int64, bool) {
	a := m.actors[m.eq[0].actor]
	if m.eq[0].kind() != evFinish {
		return 0, false
	}
	var first, stride, other int64
	ci := 0 // calendar index of a's pending periodic start
	if a.mode == ASAP {
		// a's finish is its only event; the rest hang below the root.
		first, stride, other = m.eq[0].tick, a.rhoTicks, min(m.eq.tickAt(1), m.eq.tickAt(2))
	} else {
		// a's next scheduled start, the second-smallest event, is a child
		// of the root: each firing is that finish plus the next start.
		ci = 1
		if len(m.eq) > 2 && eventLess(m.eq[2], m.eq[1]) {
			ci = 2
		}
		if len(m.eq) < 2 || m.eq[ci].actor != a.idx || m.eq[ci].kind() != evPeriodicStart ||
			m.eq[ci].tick != a.offsetT+a.started*a.periodT {
			return 0, false
		}
		first, stride = m.eq[ci].tick, a.periodT
		other = min(m.eq.tickAt(3-ci), m.eq.tickAt(2*ci+1), m.eq.tickAt(2*ci+2))
	}
	if other <= first {
		return 0, false
	}
	for i := range a.in {
		if p := &a.in[i]; p.edge.tokens < p.q {
			return 0, false // a cannot start again; skip the divisions below
		}
	}
	// An idle consumer that a's very first finish enables is how most
	// attempts of actors firing in lockstep end, so bound the run by the
	// consumers' enabling before any division.
	finish := m.eq[0].tick
	wake := int64(farTick)
	for i := 0; i < len(a.out) && wake > 1; i++ {
		if c := m.idleWoken(a, i, finish); c != nil {
			wake = min(wake, a.enables(c))
		}
	}
	if wake <= 1 {
		return 0, false
	}
	L := min((other-first-1)/stride+1, wake-1)
	// Event budget: pops happen at counts events … events+n-1, none of
	// which may reach MaxEvents or, after the first, a context check.
	events := min(m.maxEvents, (m.events|(budgetCheckInterval-1))+1) - m.events
	if a.mode == ASAP {
		L = min(L, events)
		if m.ckptSlots > 0 {
			L = min(L, m.ckptNext-m.events)
		}
		if a == m.stop {
			L = min(L, m.cfg.Stop.Firings-a.finished-1)
		}
	} else {
		L = min(L, events/2)
		if m.ckptSlots > 0 {
			// The checkpoint falls at the first quiescent point at or past
			// ckptNext: after a finish when it has a tick of its own.
			gap := m.ckptNext - m.events
			if a.rhoTicks == a.periodT {
				gap++
			}
			L = min(L, gap/2)
		}
		if a == m.stop {
			// Keep the next scheduled start pushed after every applied one.
			L = min(L, m.cfg.Stop.Firings-a.started-1)
		}
	}
	for i := range a.in {
		if p := &a.in[i]; p.q > 0 {
			L = min(L, p.edge.tokens/p.q)
		}
	}
	if L <= 0 {
		return 0, false
	}

	for i := range a.out {
		if c := m.idleWoken(a, i, finish); c != nil {
			a.recordShortfalls(c, L)
		}
	}
	for i := range a.in {
		if e, n := a.in[i].edge, a.in[i].q*L; n > 0 {
			e.consumed += n
			e.tokens -= n
			e.min = min(e.min, e.tokens)
		}
	}
	for i := range a.out {
		if e, n := a.out[i].edge, a.out[i].q*L; n > 0 {
			e.produced += n
			e.tokens += n
			e.peak = max(e.peak, e.tokens)
		}
	}
	if a.record && m.recStarts {
		n := len(a.starts)
		a.starts = slices.Grow(a.starts, int(L))[:n+int(L)] //vrdf:allocok(a.starts keeps its capacity across Reset, so steady-state reruns grow into retained backing)
		for k, t := n, first; k < len(a.starts); k, t = k+1, t+stride {
			a.starts[k] = t
		}
	}
	last := first + (L-1)*stride
	a.started += L
	a.finished += L
	a.busyTicks += L * a.rhoTicks
	a.busyUntil = last + a.rhoTicks
	a.runLengthFirings += L
	// Rewrite a's calendar entries with the sequence numbers the per-event
	// pushes would have drawn, then restore the heap order beneath them.
	// A periodic firing pushes its finish, then its next scheduled start.
	pushes, finishSeq := L, m.seq+L-1
	if a.mode == Periodic {
		pushes, finishSeq = 2*L, m.seq+2*L-2
		m.eq[ci] = event{tick: last + stride, ord: uint64(evPeriodicStart)<<ordKindShift | uint64(m.seq+2*L-1), actor: a.idx}
		m.eq.down(ci)
	}
	m.eq[0] = event{tick: a.busyUntil, ord: uint64(evFinish)<<ordKindShift | uint64(finishSeq), actor: a.idx}
	m.eq.down(0)
	m.seq += pushes
	m.events += pushes
	return last, true
}

// idleWoken returns the consumer of a's i-th output if a's finish at tick t
// marks it dirty and it is an ASAP actor idle at t, so its wake-up check
// tries to start it; nil otherwise, and for every output but the first
// that reaches the consumer, so each consumer is returned once.
//
//vrdf:noalloc
func (m *Machine) idleWoken(a *actorState, i int, t int64) *actorState {
	p := &a.out[i]
	c := m.actors[p.edge.consumer]
	if p.q == 0 || c.mode != ASAP || c.busyUntil > t {
		return nil
	}
	for _, q := range a.out[:i] {
		if q.q > 0 && q.edge.consumer == c.idx {
			return nil
		}
	}
	return c
}

// fed returns the tokens each firing of a adds to port p of another actor:
// the quantum of a's output on p's edge, 0 when a does not feed it.
//
//vrdf:noalloc
func (a *actorState) fed(p *portRef) int64 {
	if p.edge.producer != a.idx {
		return 0
	}
	for _, q := range a.out {
		if q.edge == p.edge {
			return q.q
		}
	}
	return 0
}

// enables returns the first firing i ≥ 1 of run-length actor a after whose
// finish consumer c is enabled, or farTick when a alone never enables it.
//
//vrdf:noalloc
func (a *actorState) enables(c *actorState) int64 {
	from := int64(1)
	for j := range c.in {
		p := &c.in[j]
		prod := a.fed(p)
		deficit := p.at(c.started) - p.edge.tokens
		if deficit <= from*prod {
			continue
		}
		if prod == 0 {
			return farTick
		}
		from = (deficit-1)/prod + 1
	}
	return from
}

// recordShortfalls records the minimum shortfalls that the wake-up checks
// of consumer c after run-length actor a's next L finishes observe, given
// that none of them enables c (L < a.enables(c)). The check after finish i
// fails on the first input still short; an input stays the first short one
// over a range of consecutive finishes, and the last of them shows its
// smallest shortfall.
//
//vrdf:noalloc
func (a *actorState) recordShortfalls(c *actorState, L int64) {
	from := int64(1)
	for j := range c.in {
		p := &c.in[j]
		prod := a.fed(p)
		deficit := p.at(c.started) - p.edge.tokens
		if deficit <= from*prod {
			continue
		}
		last := L
		if prod > 0 {
			last = min(L, (deficit-1)/prod)
		}
		p.edge.minShortfall = min(p.edge.minShortfall, deficit-last*prod)
		if last == L {
			return
		}
		from = last + 1
	}
}

// Run executes the machine from its reset state to completion. After a run
// the machine must be Reset before running again. A run resumed from a
// checkpoint continues mid-schedule and produces results bit-identical to
// a cold run of the same configuration, with Result.Events still counting
// from tick 0 (replayed prefix included). The run honours Config.Context.
func (m *Machine) Run() (*Result, error) { return m.run(m.cfg.Context) }

// run is Run under ctx (nil: no cancellation). A Verifier passes each
// call's context here, so a pooled machine never keeps a caller's context
// beyond the run it bounds. A run after resetWarm(frame, false) records no
// start times and its Result carries no Starts.
func (m *Machine) run(ctx context.Context) (*Result, error) {
	out, err := m.verdict(ctx)
	if err != nil {
		return nil, err
	}
	return m.result(out), nil
}

// verdict is run without the Result: it returns how the run ended and
// allocates nothing, leaving the run's end in the machine for result to
// read until the next reset. However the run ends, its effort is counted.
func (m *Machine) verdict(ctx context.Context) (Outcome, error) {
	if m.ran {
		return 0, fmt.Errorf("sim: Machine.Run called again without Reset")
	}
	var resumed int64
	if m.resumed {
		resumed = m.events
	}
	out, err := m.execute(ctx)
	m.cfg.Effort.note(m.events-resumed, resumed)
	return out, err
}

// execute is the event loop of verdict. It records the tick at which the
// run ended, and for an underrun the failed start, for result.
func (m *Machine) execute(ctx context.Context) (Outcome, error) {
	m.ran = true
	if m.recStarts && m.stop.record && m.stop.starts == nil {
		// The stop actor starts at most Stop.Firings firings per run;
		// presize its recording on the first run that records, so that run
		// does not grow it by doubling. The cap keeps a long horizon from
		// reserving memory that a run stopped early never uses.
		m.stop.starts = make([]int64, 0, min(m.cfg.Stop.Firings, 1<<16))
	}

	now := int64(0)
	if m.resumed {
		// State, calendar and counters were restored by the reset; the
		// seeding below already happened in the replayed prefix.
		m.resumed = false
		now = m.resumeTick
	} else {
		if m.ckptSlots > 0 {
			m.beginCheckpoints()
		}
		// Seed periodic actors' first start attempts, except a quiet
		// start's, and give every ASAP actor its initial start attempt at
		// tick 0.
		for _, a := range m.actors {
			if a.mode == ASAP {
				m.markDirty(a.idx)
			} else if a.offsetT != quietStart {
				m.push(a.offsetT, evPeriodicStart, a.idx)
			}
		}
		if err := m.startDirty(0); err != nil {
			return 0, err
		}
	}
	quiescent := true // every event at tick now drained and startDirty done
	lastActor := -1   // actor of the last event processed
	for m.stop.finished < m.cfg.Stop.Firings {
		if len(m.eq) == 0 {
			if m.stop.offsetT != quietStart {
				break
			}
			// Every other actor is blocked and nothing is pending, so
			// nothing happens until the stop actor fires: its quiet start
			// is now. Deciding it here makes it an event of the run, which
			// the checkpoints after it capture like any other.
			m.stop.offsetT = now
			m.push(now, evPeriodicStart, m.stop.idx)
		}
		if m.events >= m.maxEvents {
			m.endTick = now
			return LimitExceeded, nil
		}
		if ctx != nil && m.events&(budgetCheckInterval-1) == 0 {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("sim: run aborted after %d events at tick %d: %w", m.events, now, budget.Classify(err))
			}
		}
		// Try a run when the earliest event belongs to the actor whose event
		// was processed last, an actor firing back to back. Actors firing in
		// lockstep then pay for no futile attempts; the first firing of each
		// run stays per-event.
		if quiescent && m.eq[0].actor == lastActor && m.actors[lastActor].runLength {
			if last, ok := m.runLength(); ok {
				now = last
				if m.ckptSlots > 0 && m.events >= m.ckptNext {
					m.takeCheckpoint(now)
				}
				continue
			}
		}
		ev := m.eq.pop()
		m.events++
		now = ev.tick
		lastActor = ev.actor
		a := m.actors[ev.actor]
		switch ev.kind() {
		case evFinish:
			m.finish(a, now)
			if a == m.stop && a.finished >= m.cfg.Stop.Firings {
				// Stop immediately so no further firing starts at
				// this tick; counts reflect exactly the requested
				// horizon.
				continue
			}
		case evShiftedStart:
			// Handled by the dirty scan below, which sees
			// readyAt <= now.
			m.markDirty(ev.actor)
		case evPeriodicStart:
			k := a.started
			schedTick := a.offsetT + k*a.periodT
			if schedTick != now {
				// A stale attempt (actor already started this firing
				// through some earlier path); ignore.
				break
			}
			if a.busyUntil > now {
				m.endTick, m.underrun = now, UnderrunInfo{Actor: a.name, Firing: k, Tick: now}
				return Underrun, nil
			}
			if ok, p, need := a.enabled(); !ok {
				m.endTick, m.underrun = now, UnderrunInfo{
					Actor: a.name, Firing: k, Tick: now,
					Edge: p.edge.name, Have: p.edge.tokens, Need: need,
				}
				return Underrun, nil
			}
			if err := m.start(a, now); err != nil {
				return 0, err
			}
			if a.started < m.cfg.Stop.Firings || a != m.stop {
				m.push(a.offsetT+a.started*a.periodT, evPeriodicStart, a.idx)
			}
		}
		if m.cfg.CheckInvariants {
			if err := m.checkInvariants(now); err != nil {
				return 0, err
			}
		}
		// Drain all events at the same tick so token releases at `now`
		// are visible before ASAP starts at `now`.
		if len(m.eq) > 0 && m.eq[0].tick == now {
			quiescent = false
			continue
		}
		if err := m.startDirty(now); err != nil {
			return 0, err
		}
		quiescent = true
		// Checkpoint at quiescent points only: every same-tick event is
		// drained and the dirty list is empty, so the snapshot is a state
		// a cold run passes through between ticks.
		if m.ckptSlots > 0 && m.events >= m.ckptNext {
			m.takeCheckpoint(now)
		}
	}
	m.endTick = now
	if m.stop.finished >= m.cfg.Stop.Firings {
		return Completed, nil
	}
	return Deadlocked, nil
}

// result builds a fresh Result of the run that just ended with outcome
// out, with its full diagnostics: the failed start of an underrun, and for
// a deadlock every blocked actor, read from the state the run stopped in.
func (m *Machine) result(out Outcome) *Result {
	res := &Result{Outcome: out, Base: m.base}
	switch out {
	case Underrun:
		u := m.underrun
		res.Underrun = &u
	case Deadlocked:
		dl := &DeadlockInfo{Tick: m.endTick}
		for _, a := range m.actors {
			if ok, p, need := a.enabled(); !ok {
				dl.Blocked = append(dl.Blocked, BlockedActor{
					Actor: a.name, Firing: a.started,
					Edge: p.edge.name, Have: p.edge.tokens, Need: need,
				})
			}
		}
		sort.Slice(dl.Blocked, func(i, j int) bool { return dl.Blocked[i].Actor < dl.Blocked[j].Actor })
		res.Deadlock = dl
	}
	m.fill(res, m.endTick)
	return res
}

// fill copies machine state into the result. Recorded series are copied,
// never aliased, so a Result stays valid after the machine is Reset and
// reused. Under Config.LiteResult the unconditional summary maps are
// skipped; in a run that records no starts, so are the start times.
func (m *Machine) fill(res *Result, now int64) {
	res.EndTick = now
	res.Events = m.events
	lite := m.cfg.LiteResult
	if !lite {
		res.Fired = make(map[string]int64, len(m.actors))
		res.Finished = make(map[string]int64, len(m.actors))
		res.BusyTicks = make(map[string]int64, len(m.actors))
		res.Starts = make(map[string][]int64)
		res.Transfers = make(map[string][]TransferRec)
		res.Occupancy = make(map[string][]OccupancySample)
		res.Edges = make(map[string]EdgeStats, len(m.edgeList))
	}
	for _, a := range m.actors {
		if !lite {
			res.Fired[a.name] = a.started
			res.Finished[a.name] = a.finished
			res.BusyTicks[a.name] = a.busyTicks
		}
		if a.record && m.recStarts {
			if res.Starts == nil {
				res.Starts = make(map[string][]int64)
			}
			res.Starts[a.name] = append([]int64(nil), a.starts...)
		}
	}
	for _, es := range m.edgeList {
		if !lite {
			res.Edges[es.name] = EdgeStats{
				Produced: es.produced,
				Consumed: es.consumed,
				Peak:     es.peak,
				Min:      es.min,
			}
		}
		if es.record {
			if res.Transfers == nil {
				res.Transfers = make(map[string][]TransferRec)
			}
			res.Transfers[es.name] = append([]TransferRec(nil), es.recs...)
		}
		if es.recordOcc {
			if res.Occupancy == nil {
				res.Occupancy = make(map[string][]OccupancySample)
			}
			res.Occupancy[es.name] = append([]OccupancySample(nil), es.occ...)
		}
	}
}
