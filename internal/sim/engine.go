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
// integer; only data-dependent ports call their quanta.Sequence. Run is the
// convenience wrapper for one-shot use.
package sim

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"time"

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
	// Context, if non-nil, cancels a Run cooperatively: the engine
	// checks it every budgetCheckInterval events and aborts with an
	// error satisfying errors.Is(err, budget.ErrCanceled).
	Context context.Context
	// Deadline, if non-zero, bounds each Run in wall-clock time; the
	// engine checks it alongside Context and aborts with an error
	// satisfying errors.Is(err, budget.ErrBudgetExceeded).
	Deadline time.Time
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
	// Checkpoints is the number of run snapshots the machine retains for
	// warm-starting (0 disables). With N > 0 slots, Run checkpoints its
	// state every checkpointEvery events into a reusable arena —
	// thinning logarithmically once the slots fill, so the retained
	// checkpoints always span the whole run — and ResetWarm can resume
	// the next run from the newest checkpoint the changed initial tokens
	// cannot have affected, instead of replaying from tick 0.
	// Checkpointing is silently disabled under Validate, CheckInvariants
	// or StartShift (a warm start skips re-executing the prefix, so
	// per-event prefix checks and enabling-time-dependent shifts could
	// diverge from a cold run).
	Checkpoints int
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
// re-checks the run's Context and Deadline. A power of two so the check is
// a mask, not a division; small enough that cancellation is honoured within
// a fraction of a millisecond of simulation work, large enough that the
// time.Now call never shows up in profiles.
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

// newPort builds a port over seq, hoisting a quanta.Constant value out of
// the interface. A quanta.Checked wrapper is never hoisted, so under
// Config.Validate every transfer is still checked.
func newPort(es *edgeState, seq quanta.Sequence) portRef {
	if v, ok := quanta.ConstantValue(seq); ok {
		return portRef{edge: es, q: v}
	}
	return portRef{edge: es, seq: seq}
}

type actorState struct {
	idx         int
	name        string
	mode        Mode
	rhoTicks    int64
	exec        func(k int64) ratio.Rat
	startShift  func(k int64) ratio.Rat
	offsetT     int64
	baseOffsetT int64 // compiled offset; Reset reverts SetPeriodicOffsetTicks to it
	periodT     int64
	started     int64
	finished    int64
	busyTicks   int64 // accumulated execution time
	busyUntil   int64 // earliest tick the next firing may start
	readyAt     int64 // ASAP with StartShift: tick the armed firing may start
	armedFor    int64 // ASAP with StartShift: firing index the timer is armed for, -1 none
	in          []portRef
	out         []portRef
	record      bool
	starts      []int64
}

type edgeState struct {
	name     string
	initial  int64 // default token count at tick 0
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

// sample appends an occupancy sample, merging same-tick updates.
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
	q = q[:n]
	i := 0
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
	*h = q
	return top
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
	byName     map[string]*actorState
	edgeList   []*edgeState
	edges      map[string]*edgeState
	eq         eventHeap
	seq        int64
	events     int64
	maxEvents  int64
	stop       *actorState
	bud        *budget.Budget
	invariants []resolvedInvariant
	dirty      []uint64 // bitset by actor index: ASAP actors to re-examine at the current tick
	ran        bool     // a Run consumed the state; Reset required
	resumed    bool     // next Run resumes from a restored checkpoint

	baseFirings int64   // compiled Stop.Firings; Reset reverts SetStopFirings to it
	runTokens   []int64 // per edgeList index: initial tokens of the pending/current run
	// epoch counts resets. A reset truncates the recording buffers, so a
	// Snapshot from an earlier epoch may reference recording prefixes
	// that no longer exist; Restore rejects it.
	epoch int64

	// Warm-start state (all inert when ckptSlots == 0).
	ckptSlots  int         // retained checkpoint slots; 0 disables
	ckpts      []*Snapshot // checkpoints of the last/current run, ascending by events
	ckptFree   []*Snapshot // retired snapshot arenas for reuse
	ckptArena  []Snapshot  // checkpoint slots never handed out yet
	ckptEvery  int64       // current checkpoint interval in events
	ckptNext   int64       // event count at which the next checkpoint is taken
	ckptTokens []int64     // initial tokens of the run the checkpoints describe
	desScratch []int64     // ResetWarm scratch: desired tokens of the next run
	ckptStop   int64       // Stop.Firings the checkpoints were taken under
	ckptOffs   []int64     // per-actor offsetT the checkpoints were taken under
	resumeTick int64       // tick of the restored checkpoint
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
	g := cfg.Graph
	if g == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cfg.Stop.Actor == "" || cfg.Stop.Firings <= 0 {
		return nil, fmt.Errorf("sim: stop condition requires an actor and a positive firing count")
	}
	if g.Actor(cfg.Stop.Actor) == nil {
		return nil, fmt.Errorf("sim: stop actor %q not in graph", cfg.Stop.Actor)
	}

	// Collect every rational time the run will see to build the base.
	times := append([]ratio.Rat(nil), cfg.ExtraTimes...)
	for _, a := range g.Actors() {
		times = append(times, a.Rho)
		if ac, ok := cfg.Actors[a.Name]; ok {
			if ac.Mode == Periodic {
				times = append(times, ac.Offset, ac.Period)
			}
		}
	}
	base, err := NewTimeBase(times...)
	if err != nil {
		return nil, err
	}

	m := &Machine{
		cfg:       cfg,
		base:      base,
		byName:    make(map[string]*actorState),
		edges:     make(map[string]*edgeState),
		maxEvents: cfg.MaxEvents,
		bud:       budget.At(cfg.Context, cfg.Deadline),
	}
	if m.maxEvents <= 0 {
		m.maxEvents = defaultMaxEvents
	}

	recordStart := make(map[string]bool, len(cfg.RecordStarts))
	for _, n := range cfg.RecordStarts {
		if g.Actor(n) == nil {
			return nil, fmt.Errorf("sim: RecordStarts actor %q not in graph", n)
		}
		recordStart[n] = true
	}
	recordEdge := make(map[string]bool, len(cfg.RecordTransfers))
	for _, n := range cfg.RecordTransfers {
		if g.EdgeByName(n) == nil {
			return nil, fmt.Errorf("sim: RecordTransfers edge %q not in graph", n)
		}
		recordEdge[n] = true
	}
	recordOcc := make(map[string]bool, len(cfg.RecordOccupancy))
	for _, n := range cfg.RecordOccupancy {
		if g.EdgeByName(n) == nil {
			return nil, fmt.Errorf("sim: RecordOccupancy edge %q not in graph", n)
		}
		recordOcc[n] = true
	}

	for _, ge := range g.Edges() {
		es := &edgeState{
			name:      ge.Name,
			initial:   ge.Initial,
			record:    recordEdge[ge.Name],
			recordOcc: recordOcc[ge.Name],
		}
		m.edgeList = append(m.edgeList, es)
		m.edges[ge.Name] = es
	}

	for i, ga := range g.Actors() {
		rhoT, err := base.Ticks(ga.Rho)
		if err != nil {
			return nil, fmt.Errorf("sim: actor %s: %w", ga.Name, err)
		}
		as := &actorState{
			idx:      i,
			name:     ga.Name,
			rhoTicks: rhoT,
			record:   recordStart[ga.Name],
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
				if as.offsetT, err = base.Ticks(ac.Offset); err != nil {
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
		as.baseOffsetT = as.offsetT
		m.actors = append(m.actors, as)
		m.byName[ga.Name] = as
	}

	for _, ge := range g.Edges() {
		eq := cfg.Quanta[ge.Name]
		prod := eq.Prod
		if prod == nil {
			if !ge.Prod.IsConstant() {
				return nil, fmt.Errorf("sim: edge %s has variable production quanta %v but no sequence configured", ge.Name, ge.Prod)
			}
			prod = quanta.Constant(ge.Prod.Max())
		}
		cons := eq.Cons
		if cons == nil {
			if !ge.Cons.IsConstant() {
				return nil, fmt.Errorf("sim: edge %s has variable consumption quanta %v but no sequence configured", ge.Name, ge.Cons)
			}
			cons = quanta.Constant(ge.Cons.Max())
		}
		if cfg.Validate {
			prod = quanta.Checked(prod, ge.Prod)
			cons = quanta.Checked(cons, ge.Cons)
		}
		es := m.edges[ge.Name]
		src := m.byName[ge.Src]
		dst := m.byName[ge.Dst]
		es.consumer = dst.idx
		src.out = append(src.out, newPort(es, prod))
		dst.in = append(dst.in, newPort(es, cons))
	}

	if cfg.CheckInvariants {
		for _, inv := range cfg.Invariants {
			ri := resolvedInvariant{name: inv.Name, max: inv.Max}
			for _, name := range inv.Edges {
				es, ok := m.edges[name]
				if !ok {
					return nil, fmt.Errorf("sim: invariant %s references unknown edge %q", inv.Name, name)
				}
				ri.edges = append(ri.edges, es)
			}
			m.invariants = append(m.invariants, ri)
		}
	}

	m.stop = m.byName[cfg.Stop.Actor]
	m.baseFirings = cfg.Stop.Firings
	// The calendar holds at most one finish per actor, one pending
	// periodic attempt per periodic actor and one armed shifted start per
	// shifted actor; preallocate past that so the steady state never
	// grows the backing array.
	m.eq = make(eventHeap, 0, 3*len(m.actors)+8)
	m.dirty = make([]uint64, (len(m.actors)+63)/64)
	if m.stop.record {
		// The stop actor starts at most Stop.Firings firings per run;
		// presize its recording so the first run does not grow it by
		// doubling. The cap keeps a long horizon from reserving memory
		// that a run stopped early by an underrun never uses.
		m.stop.starts = make([]int64, 0, min(cfg.Stop.Firings, 1<<16))
	}
	m.runTokens = make([]int64, len(m.edgeList))
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
	if m.ckptSlots > 0 {
		m.ckptTokens = make([]int64, len(m.edgeList))
		m.desScratch = make([]int64, len(m.edgeList))
	}
	if err := m.Reset(nil); err != nil {
		return nil, err
	}
	return m, nil
}

// Base returns the machine's resolved time base.
func (m *Machine) Base() TimeBase { return m.base }

// setInvariantMax repoints the bound of a named token invariant, if it was
// compiled in (invariants are only resolved under CheckInvariants). The
// verifier uses this to keep buffer invariants in step with per-probe
// capacity overrides.
func (m *Machine) setInvariantMax(name string, max int64) {
	for i := range m.invariants {
		if m.invariants[i].name == name {
			m.invariants[i].max = max
		}
	}
}

// Reset rewinds the machine to tick 0 so it can Run again, restoring the
// exact state Compile left it in plus the given overrides: initialTokens
// optionally overrides the initial token count of the named edges for the
// next run (capacity probes override the space edges); edges without an
// entry revert to the graph's initial tokens; the SetStopFirings and
// SetPeriodicOffsetTicks overrides revert to the compiled configuration;
// the retained checkpoints of the previous run are discarded. No compiled
// structure is rebuilt and no per-edge state is reallocated.
//
// ResetWarm is the variant that keeps the knob overrides and the
// checkpoints, so the next run can resume mid-schedule.
func (m *Machine) Reset(initialTokens map[string]int64) error {
	m.cfg.Stop.Firings = m.baseFirings
	for _, a := range m.actors {
		a.offsetT = a.baseOffsetT
	}
	return m.resetTokens(initialTokens)
}

// resetTokens rewinds all per-run state (tokens, counters, recordings, the
// event calendar) without touching the SetStopFirings and
// SetPeriodicOffsetTicks overrides. It invalidates the retained
// checkpoints: they describe a run whose recordings are truncated here.
func (m *Machine) resetTokens(initialTokens map[string]int64) error {
	for name := range initialTokens {
		if _, ok := m.edges[name]; !ok {
			return fmt.Errorf("sim: Reset: unknown edge %q", name)
		}
	}
	for i, es := range m.edgeList {
		tok := es.initial
		if v, ok := initialTokens[es.name]; ok {
			if v < 0 {
				return fmt.Errorf("sim: Reset: edge %q: negative initial tokens %d", es.name, v)
			}
			tok = v
		}
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
	}
	m.eq = m.eq[:0]
	m.seq = 0
	m.events = 0
	clear(m.dirty)
	m.ran = false
	m.resumed = false
	m.epoch++
	m.dropCheckpoints(0)
	return nil
}

// SetPeriodicOffsetTicks repoints the start offset of a compiled Periodic
// actor, in ticks of the machine's time base. It takes effect at the next
// Run; Reset reverts it to the compiled offset, ResetWarm keeps it. The
// throughput verifier uses this to try several offsets on one compiled
// machine.
func (m *Machine) SetPeriodicOffsetTicks(actor string, ticks int64) error {
	a := m.byName[actor]
	if a == nil {
		return fmt.Errorf("sim: SetPeriodicOffsetTicks: unknown actor %q", actor)
	}
	if a.mode != Periodic {
		return fmt.Errorf("sim: SetPeriodicOffsetTicks: actor %q is not periodic", actor)
	}
	if ticks < 0 {
		return fmt.Errorf("sim: SetPeriodicOffsetTicks: negative offset %d", ticks)
	}
	a.offsetT = ticks
	return nil
}

// SetStopFirings repoints the completion firing count of the machine's stop
// actor. It takes effect at the next Run; Reset reverts it to the compiled
// count, ResetWarm keeps it. The exact-witness replayer uses this to replay
// differently sized witnesses on one compiled machine.
func (m *Machine) SetStopFirings(firings int64) error {
	if firings <= 0 {
		return fmt.Errorf("sim: SetStopFirings: firings must be positive, got %d", firings)
	}
	m.cfg.Stop.Firings = firings
	return nil
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
	if a.record {
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

// Run executes the machine from its reset state to completion. After a run
// the machine must be Reset (or ResetWarm) before running again. A run
// resumed from a ResetWarm checkpoint continues mid-schedule and produces
// results bit-identical to a cold run of the same configuration, with
// Result.Events still counting from tick 0 (replayed prefix included).
func (m *Machine) Run() (*Result, error) {
	if m.ran {
		return nil, fmt.Errorf("sim: Machine.Run called again without Reset")
	}
	m.ran = true
	res := &Result{Base: m.base}

	now := int64(0)
	if m.resumed {
		// State, calendar and counters were restored by ResetWarm; the
		// seeding below already happened in the replayed prefix.
		m.resumed = false
		now = m.resumeTick
	} else {
		if m.ckptSlots > 0 {
			m.beginCheckpoints()
		}
		// Seed periodic actors' first start attempts, and give every ASAP
		// actor its initial start attempt at tick 0.
		for _, a := range m.actors {
			if a.mode == Periodic {
				m.push(a.offsetT, evPeriodicStart, a.idx)
			} else {
				m.markDirty(a.idx)
			}
		}
		if err := m.startDirty(0); err != nil {
			return nil, err
		}
	}
	for len(m.eq) > 0 && m.stop.finished < m.cfg.Stop.Firings {
		if m.events >= m.maxEvents {
			res.Outcome = LimitExceeded
			m.fill(res, now)
			return res, nil
		}
		if m.bud != nil && m.events&(budgetCheckInterval-1) == 0 {
			if err := m.bud.Err(); err != nil {
				return nil, fmt.Errorf("sim: run aborted after %d events at tick %d: %w", m.events, now, err)
			}
		}
		ev := m.eq.pop()
		m.events++
		now = ev.tick
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
				res.Outcome = Underrun
				res.Underrun = &UnderrunInfo{Actor: a.name, Firing: k, Tick: now}
				m.fill(res, now)
				return res, nil
			}
			if ok, p, need := a.enabled(); !ok {
				res.Outcome = Underrun
				res.Underrun = &UnderrunInfo{
					Actor: a.name, Firing: k, Tick: now,
					Edge: p.edge.name, Have: p.edge.tokens, Need: need,
				}
				m.fill(res, now)
				return res, nil
			}
			if err := m.start(a, now); err != nil {
				return nil, err
			}
			if a.started < m.cfg.Stop.Firings || a != m.stop {
				m.push(a.offsetT+a.started*a.periodT, evPeriodicStart, a.idx)
			}
		}
		if m.cfg.CheckInvariants {
			if err := m.checkInvariants(now); err != nil {
				return nil, err
			}
		}
		// Drain all events at the same tick so token releases at `now`
		// are visible before ASAP starts at `now`.
		if len(m.eq) > 0 && m.eq[0].tick == now {
			continue
		}
		if err := m.startDirty(now); err != nil {
			return nil, err
		}
		// Checkpoint at quiescent points only: every same-tick event is
		// drained and the dirty list is empty, so the snapshot is a state
		// a cold run passes through between ticks.
		if m.ckptSlots > 0 && m.events >= m.ckptNext {
			m.takeCheckpoint(now)
		}
	}

	if m.stop.finished >= m.cfg.Stop.Firings {
		res.Outcome = Completed
	} else {
		res.Outcome = Deadlocked
		dl := &DeadlockInfo{Tick: now}
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
	m.fill(res, now)
	return res, nil
}

// fill copies machine state into the result. Recorded series are copied,
// never aliased, so a Result stays valid after the machine is Reset and
// reused. Under Config.LiteResult the unconditional summary maps are
// skipped.
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
		if a.record {
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
