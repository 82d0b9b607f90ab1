// Package serve is the capacity-analysis service: an http.Handler that
// accepts task-graph documents (JSON or text, see internal/graphio) and
// returns analytic sizings, empirical minimizations, period sweeps and
// degradation curves.
//
// The package is engineered around three load-bearing properties:
//
//   - Zero-allocation steady state. A request whose exact bytes were
//     answered before is served from a bounded response cache keyed by a
//     [32]byte sha256 of (method, path, query, body); the lookup path uses
//     pooled request contexts with retained-capacity scratch buffers and
//     performs no heap allocation (pinned by BenchmarkServeCacheHit and
//     the //vrdf:noalloc annotations).
//
//   - Request coalescing. Cache misses are keyed a second time by
//     requestKey: the canonical graph fingerprint (probecache.GraphKey)
//     plus the endpoint, the policy, the constraint's task and period and
//     the endpoint's parsed query parameters — every input a response
//     depends on. N concurrent requests for the same problem — even with
//     textually different documents — run ONE computation, and every
//     waiter receives the body its own request would have computed.
//     Minimize verdicts land in the probecache store, so even after the
//     response cache evicts, a repeat minimisation replays from the
//     feasibility frontier instead of simulating.
//
//   - Bounded everything. Documents are parsed under graphio.Limits,
//     computations run on a fixed worker pool with a bounded queue (a full
//     queue sheds load with 503 instead of buffering), each computation
//     runs under a context deadline that reaches the running simulation,
//     the response and compiled-problem caches evict FIFO, and the access
//     log is a lock-free ring that drops entries under pressure rather
//     than blocking the request path. The verdict store (Config.Store) is
//     the exception: it keeps one frontier per distinct minimisation
//     fingerprint for the server's lifetime.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/faults"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/parallel"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// Config tunes a Server. The zero value selects production defaults; see
// the field comments for each.
type Config struct {
	// Limits bounds every request document (zero value: graphio.DefaultLimits).
	// Limits.MaxBytes also caps the request body before parsing.
	Limits graphio.Limits
	// Workers is the number of analysis worker goroutines (≤0: GOMAXPROCS).
	Workers int
	// Queue bounds jobs waiting for a worker; a full queue answers 503 (≤0: 64).
	Queue int
	// RequestTimeout is the wall-clock budget per computation, a deadline
	// on the context its probes and sweeps check (0: 30s; negative:
	// unlimited).
	RequestTimeout time.Duration
	// Firings is the default simulation horizon for minimize and
	// degradation requests (≤0: 1000); MaxFirings caps the per-request
	// override (≤0: 200000).
	Firings    int64
	MaxFirings int64
	// MaxEvents caps simulated events per probe run (0: engine default).
	// A minimization whose probe hits the cap answers 504, like any
	// other exhausted budget.
	MaxEvents int64
	// MaxSweepPeriods caps the periods of one sweep request (≤0: 64).
	MaxSweepPeriods int
	// ResponseCacheSize bounds the rendered-response cache (≤0: 1024).
	ResponseCacheSize int
	// ProblemCacheSize bounds the compiled-problem cache (≤0: 64).
	ProblemCacheSize int
	// LogBuffer is the access-log ring size in entries, rounded up to a
	// power of two (≤0: 1024); LogInterval is the drain cadence (≤0: 50ms).
	LogBuffer   int
	LogInterval time.Duration
	// AccessLog receives drained access-log lines (nil: entries are
	// drained and discarded; drops are still counted either way).
	AccessLog io.Writer
	// Store holds the capacity frontiers of minimize requests across
	// requests, and across processes when it persists to a directory
	// (nil: a private in-memory store per Server).
	Store *probecache.Store

	// computeHook, when set, runs on the worker goroutine right before a
	// flight leader computes. Test seam for pinning coalescing behaviour.
	computeHook func()
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Limits == (graphio.Limits{}) {
		c.Limits = graphio.DefaultLimits
	}
	c.Workers = parallel.Workers(c.Workers)
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Firings <= 0 {
		c.Firings = 1000
	}
	if c.MaxFirings <= 0 {
		c.MaxFirings = 200_000
	}
	if c.MaxSweepPeriods <= 0 {
		c.MaxSweepPeriods = 64
	}
	if c.ResponseCacheSize <= 0 {
		c.ResponseCacheSize = 1024
	}
	if c.ProblemCacheSize <= 0 {
		c.ProblemCacheSize = 64
	}
	if c.LogBuffer <= 0 {
		c.LogBuffer = 1024
	}
	if c.LogInterval <= 0 {
		c.LogInterval = 50 * time.Millisecond
	}
	if c.Store == nil {
		c.Store = probecache.NewStore("")
	}
	return c
}

// Endpoint ids for the fixed-size access-log entries.
const (
	pathSize = int32(iota)
	pathMinimize
	pathSweep
	pathDegradation
	pathUnknown // any other path: answered 404
)

// statusClientClosed is the non-standard (nginx-convention) status
// recorded when the client hung up before its flight finished.
const statusClientClosed = 499

// ctJSON is the pre-built Content-Type value; assigning it into a header
// map avoids the slice allocation of Header.Set on the hot path.
var ctJSON = []string{"application/json"}

// Server is the capacity-analysis service. Create with New, serve with
// net/http (it implements http.Handler), stop with Close.
type Server struct {
	cfg      Config
	resp     *fifoCache[[32]byte, *respEntry]
	flights  *flightGroup
	pool     *workerPool
	problems *fifoCache[string, *minimize.Problem]
	ring     *ring
	// responses counts every answer except /healthz and /statsz by its
	// kind (kindHit ...); rejected counts the flights a full worker
	// queue shed, whose requests are answered as errors; effort counts
	// the simulation work of minimize probes and degradation sweeps.
	responses [numKinds]atomic.Int64
	rejected  atomic.Int64
	effort    sim.Effort
	baseCtx   context.Context
	cancel    context.CancelFunc
	logDone   chan struct{}
}

// New returns a started server: the worker pool and the access-log drain
// goroutine are running. Callers must Close it to release them.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		resp:     newFIFOCache[[32]byte, *respEntry](cfg.ResponseCacheSize),
		flights:  newFlightGroup(),
		problems: newFIFOCache[string, *minimize.Problem](cfg.ProblemCacheSize),
		ring:     newRing(cfg.LogBuffer),
		baseCtx:  baseCtx,
		cancel:   cancel,
		logDone:  make(chan struct{}),
	}
	s.pool = newWorkerPool(baseCtx, cfg.Workers, cfg.Queue)
	go s.drainLog()
	return s
}

// Close stops the workers and the log drain, flushing buffered access-log
// entries. In-flight requests waiting on a computation fail with 503.
func (s *Server) Close() {
	s.cancel()
	s.pool.wait()
	<-s.logDone
}

// reqCtx is the pooled per-request state: the body buffer, the key
// material scratch and the access-log entry, all with retained capacity so
// a steady-state request allocates nothing.
type reqCtx struct {
	body    []byte
	scratch []byte
	key     [32]byte
	entry   logEntry
}

var reqPool = sync.Pool{New: func() any {
	return &reqCtx{body: make([]byte, 0, 4096), scratch: make([]byte, 0, 4096)}
}}

// readBody reads the request body into the pooled buffer, rejecting
// bodies over max bytes with a graphio.LimitError before buffering more.
//
//vrdf:noalloc
func (c *reqCtx) readBody(r io.Reader, max int) error {
	c.body = c.body[:0]
	//vrdf:unbudgeted(bounded by the request-body byte limit checked every iteration)
	for {
		if len(c.body) == cap(c.body) {
			//vrdf:allocok(grows to the body size once; the capacity is retained across requests by the pool)
			c.body = append(c.body, 0)[:len(c.body)]
		}
		n, err := r.Read(c.body[len(c.body):cap(c.body)])
		c.body = c.body[:len(c.body)+n]
		if len(c.body) > max {
			//vrdf:allocok(error path: the request is already rejected)
			return &graphio.LimitError{What: "input bytes", Limit: max, Got: len(c.body)}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// hashKey fingerprints the raw request (method, path, query, body) into
// c.key. NUL separators keep distinct field splits from colliding.
//
//vrdf:noalloc
func (c *reqCtx) hashKey(method, path, query string) {
	b := c.scratch[:0]
	//vrdf:allocok(appends into pooled scratch whose capacity is retained across requests)
	b = append(append(append(b, method...), 0), path...)
	//vrdf:allocok(appends into pooled scratch whose capacity is retained across requests)
	b = append(append(append(b, 0), query...), 0)
	//vrdf:allocok(appends into pooled scratch whose capacity is retained across requests)
	b = append(b, c.body...)
	c.scratch = b
	c.key = sha256.Sum256(b)
}

// writeEntry writes a rendered response. Hot path: the pre-built
// Content-Type slice is assigned directly into the header map (Header.Set
// would allocate a fresh []string per call).
//
//vrdf:noalloc
func (s *Server) writeEntry(w http.ResponseWriter, e *respEntry) {
	h := w.Header()
	h["Content-Type"] = ctJSON
	w.WriteHeader(e.status)
	// A short write means the client went away; there is nobody to tell.
	_, _ = w.Write(e.body)
}

// respond counts the response under its kind, writes it and logs it.
// Counting comes first, so a client that has its answer also finds it on
// /statsz.
//
//vrdf:noalloc
func (s *Server) respond(w http.ResponseWriter, c *reqCtx, pathID int32, e *respEntry, kind uint8, start time.Time) {
	s.responses[kind].Add(1)
	s.writeEntry(w, e)
	s.log(c, pathID, int32(e.status), kind, start)
}

// log records the request in the access-log ring; a full ring counts a
// drop instead of blocking.
//
//vrdf:noalloc
func (s *Server) log(c *reqCtx, path, status int32, kind uint8, start time.Time) {
	e := &c.entry
	e.when = start.UnixNano()
	e.dur = int64(time.Since(start))
	e.status = status
	e.path = path
	e.kind = kind
	copy(e.key[:], c.key[:8])
	s.ring.put(e)
}

// ServeHTTP routes the request. The cache-hit path — pooled context, body
// read, hash, cache probe, write, log — is annotated allocation-free end
// to end; everything after a miss may allocate freely.
//
//vrdf:noalloc
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var pathID int32
	switch r.URL.Path {
	case "/v1/size":
		pathID = pathSize
	case "/v1/minimize":
		pathID = pathMinimize
	case "/v1/sweep":
		pathID = pathSweep
	case "/v1/degradation":
		pathID = pathDegradation
	case "/healthz":
		s.serveHealthz(w)
		return
	case "/statsz":
		s.serveStatsz(w)
		return
	default:
		pathID = pathUnknown
	}
	// Every counted response is logged from a pooled context; its key
	// stays zero until the body is hashed.
	c := reqPool.Get().(*reqCtx)
	//vrdf:allocok(pointer into any: interface conversion of a pointer does not allocate)
	defer reqPool.Put(c)
	c.key = [32]byte{}
	if pathID == pathUnknown {
		s.failRequest(w, c, pathID, start, errNotFound)
		return
	}
	if r.Method != http.MethodPost {
		s.failRequest(w, c, pathID, start, errNotPost)
		return
	}
	if err := c.readBody(r.Body, s.cfg.Limits.MaxBytes); err != nil {
		s.failRequest(w, c, pathID, start, err)
		return
	}
	c.hashKey(r.Method, r.URL.Path, r.URL.RawQuery)
	if e, ok := s.resp.get(c.key); ok {
		s.respond(w, c, pathID, e, kindHit, start)
		return
	}
	s.serveMiss(w, r, c, pathID, start)
}

// serveMiss handles a response-cache miss: parse, fingerprint, coalesce,
// compute on the pool, cache and answer. Allocation is unconstrained here.
func (s *Server) serveMiss(w http.ResponseWriter, r *http.Request, c *reqCtx, pathID int32, start time.Time) {
	g, con, err := graphio.DecodeAnyLimited(c.body, s.cfg.Limits)
	if err != nil {
		if !graphio.IsLimit(err) {
			err = badReq(err)
		}
		s.failRequest(w, c, pathID, start, err)
		return
	}
	if con == nil {
		s.failRequest(w, c, pathID, start, badReqf("document has no throughput constraint"))
		return
	}
	spec, err := s.buildSpec(pathID, g, con, r.URL.Query())
	if err != nil {
		s.failRequest(w, c, pathID, start, err)
		return
	}
	call, leader := s.flights.join(spec.key)
	kind := kindCoalesced
	if leader {
		kind = kindCompute
		job := func() {
			e, err := s.compute(spec)
			s.flights.finish(spec.key, call, e, err)
		}
		if err := s.pool.submit(job); err != nil {
			s.rejected.Add(1)
			s.flights.finish(spec.key, call, nil, err)
		}
	}
	select {
	case <-call.done:
	case <-r.Context().Done():
		s.failRequest(w, c, pathID, start, budget.Classify(r.Context().Err()))
		return
	case <-s.baseCtx.Done():
		s.failRequest(w, c, pathID, start, errBusy)
		return
	}
	if call.err != nil {
		s.failRequest(w, c, pathID, start, call.err)
		return
	}
	s.resp.put(c.key, call.entry)
	s.respond(w, c, pathID, call.entry, kind, start)
}

// compute runs one flight's computation on a worker. It is the service's
// one panic boundary: a panicking computation becomes an error that maps
// to 500 for the leader and every coalesced waiter alike, and the worker
// lives on. The panic value reaches the response; the stack does not.
func (s *Server) compute(spec *jobSpec) (e *respEntry, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("serve: computation panicked: %v", r)
		}
	}()
	if s.cfg.computeHook != nil {
		s.cfg.computeHook()
	}
	return s.render(spec)
}

// render runs a computation under the per-request wall-clock budget and
// encodes the response it will share with every coalesced waiter. The
// budget hangs off the server's base context, NOT the leader's request
// context: a leader client hanging up must not starve the waiters that
// coalesced onto its flight.
func (s *Server) render(spec *jobSpec) (*respEntry, error) {
	ctx := s.baseCtx
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	v, err := spec.run(ctx)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &respEntry{status: http.StatusOK, body: append(body, '\n')}, nil
}

// jobSpec is one prepared computation: the coalescing key and the closure
// that produces the (JSON-encodable) response value.
type jobSpec struct {
	key string
	run func(ctx context.Context) (any, error)
}

// requestKey is the service's one coalescing-key recipe; it also keys the
// compiled-problem cache. It covers every input a response depends on:
// the canonical graph (probecache.GraphKey, blind to comments, field and
// buffer order and the document encoding), the endpoint, the policy, the
// constraint's task, its period except for /v1/sweep, which answers for
// the periods of its query instead, and params, the endpoint's parsed
// query values. Two requests share a flight, and so a body, only when all
// of these agree.
func requestKey(g *taskgraph.Graph, con *taskgraph.Constraint, pathID int32, policy capacity.Policy, params ...string) string {
	parts := []string{"serve-" + pathNames[pathID], "policy=" + policy.String(), "task=" + con.Task}
	if pathID != pathSweep {
		parts = append(parts, "period="+con.Period.String())
	}
	return probecache.GraphKey(g, append(parts, params...)...)
}

// buildSpec validates the per-endpoint parameters and prepares the
// computation. Parameters parse first, so a parameter error is reported
// before an analysis error. Cheap, pure analytic work (capacity.Compute)
// then runs inline — it validates the document shape before a worker slot
// is taken; simulation-backed work goes into the returned closure, which
// reads res and key once both are set.
func (s *Server) buildSpec(pathID int32, g *taskgraph.Graph, con *taskgraph.Constraint, q url.Values) (*jobSpec, error) {
	policy, err := parsePolicy(q)
	if err != nil {
		return nil, err
	}
	var (
		res    *capacity.Result
		key    string
		params []string
		run    func(ctx context.Context) (any, error)
	)
	switch pathID {
	case pathSize:
		run = func(context.Context) (any, error) {
			return sizeResponseOf(res, policy), nil
		}

	case pathMinimize:
		firings, seed, err := s.horizonParams(q)
		if err != nil {
			return nil, err
		}
		params = horizonParts(firings, seed)
		run = func(ctx context.Context) (any, error) {
			resp := minimizeResponse{Valid: res.Valid, Policy: policy.String(), Task: con.Task,
				Period: con.Period.String(), Firings: firings, Seed: seed, Diagnostics: res.Diagnostics}
			if !res.Valid {
				return resp, nil
			}
			// A repeat request reuses the compiled problem and its
			// verifiers; verdicts outlive an evicted problem in the store.
			prob, ok := s.problems.get(key)
			if !ok {
				sized, err := capacity.Sized(g, res)
				if err != nil {
					return nil, err
				}
				prob, err = minimize.NewProblem(g, sized, res, *con, firings,
					sim.UniformWorkloads(sized, seed), fmt.Sprintf("uniform:seed=%d", seed), s.cfg.Store,
					minimize.Options{MaxEvents: s.cfg.MaxEvents, Stats: &s.effort})
				if err != nil {
					return nil, err
				}
				s.problems.put(key, prob)
			}
			mres, err := prob.Search(ctx)
			if err != nil {
				return nil, err
			}
			// Probe-effort counters (cache hits, events simulated)
			// deliberately stay out of the body: cold, warm and coalesced
			// answers to the same problem must be byte-identical. Effort
			// is visible on /statsz.
			for _, name := range prob.Buffers {
				resp.Buffers = append(resp.Buffers, minimizeBuffer{
					Name: name, Analytic: prob.Upper[name], Minimal: mres.Caps[name],
				})
				resp.AnalyticTotal += prob.Upper[name]
				resp.MinimalTotal += mres.Caps[name]
			}
			return resp, nil
		}

	case pathSweep:
		periods, joined, err := s.sweepParams(q)
		if err != nil {
			return nil, err
		}
		params = []string{"periods=" + joined}
		run = func(ctx context.Context) (any, error) {
			pts, err := capacity.SweepPeriodsOpt(g, con.Task, periods, policy, capacity.SweepOptions{Context: ctx})
			switch {
			case errors.Is(err, budget.ErrBudgetExceeded) || errors.Is(err, budget.ErrCanceled):
				return nil, err
			case err != nil:
				// The analysis failed at one of the periods, as Compute
				// fails on a document: a typed 400, not a 500.
				return nil, badReq(err)
			}
			return sweepResponseOf(con.Task, policy, pts), nil
		}

	case pathDegradation:
		firings, seed, err := s.horizonParams(q)
		if err != nil {
			return nil, err
		}
		maxFactor, err := parseFactor(q)
		if err != nil {
			return nil, err
		}
		params = append([]string{"max=" + maxFactor.String()}, horizonParts(firings, seed)...)
		run = func(ctx context.Context) (any, error) {
			if !res.Valid {
				return degradationResponse{Valid: false, Diagnostics: res.Diagnostics}, nil
			}
			sized, err := capacity.Sized(g, res)
			if err != nil {
				return nil, err
			}
			curve, err := faults.Sweep(faults.DegradationConfig{
				Graph:      sized,
				Constraint: *con,
				Factors:    faults.FactorRange(ratio.FromInt(1), maxFactor, faults.DegradationPoints),
				Seed:       uint64(seed),
				Firings:    firings,
				Workers:    1,
				Context:    ctx,
				Effort:     &s.effort,
			})
			if err != nil {
				return nil, err
			}
			return degradationResponseOf(curve), nil
		}

	default:
		return nil, badReqf("unknown endpoint id %d", pathID)
	}
	if res, err = capacity.Compute(g, *con, policy); err != nil {
		return nil, badReq(err)
	}
	key = requestKey(g, con, pathID, policy, params...)
	return &jobSpec{key: key, run: run}, nil
}

// Parameter parsing.

func parsePolicy(q url.Values) (capacity.Policy, error) {
	name := q.Get("policy")
	if name == "" {
		name = "equation4"
	}
	p, err := capacity.ParsePolicy(name)
	if err != nil {
		return p, badReq(err)
	}
	return p, nil
}

// horizonParams parses the firings/seed pair shared by minimize and
// degradation, enforcing the per-request firing cap.
func (s *Server) horizonParams(q url.Values) (firings, seed int64, err error) {
	firings, err = queryInt64(q, "firings", s.cfg.Firings)
	if err != nil {
		return 0, 0, err
	}
	if firings <= 0 || firings > s.cfg.MaxFirings {
		return 0, 0, badReqf("firings must be in 1..%d, got %d", s.cfg.MaxFirings, firings)
	}
	seed, err = queryInt64(q, "seed", 1)
	if err != nil {
		return 0, 0, err
	}
	return firings, seed, nil
}

// horizonParts renders a parsed firings/seed pair as requestKey params.
func horizonParts(firings, seed int64) []string {
	return []string{"firings=" + strconv.FormatInt(firings, 10), "seed=" + strconv.FormatInt(seed, 10)}
}

// sweepParams parses the comma-separated period list, returning both the
// parsed periods and their canonical join (the fingerprint part).
func (s *Server) sweepParams(q url.Values) ([]ratio.Rat, string, error) {
	raw := q.Get("periods")
	if raw == "" {
		return nil, "", badReqf("sweep needs a periods=p1,p2,... query parameter")
	}
	parts := strings.Split(raw, ",")
	if len(parts) > s.cfg.MaxSweepPeriods {
		return nil, "", badReqf("sweep is capped at %d periods, got %d", s.cfg.MaxSweepPeriods, len(parts))
	}
	periods := make([]ratio.Rat, 0, len(parts))
	canon := make([]string, 0, len(parts))
	for _, part := range parts {
		r, err := ratio.Parse(part)
		if err != nil {
			return nil, "", badReqf("bad period %q: %v", part, err)
		}
		if r.Sign() <= 0 {
			return nil, "", badReqf("period %q must be positive", part)
		}
		periods = append(periods, r)
		canon = append(canon, r.String())
	}
	return periods, strings.Join(canon, ","), nil
}

func parseFactor(q url.Values) (ratio.Rat, error) {
	raw := q.Get("max")
	if raw == "" {
		return ratio.Rat{}, badReqf("degradation needs a max=<factor> query parameter (> 1)")
	}
	f, err := ratio.Parse(raw)
	if err != nil {
		return ratio.Rat{}, badReqf("bad max %q: %v", raw, err)
	}
	if !ratio.FromInt(1).Less(f) {
		return ratio.Rat{}, badReqf("max %s must exceed 1", f)
	}
	return f, nil
}

func queryInt64(q url.Values, name string, def int64) (int64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, badReqf("bad %s %q", name, v)
	}
	return n, nil
}

// Response shapes. Encoding uses struct field order, so bodies are
// deterministic — a requirement for byte-identical coalesced responses.

type bufferCapacity struct {
	Name     string `json:"name"`
	Producer string `json:"producer"`
	Consumer string `json:"consumer"`
	Capacity int64  `json:"capacity"`
}

type sizeResponse struct {
	Valid       bool             `json:"valid"`
	Policy      string           `json:"policy"`
	Task        string           `json:"task"`
	Period      string           `json:"period"`
	Buffers     []bufferCapacity `json:"buffers"`
	Total       int64            `json:"total"`
	Diagnostics []string         `json:"diagnostics,omitempty"`
}

func sizeResponseOf(res *capacity.Result, policy capacity.Policy) sizeResponse {
	out := sizeResponse{
		Valid:       res.Valid,
		Policy:      policy.String(),
		Task:        res.Constraint.Task,
		Period:      res.Constraint.Period.String(),
		Total:       res.TotalCapacity(),
		Diagnostics: res.Diagnostics,
	}
	for _, b := range res.Buffers {
		out.Buffers = append(out.Buffers, bufferCapacity{
			Name: b.Buffer, Producer: b.Producer, Consumer: b.Consumer, Capacity: b.Capacity,
		})
	}
	return out
}

type minimizeBuffer struct {
	Name     string `json:"name"`
	Analytic int64  `json:"analytic"`
	Minimal  int64  `json:"minimal"`
}

type minimizeResponse struct {
	Valid         bool             `json:"valid"`
	Policy        string           `json:"policy"`
	Task          string           `json:"task"`
	Period        string           `json:"period"`
	Firings       int64            `json:"firings"`
	Seed          int64            `json:"seed"`
	Buffers       []minimizeBuffer `json:"buffers,omitempty"`
	AnalyticTotal int64            `json:"analyticTotal"`
	MinimalTotal  int64            `json:"minimalTotal"`
	Diagnostics   []string         `json:"diagnostics,omitempty"`
}

type sweepPoint struct {
	Period string `json:"period"`
	Valid  bool   `json:"valid"`
	Total  int64  `json:"total"`
}

type sweepResponse struct {
	Task   string       `json:"task"`
	Policy string       `json:"policy"`
	Points []sweepPoint `json:"points"`
}

func sweepResponseOf(task string, policy capacity.Policy, pts []capacity.SweepPoint) sweepResponse {
	out := sweepResponse{Task: task, Policy: policy.String()}
	for _, pt := range pts {
		out.Points = append(out.Points, sweepPoint{
			Period: pt.Period.String(), Valid: pt.Valid, Total: pt.Total,
		})
	}
	return out
}

type degradationPoint struct {
	Factor string `json:"factor"`
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

type degradationResponse struct {
	Valid       bool               `json:"valid"`
	Points      []degradationPoint `json:"points,omitempty"`
	Slack       string             `json:"slack,omitempty"`
	Diagnostics []string           `json:"diagnostics,omitempty"`
}

func degradationResponseOf(curve *faults.DegradationCurve) degradationResponse {
	out := degradationResponse{Valid: true, Slack: curve.Slack().String()}
	for _, p := range curve.Points {
		out.Points = append(out.Points, degradationPoint{
			Factor: p.Factor.String(), OK: p.OK, Reason: p.Reason,
		})
	}
	return out
}

// Error handling.

// badRequestError marks document and parameter problems for the 400
// mapping; everything else keeps its own typed mapping (limits, budgets,
// shed load).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badReq(err error) error { return &badRequestError{err: err} }

// The router's own rejections, answered 404 and 405.
var (
	errNotFound = errors.New("not found")
	errNotPost  = errors.New("POST a graph document")
)

func badReqf(format string, args ...any) error {
	return &badRequestError{err: fmt.Errorf(format, args...)}
}

// statusFor maps error kinds to HTTP statuses: an unknown path 404, a
// method other than POST 405, oversized input 413, other document limits
// and bad documents/parameters 400, shed load 503, exhausted budget 504, a
// hung-up client 499, anything else 500.
func statusFor(err error) int {
	var le *graphio.LimitError
	var br *badRequestError
	switch {
	case errors.Is(err, errNotFound):
		return http.StatusNotFound
	case errors.Is(err, errNotPost):
		return http.StatusMethodNotAllowed
	case errors.As(err, &le):
		if le.What == "input bytes" {
			return http.StatusRequestEntityTooLarge
		}
		return http.StatusBadRequest
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.Is(err, errBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, budget.ErrBudgetExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, budget.ErrCanceled):
		return statusClientClosed
	default:
		return http.StatusInternalServerError
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

// failRequest answers an error and logs it. Allocation-unconstrained: every
// error path has already left the steady state.
func (s *Server) failRequest(w http.ResponseWriter, c *reqCtx, pathID int32, start time.Time, err error) {
	status := statusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	s.respond(w, c, pathID, errorEntry(status, err.Error()), kindError, start)
}

// errorEntry renders the JSON body of an error response.
func errorEntry(status int, msg string) *respEntry {
	body, _ := json.Marshal(errorResponse{Error: msg}) // a one-string struct always encodes
	return &respEntry{status: status, body: append(body, '\n')}
}

var healthOK = []byte("ok\n")

func (s *Server) serveHealthz(w http.ResponseWriter) {
	_, _ = w.Write(healthOK)
}

// Stats is the /statsz payload: responses by kind, cache and pool
// occupancy, and the simulation effort spent by minimize probes and
// degradation sweeps. Every
// response except /healthz and /statsz counts under exactly one kind, so
// Requests = CacheHits + Computes + Coalesced + Errors. Computes counts
// the responses that led a successful computation; a computation that
// fails answers its leader as an error.
type Stats struct {
	Requests         int64  `json:"requests"`
	CacheHits        int64  `json:"cacheHits"`
	Coalesced        int64  `json:"coalesced"`
	Computes         int64  `json:"computes"`
	Rejected         int64  `json:"rejected"`
	Errors           int64  `json:"errors"`
	LogDropped       uint64 `json:"logDropped"`
	CachedResponses  int    `json:"cachedResponses"`
	CompiledProblems int    `json:"compiledProblems"`
	sim.EffortCounts
	VerdictHits   int64 `json:"verdictHits"`
	VerdictMisses int64 `json:"verdictMisses"`
}

// StatsSnapshot returns the current counters.
func (s *Server) StatsSnapshot() Stats {
	cs := s.cfg.Store.Stats()
	st := Stats{
		CacheHits:        s.responses[kindHit].Load(),
		Coalesced:        s.responses[kindCoalesced].Load(),
		Computes:         s.responses[kindCompute].Load(),
		Rejected:         s.rejected.Load(),
		Errors:           s.responses[kindError].Load(),
		LogDropped:       s.ring.dropped.Load(),
		CachedResponses:  s.resp.len(),
		CompiledProblems: s.problems.len(),
		EffortCounts:     s.effort.Counts(),
		VerdictHits:      cs.VerdictHits,
		VerdictMisses:    cs.VerdictMisses,
	}
	st.Requests = st.CacheHits + st.Coalesced + st.Computes + st.Errors
	return st
}

func (s *Server) serveStatsz(w http.ResponseWriter) {
	h := w.Header()
	h["Content-Type"] = ctJSON
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(s.StatsSnapshot())
}

// drainLog moves ring entries to the configured writer on a fixed cadence
// until the server closes, then performs a final drain.
func (s *Server) drainLog() {
	defer close(s.logDone)
	tick := time.NewTicker(s.cfg.LogInterval)
	defer tick.Stop()
	buf := make([]byte, 0, 256)
	var e logEntry
	for {
		select {
		case <-s.baseCtx.Done():
			//vrdf:unbudgeted(final drain of a bounded ring after shutdown)
			for s.ring.pop(&e) {
				buf = s.writeLogLine(buf, &e)
			}
			return
		case <-tick.C:
			//vrdf:unbudgeted(drains a bounded ring; producers that outpace the drain drop entries instead of growing it)
			for s.ring.pop(&e) {
				buf = s.writeLogLine(buf, &e)
			}
		}
	}
}

// pathNames maps path ids back to endpoint names for the access log.
var pathNames = [...]string{"size", "minimize", "sweep", "degradation", "unknown"}

var kindNames = [...]string{"hit", "compute", "coalesced", "error"}

// writeLogLine formats one entry and writes it; the scratch buffer is
// reused across lines.
func (s *Server) writeLogLine(buf []byte, e *logEntry) []byte {
	if s.cfg.AccessLog == nil {
		return buf
	}
	buf = buf[:0]
	buf = append(buf, "t="...)
	buf = strconv.AppendInt(buf, e.when, 10)
	buf = append(buf, " path="...)
	if int(e.path) < len(pathNames) {
		buf = append(buf, pathNames[e.path]...)
	} else {
		buf = strconv.AppendInt(buf, int64(e.path), 10)
	}
	buf = append(buf, " status="...)
	buf = strconv.AppendInt(buf, int64(e.status), 10)
	buf = append(buf, " kind="...)
	if int(e.kind) < len(kindNames) {
		buf = append(buf, kindNames[e.kind]...)
	} else {
		buf = strconv.AppendUint(buf, uint64(e.kind), 10)
	}
	buf = append(buf, " dur_ns="...)
	buf = strconv.AppendInt(buf, e.dur, 10)
	buf = append(buf, " key="...)
	const hexdigits = "0123456789abcdef"
	for _, b := range e.key {
		buf = append(buf, hexdigits[b>>4], hexdigits[b&0xf])
	}
	buf = append(buf, '\n')
	_, _ = s.cfg.AccessLog.Write(buf)
	return buf
}
