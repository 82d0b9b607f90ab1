package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/serve"
	"vrdfcap/internal/sim"
)

// The serve-mixed workload drives an in-process vrdfserve over loopback
// HTTP from a closed loop of keep-alive clients, because the service's
// callers (CLI, CI, soak) each wait for their reply.
const (
	serveClients     = 2   // closed-loop clients, one keep-alive connection each
	serveRequests    = 640 // requests per client per pass, in blocks of serveBlock
	serveHotSize     = 24  // /v1/size problems warmed in set-up
	serveHotMinimize = 8   // /v1/minimize problems warmed in set-up
	serveFirings     = 200 // minimize horizon: the one EXPERIMENTS.md and CI's soak-smoke job serve with
	serveVerifyEvery = 4   // every this many cold minimize answers are re-derived by the library path
)

// serveBlock is the request mix, an assumption (README.md): of every four
// requests a client sends, two size a new chain, one minimises the MP3
// chain under a new VBR seed and one repeats an answer warmed in set-up.
var serveBlock = [...]string{"size", "size", "minimize", "hot"}

// request is one entry of a client's fixed request sequence.
type request struct {
	path  string
	doc   []byte
	class int
	hot   int   // index into the hot set (hot requests)
	seed  int64 // minimize workload seed; 0 for /v1/size
}

// answer is a response kept for the gates that run after the timed phase.
type answer struct {
	req    *request
	status int
	body   []byte
}

type serveWorkload struct {
	b      *bench
	hotSet []request
	seqs   [serveClients][]request

	srv     *serve.Server
	hs      *http.Server
	served  chan struct{} // closed when the HTTP server's Serve returns
	url     string
	conns   [serveClients]*clientConn
	warm    [][]byte // hot-set bodies from set-up
	tr      atomic.Pointer[tracer]
	answers [serveClients][]answer
}

// serveChain is the generator config for every service document.
func serveChain(seed int64) ([]byte, error) {
	g, c, err := graphgen.Random(graphgen.Config{Seed: seed, MinTasks: 4, MaxTasks: 8, MaxQuantum: 8, MaxSetSize: 3})
	if err != nil {
		return nil, err
	}
	return graphio.EncodeText(g, &c), nil
}

func newServe(b *bench) (workload, error) {
	w := &serveWorkload{b: b}
	return w, w.build()
}

// passes: a pass is 0.25 to 0.75 s on a 2.0 GHz Xeon, depending on how
// busy the host's other tenants are.
func (w *serveWorkload) passes(seconds int) int { return max(4, seconds*7/2) }

// build derives the hot set and both clients' request sequences from the
// seed. /v1/size documents are random chains; /v1/minimize asks for the
// §5 MP3 chain under a random VBR seed, so cold minimize costs vary with
// the workload draw no more than the MP3 searches do. Every cold request
// is distinct from every other request, so it is a response-cache miss
// and no two clients coalesce on it.
func (w *serveWorkload) build() error {
	mp3, err := os.ReadFile(mp3Doc)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.b.seed))
	chain, seen := int64(0), map[int64]bool{}
	fresh := func(minimize bool) (request, error) {
		if !minimize {
			chain++
			doc, err := serveChain(w.b.seed<<24 + chain)
			return request{path: "/v1/size", doc: doc}, err
		}
		seed := 1 + rng.Int63n(1<<31)
		for seen[seed] {
			seed = 1 + rng.Int63n(1<<31)
		}
		seen[seed] = true
		return request{path: fmt.Sprintf("/v1/minimize?firings=%d&seed=%d", serveFirings, seed), doc: mp3, seed: seed}, nil
	}
	for i := 0; i < serveHotSize+serveHotMinimize; i++ {
		r, err := fresh(i >= serveHotSize)
		if err != nil {
			return err
		}
		r.class, r.hot = hot, i
		w.hotSet = append(w.hotSet, r)
	}
	// Each client's sequence holds the block's shares exactly, shuffled,
	// and repeats every hot problem equally often, so two seeds differ in
	// their documents but not in the mix.
	for c := range w.seqs {
		hots := 0
		for _, j := range rng.Perm(serveRequests) {
			kind := serveBlock[j%len(serveBlock)]
			if kind == "hot" {
				w.seqs[c] = append(w.seqs[c], w.hotSet[hots%len(w.hotSet)])
				hots++
				continue
			}
			r, err := fresh(kind == "minimize")
			if err != nil {
				return err
			}
			w.seqs[c] = append(w.seqs[c], r)
		}
	}
	return nil
}

// setup starts a fresh server — private verdict store, default caches,
// one analysis worker per CPU — on a loopback listener and warms the hot
// set through it.
func (w *serveWorkload) setup() error {
	if w.hs != nil {
		w.shutdown()
	}
	w.tr.Store(nil)
	w.srv = serve.New(serve.Config{Workers: runtime.NumCPU(), Store: probecache.NewStore(""), Firings: serveFirings})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return err
	}
	w.hs = &http.Server{Handler: w}
	w.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed once shutdown closes it
	}(w.hs, w.served)
	w.url = "http://" + ln.Addr().String()
	for c := range w.conns {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			w.shutdown()
			return err
		}
		w.conns[c] = &clientConn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
	}
	w.warm = w.warm[:0]
	for i := range w.hotSet {
		status, body, err := w.post(w.conns[0], &w.hotSet[i], nil, -1, 0)
		if err != nil {
			w.shutdown()
			return err
		}
		if status != http.StatusOK {
			w.shutdown()
			return fmt.Errorf("warming %s: status %d: %s", w.hotSet[i].path, status, body)
		}
		w.warm = append(w.warm, body)
	}
	return nil
}

func (w *serveWorkload) shutdown() {
	for c, cc := range w.conns {
		if cc != nil {
			cc.nc.Close()
			w.conns[c] = nil
		}
	}
	w.hs.Close()
	<-w.served
	w.srv.Close()
	w.hs = nil
}

// clientConn is one closed-loop client's keep-alive connection. The
// client writes a request and reads its reply on the calling goroutine,
// as curl or the CLI does, so a request costs the client no goroutine
// hand-offs that net/http's client transport would add.
type clientConn struct {
	nc net.Conn
	r  *bufio.Reader
	w  *bufio.Writer
}

// ServeHTTP wraps the service's handler with the serve.handler span.
func (w *serveWorkload) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	tr := w.tr.Load()
	if tr == nil {
		w.srv.ServeHTTP(rw, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get("Perfbench-Span"))
	job, _ := strconv.Atoi(r.Header.Get("Perfbench-Job"))
	sp := tr.begin("serve.handler."+r.Header.Get("Perfbench-Class"), parent, job)
	w.srv.ServeHTTP(rw, r)
	tr.end(sp)
}

// post sends one request on cc and reads the whole reply. With a tracer
// the round trip is a span under root, and the handler span links to it.
func (w *serveWorkload) post(cc *clientConn, req *request, tr *tracer, root, job int) (int, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, w.url+req.path, bytes.NewReader(req.doc))
	if err != nil {
		return 0, nil, err
	}
	sp := tr.begin("http.roundtrip."+className[req.class], root, job)
	defer tr.end(sp)
	if tr != nil {
		hr.Header.Set("Perfbench-Span", strconv.Itoa(sp))
		hr.Header.Set("Perfbench-Job", strconv.Itoa(job))
		hr.Header.Set("Perfbench-Class", className[req.class])
	}
	if err := hr.Write(cc.w); err != nil {
		return 0, nil, err
	}
	if err := cc.w.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(cc.r, hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (w *serveWorkload) pass(tr *tracer, rec *recorder) (map[string]int64, error) {
	w.tr.Store(tr)
	before := w.srv.StatsSnapshot()
	rec.startPhase()
	var wg sync.WaitGroup
	for c := range w.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.answers[c] = w.answers[c][:0]
			for i := range w.seqs[c] {
				req := &w.seqs[c][i]
				job := w.b.nextJob()
				root := tr.begin("job", -1, job)
				t0 := time.Now()
				status, body, err := w.post(w.conns[c], req, tr, root, job)
				rec.request(c*serveRequests+i, req.class, time.Since(t0))
				tr.end(root)
				if err != nil {
					w.b.fail("%s: %v", req.path, err)
					continue
				}
				w.answers[c] = append(w.answers[c], answer{req: req, status: status, body: body})
			}
		}(c)
	}
	wg.Wait()
	rec.endPhase()
	after := w.srv.StatsSnapshot()
	w.shutdown()
	return map[string]int64{
		"serve.hits":       after.CacheHits - before.CacheHits,
		"serve.computes":   after.Computes - before.Computes,
		"serve.coalesced":  after.Coalesced - before.Coalesced,
		"serve.rejected":   after.Rejected - before.Rejected,
		"serve.sim_events": after.SimEvents - before.SimEvents,
	}, nil
}

// verify is the service's output gate: every answer is a 200, hot bodies
// are byte-identical to their warm-up response, cold sizes equal
// capacity.Compute, and a sample of cold minimize totals equal the library
// path on the same document and seed.
func (w *serveWorkload) verify(bool) error {
	minimizes := 0
	for c := range w.answers {
		for _, a := range w.answers[c] {
			switch {
			case a.status != http.StatusOK:
				w.b.fail("%s: status %d: %s", a.req.path, a.status, a.body)
			case a.req.class == hot:
				if !bytes.Equal(a.body, w.warm[a.req.hot]) {
					w.b.fail("%s: hot body differs from its warm-up response", a.req.path)
				}
			case a.req.seed == 0:
				var got struct{ Total int64 }
				if err := json.Unmarshal(a.body, &got); err != nil {
					return err
				}
				want, _, err := libraryTotals(a.req.doc, 0)
				if err != nil {
					return err
				}
				if got.Total != want {
					w.b.fail("%s: total %d, capacity.Compute gives %d", a.req.path, got.Total, want)
				}
			default:
				minimizes++
				if minimizes%serveVerifyEvery != 1 {
					continue
				}
				var got struct{ MinimalTotal int64 }
				if err := json.Unmarshal(a.body, &got); err != nil {
					return err
				}
				_, want, err := libraryTotals(a.req.doc, a.req.seed)
				if err != nil {
					return err
				}
				if got.MinimalTotal != want {
					w.b.fail("%s: minimal total %d, library path gives %d", a.req.path, got.MinimalTotal, want)
				}
			}
		}
	}
	return nil
}

// libraryTotals answers a document through the library: its Eq-4 total
// and, for seed != 0, the minimal total of the serial search the service
// runs for /v1/minimize.
func libraryTotals(doc []byte, seed int64) (analytic, minimal int64, err error) {
	g, c, err := graphio.DecodeAny(doc)
	if err != nil {
		return 0, 0, err
	}
	res, err := capacity.Compute(g, *c, capacity.PolicyEquation4)
	if err != nil {
		return 0, 0, err
	}
	if seed == 0 {
		return res.TotalCapacity(), 0, nil
	}
	sized, err := capacity.Sized(g, res)
	if err != nil {
		return 0, 0, err
	}
	sufficient, necessary, err := capacity.SearchBounds(res, g)
	if err != nil {
		return 0, 0, err
	}
	buffers, upper := searchSpace(sized)
	opts := minimize.Options{Workers: 1, Checkpoints: 8, Bounds: &minimize.Bounds{Sufficient: sufficient, Necessary: necessary}}
	check := minimize.ThroughputCheck(g, *c, serveFirings, []sim.Workloads{sim.UniformWorkloads(sized, seed)}, opts)
	mres, err := minimize.Search(buffers, upper, check, opts)
	if err != nil {
		return 0, 0, err
	}
	return res.TotalCapacity(), mres.Total(), nil
}
