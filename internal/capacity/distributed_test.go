// End-to-end tests of sweeps spread over several machines: each replica
// sweeps its own share of a period grid and pools the verdicts through a
// real vrdfserve verdict store (served under /v1/cache/ from an httptest
// listener), wrapped in cachestore.Resilient with an in-memory fallback —
// the exact stack `vrdfcap -cache-backend http://...` and
// `vrdfserve -cache-backend http://...` build. The external test package
// breaks the capacity ← serve import cycle.
package capacity_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vrdfcap/internal/cachestore"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/serve"
	"vrdfcap/internal/taskgraph"
)

// pairDoc is the paper's Figure 1 producer-consumer pair.
const pairDoc = `task a wcrt 1
task b wcrt 1
buffer a -> b prod 3 cons {2,3}
constraint b period 3
`

func decodePair(t *testing.T) (*taskgraph.Graph, *taskgraph.Constraint) {
	t.Helper()
	g, c, err := graphio.DecodeAnyLimited([]byte(pairDoc), graphio.DefaultLimits)
	if err != nil {
		t.Fatalf("decode pair: %v", err)
	}
	if c == nil {
		t.Fatal("pair document has no constraint")
	}
	return g, c
}

// pairGrid straddles the pair's feasibility frontier so a sweep mixes
// infeasible and feasible verdicts.
func pairGrid(n int) []ratio.Rat {
	out := make([]ratio.Rat, n)
	for i := range out {
		out[i] = ratio.MustNew(int64(i+4), 4) // 1, 5/4, ..., upward through 3
	}
	return out
}

// newHub boots a real capacity-analysis service whose in-memory tier is
// served under /v1/cache/ (vrdfserve -cache-store mem:) and returns its
// base URL.
func newHub(t *testing.T) string {
	t.Helper()
	s := serve.New(serve.Config{CacheBackend: cachestore.NewMem()})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts.URL
}

// replica is one machine of a fleet: a verdict store on the shared hub
// with the same resilience posture as the CLIs, and fast retries so dead
// hubs cost milliseconds.
type replica struct {
	res   *cachestore.Resilient
	store *probecache.Store
}

func newReplica(t *testing.T, hubURL string, seed uint64) replica {
	t.Helper()
	b, err := cachestore.Parse(hubURL)
	if err != nil {
		t.Fatalf("parse hub %q: %v", hubURL, err)
	}
	res := cachestore.NewResilient(b, cachestore.NewMem(), cachestore.Options{
		OpTimeout:  2 * time.Second,
		Backoff:    time.Millisecond,
		MaxBackoff: 2 * time.Millisecond,
		Seed:       seed,
	})
	return replica{res: res, store: probecache.NewStoreBackend(res)}
}

// sweep runs one shard of the grid on the replica, recording into its
// store's entry, and flushes the verdicts to the hub.
func (r replica) sweep(t *testing.T, g *taskgraph.Graph, task string, periods []ratio.Rat) []capacity.SweepPoint {
	t.Helper()
	p := capacity.PolicyEquation4
	entry := r.store.EntryContext(context.Background(), capacity.SweepKey(g, task, p))
	pts, err := capacity.SweepPeriodsOpt(g, task, periods, p,
		capacity.SweepOptions{Parallel: 1, Cache: entry.Periods()})
	if err != nil {
		t.Fatalf("replica sweep: %v", err)
	}
	if _, err := r.store.Flush(); err != nil {
		t.Fatalf("replica flush: %v", err)
	}
	return pts
}

// shards deals the grid round-robin over n replicas, so every shard
// straddles the feasibility frontier. fold inverts it.
func shards(periods []ratio.Rat, n int) [][]ratio.Rat {
	out := make([][]ratio.Rat, n)
	for i, p := range periods {
		out[i%n] = append(out[i%n], p)
	}
	return out
}

func fold(parts [][]capacity.SweepPoint, total int) []capacity.SweepPoint {
	out := make([]capacity.SweepPoint, 0, total)
	for i := 0; i < total; i++ {
		out = append(out, parts[i%len(parts)][i/len(parts)])
	}
	return out
}

func localSweep(t *testing.T, g *taskgraph.Graph, task string, periods []ratio.Rat) []capacity.SweepPoint {
	t.Helper()
	pts, err := capacity.SweepPeriodsOpt(g, task, periods, capacity.PolicyEquation4,
		capacity.SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}
	return pts
}

// mustMatchPoints compares two sweeps on the (period, valid, total)
// triples — the identity surface.
func mustMatchPoints(t *testing.T, got, want []capacity.SweepPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !w.Period.Equal(g.Period) || w.Valid != g.Valid || w.Total != g.Total {
			t.Fatalf("point %d: got (%s valid=%v total=%d), want (%s valid=%v total=%d)",
				i, g.Period, g.Valid, g.Total, w.Period, w.Valid, w.Total)
		}
	}
}

// mustHoldVerdicts checks that a store's entry answers every baseline
// period exactly, with the baseline's verdict.
func mustHoldVerdicts(t *testing.T, store *probecache.Store, g *taskgraph.Graph, task string, want []capacity.SweepPoint) {
	t.Helper()
	cache := store.Entry(capacity.SweepKey(g, task, capacity.PolicyEquation4)).Periods()
	for i, w := range want {
		v, ok := cache.Lookup(w.Period)
		if !ok {
			t.Fatalf("period %d (%s): no pooled verdict", i, w.Period)
		}
		if v.Valid != w.Valid || v.Total != w.Total {
			t.Fatalf("period %d (%s): pooled (valid=%v total=%d), want (valid=%v total=%d)",
				i, w.Period, v.Valid, v.Total, w.Valid, w.Total)
		}
	}
}

// TestDistributedSweepMatchesLocal pins the happy path over the real HTTP
// stack: three replicas each sweep a third of the grid and flush to one
// hub; the folded points equal the single-machine sweep, and a fourth
// replica opening the same entry finds every period's verdict pooled.
func TestDistributedSweepMatchesLocal(t *testing.T) {
	g, c := decodePair(t)
	periods := pairGrid(24)
	baseline := localSweep(t, g, c.Task, periods)

	hub := newHub(t)
	parts := shards(periods, 3)
	got := make([][]capacity.SweepPoint, len(parts))
	for i, shard := range parts {
		r := newReplica(t, hub, uint64(i+1))
		got[i] = r.sweep(t, g, c.Task, shard)
		if st := r.res.Stats(); st.Demotions != 0 || st.PrimaryErrors != 0 {
			t.Fatalf("replica %d: healthy hub demoted: %+v", i, st)
		}
	}
	mustMatchPoints(t, fold(got, len(periods)), baseline)

	reader := newReplica(t, hub, 4)
	mustHoldVerdicts(t, reader.store, g, c.Task, baseline)
	mustMatchPoints(t, reader.sweep(t, g, c.Task, periods), baseline)
}

// TestDistributedSweepWorkerKilledMidSweep pins the fault case over real
// HTTP: the hub answers the first replica and then fails every request;
// the second replica demotes to its local tier without an error, the
// folded sweep still equals the single-machine run, and the verdicts the
// hub took before it died stay readable once it is reachable again.
func TestDistributedSweepWorkerKilledMidSweep(t *testing.T) {
	g, c := decodePair(t)
	periods := pairGrid(32)
	baseline := localSweep(t, g, c.Task, periods)

	s := serve.New(serve.Config{CacheBackend: cachestore.NewMem()})
	t.Cleanup(s.Close)
	var killed atomic.Bool
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() && strings.HasPrefix(r.URL.Path, "/v1/cache/") {
			// The process is gone: every later store request fails hard.
			http.Error(w, "hub killed", http.StatusBadGateway)
			return
		}
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	parts := shards(periods, 2)
	first := newReplica(t, dying.URL, 1)
	got0 := first.sweep(t, g, c.Task, parts[0])

	killed.Store(true)
	second := newReplica(t, dying.URL, 2)
	got1 := second.sweep(t, g, c.Task, parts[1])
	if st := second.res.Stats(); st.Demotions == 0 {
		t.Fatalf("dead hub: second replica never demoted: %+v", st)
	}
	mustMatchPoints(t, fold([][]capacity.SweepPoint{got0, got1}, len(periods)), baseline)
	// The second replica's verdicts survive in its own fallback tier.
	mustHoldVerdicts(t, second.store, g, c.Task, localSweep(t, g, c.Task, parts[1]))

	killed.Store(false)
	reader := newReplica(t, dying.URL, 3)
	mustHoldVerdicts(t, reader.store, g, c.Task, got0)
}

// TestDistributedSweepAllWorkersDead pins graceful degradation over real
// sockets: the hub URL points at a closed listener (connection refused),
// and every replica still returns the exact local result and flushes
// without an error into its fallback tier.
func TestDistributedSweepAllWorkersDead(t *testing.T) {
	g, c := decodePair(t)
	periods := pairGrid(12)
	baseline := localSweep(t, g, c.Task, periods)

	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close() // nothing listens here any more

	parts := shards(periods, 2)
	got := make([][]capacity.SweepPoint, len(parts))
	for i, shard := range parts {
		r := newReplica(t, url, uint64(i+1))
		got[i] = r.sweep(t, g, c.Task, shard)
		if st := r.res.Stats(); st.Demotions == 0 || st.PrimaryErrors == 0 {
			t.Fatalf("replica %d: dead hub was never noticed: %+v", i, st)
		}
	}
	mustMatchPoints(t, fold(got, len(periods)), baseline)
}

// TestDistributedSweepBadWorkerURL pins the fail-fast contract: a
// malformed hub URL is a configuration error, not a degraded sweep.
func TestDistributedSweepBadWorkerURL(t *testing.T) {
	for _, spec := range []string{"ftp://nope", "http://"} {
		if _, err := cachestore.Parse(spec); err == nil {
			t.Errorf("Parse(%q): want an error for a bad hub URL", spec)
		}
	}
}
