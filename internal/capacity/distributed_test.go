// End-to-end test of a sweep spread over several processes: each replica
// sweeps its own share of a period grid and pools the verdicts through
// one shared cache directory — the stack `vrdfcap -sweep ... -cache-dir D`
// builds when several runs point at the same D.
package capacity_test

import (
	"testing"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphio"
	"vrdfcap/internal/probecache"
	"vrdfcap/internal/ratio"
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

// replicaSweep runs one shard of the grid as a fresh process would: a new
// store on the shared directory, recording into its entry, flushed at the
// end.
func replicaSweep(t *testing.T, dir string, g *taskgraph.Graph, task string, periods []ratio.Rat) []capacity.SweepPoint {
	t.Helper()
	p := capacity.PolicyEquation4
	store := probecache.NewStore(dir)
	entry := store.Entry(capacity.SweepKey(g, task, p))
	pts, err := capacity.SweepPeriodsOpt(g, task, periods, p,
		capacity.SweepOptions{Parallel: 1, Cache: entry.Periods()})
	if err != nil {
		t.Fatalf("replica sweep: %v", err)
	}
	if _, err := store.Flush(); err != nil {
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

// TestDistributedSweepMatchesLocal pins the happy path: three replicas
// each sweep a third of the grid and flush to one directory; the folded
// points equal the single-machine sweep, and a fourth replica opening the
// same entry finds every period's verdict pooled.
func TestDistributedSweepMatchesLocal(t *testing.T) {
	g, c := decodePair(t)
	periods := pairGrid(24)
	baseline := localSweep(t, g, c.Task, periods)

	dir := t.TempDir()
	parts := shards(periods, 3)
	got := make([][]capacity.SweepPoint, len(parts))
	for i, shard := range parts {
		got[i] = replicaSweep(t, dir, g, c.Task, shard)
	}
	mustMatchPoints(t, fold(got, len(periods)), baseline)

	reader := probecache.NewStore(dir)
	mustHoldVerdicts(t, reader, g, c.Task, baseline)
	if st := reader.Stats(); st.Loaded != 1 || st.Skipped != 0 {
		t.Fatalf("reader did not warm-start from the pooled file: %+v", st)
	}
	mustMatchPoints(t, replicaSweep(t, dir, g, c.Task, periods), baseline)
}
