package taskgraph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// The reference below is the chain check Chain replaced, kept verbatim
// apart from reaching the graph through its exported accessors: Validate's
// weak-connectivity search, ValidateChain's per-task degree scans and
// buffer count, and the walk from the source.

func refInputs(g *taskgraph.Graph, task string) []*taskgraph.Buffer {
	var out []*taskgraph.Buffer
	for _, b := range g.Buffers() {
		if b.Consumer == task {
			out = append(out, b)
		}
	}
	return out
}

func refOutputs(g *taskgraph.Graph, task string) []*taskgraph.Buffer {
	var out []*taskgraph.Buffer
	for _, b := range g.Buffers() {
		if b.Producer == task {
			out = append(out, b)
		}
	}
	return out
}

func refWeaklyConnected(g *taskgraph.Graph) bool {
	tasks := g.Tasks()
	if len(tasks) <= 1 {
		return true
	}
	adj := make(map[string][]string, len(tasks))
	for _, b := range g.Buffers() {
		adj[b.Producer] = append(adj[b.Producer], b.Consumer)
		adj[b.Consumer] = append(adj[b.Consumer], b.Producer)
	}
	seen := map[string]bool{tasks[0].Name: true}
	stack := []string{tasks[0].Name}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return len(seen) == len(tasks)
}

func refValidateChain(g *taskgraph.Graph) error {
	if len(g.Tasks()) == 0 {
		return fmt.Errorf("taskgraph: graph has no tasks")
	}
	if !refWeaklyConnected(g) {
		return fmt.Errorf("taskgraph: graph is not weakly connected")
	}
	for _, t := range g.Tasks() {
		if n := len(refInputs(g, t.Name)); n > 1 {
			return fmt.Errorf("taskgraph: task %q has %d input buffers; chains allow at most one", t.Name, n)
		}
		if n := len(refOutputs(g, t.Name)); n > 1 {
			return fmt.Errorf("taskgraph: task %q has %d output buffers; chains allow at most one", t.Name, n)
		}
	}
	if len(g.Buffers()) != len(g.Tasks())-1 {
		return fmt.Errorf("taskgraph: %d tasks need %d buffers to form a chain, got %d",
			len(g.Tasks()), len(g.Tasks())-1, len(g.Buffers()))
	}
	return nil
}

func refChain(g *taskgraph.Graph) (tasks []*taskgraph.Task, buffers []*taskgraph.Buffer, err error) {
	if err := refValidateChain(g); err != nil {
		return nil, nil, err
	}
	if len(g.Tasks()) == 1 {
		return []*taskgraph.Task{g.Tasks()[0]}, nil, nil
	}
	next := make(map[string]*taskgraph.Buffer, len(g.Buffers()))
	hasIn := make(map[string]bool, len(g.Tasks()))
	for _, b := range g.Buffers() {
		next[b.Producer] = b
		hasIn[b.Consumer] = true
	}
	var src *taskgraph.Task
	for _, t := range g.Tasks() {
		if !hasIn[t.Name] {
			src = t
			break
		}
	}
	if src == nil {
		return nil, nil, fmt.Errorf("taskgraph: no source task (cycle?)")
	}
	cur := src
	for {
		tasks = append(tasks, cur)
		b, ok := next[cur.Name]
		if !ok {
			break
		}
		buffers = append(buffers, b)
		cur = g.Task(b.Consumer)
	}
	if len(tasks) != len(g.Tasks()) {
		return nil, nil, fmt.Errorf("taskgraph: chain walk visited %d of %d tasks", len(tasks), len(g.Tasks()))
	}
	return tasks, buffers, nil
}

// refChainFor is the endpoint rule of the former Constraint.Validate.
func refChainFor(g *taskgraph.Graph, task string) error {
	if g.Task(task) == nil {
		return fmt.Errorf("taskgraph: constraint on unknown task %q", task)
	}
	tasks, _, err := refChain(g)
	if err != nil {
		return err
	}
	if task != tasks[0].Name && task != tasks[len(tasks)-1].Name {
		return fmt.Errorf("taskgraph: constrained task %q must be the chain's source %q or sink %q",
			task, tasks[0].Name, tasks[len(tasks)-1].Name)
	}
	return nil
}

// graphSpec is a task graph as plain data, so mutations can rewire it
// before it is built.
type graphSpec struct {
	tasks   []string
	buffers [][2]int // producer and consumer index into tasks
}

func specOf(g *taskgraph.Graph) graphSpec {
	var s graphSpec
	idx := make(map[string]int)
	for i, t := range g.Tasks() {
		s.tasks = append(s.tasks, t.Name)
		idx[t.Name] = i
	}
	for _, b := range g.Buffers() {
		s.buffers = append(s.buffers, [2]int{idx[b.Producer], idx[b.Consumer]})
	}
	return s
}

// generated returns a graphgen chain of 2–8 tasks.
func generated(rng *rand.Rand) graphSpec {
	cfg := graphgen.Defaults(rng.Int63())
	cfg.MaxTasks = 8
	g, _, err := graphgen.Random(cfg)
	if err != nil {
		panic(err)
	}
	return specOf(g)
}

// mutations rewire a chain into a graph the chain rules may reject; some
// of them (a fork or join at an endpoint) leave it a chain.
var mutations = []struct {
	name string
	mut  func(s graphSpec, rng *rand.Rand) graphSpec
}{
	{"none", func(s graphSpec, _ *rand.Rand) graphSpec { return s }},
	{"fork", func(s graphSpec, rng *rand.Rand) graphSpec {
		s.tasks = append(s.tasks, "fork")
		s.buffers = append(s.buffers, [2]int{rng.Intn(len(s.tasks) - 1), len(s.tasks) - 1})
		return s
	}},
	{"join", func(s graphSpec, rng *rand.Rand) graphSpec {
		s.tasks = append(s.tasks, "join")
		s.buffers = append(s.buffers, [2]int{len(s.tasks) - 1, rng.Intn(len(s.tasks) - 1)})
		return s
	}},
	{"cycle", func(s graphSpec, rng *rand.Rand) graphSpec {
		// A back edge from a task to an earlier one; from the sink to
		// the source it closes a pure cycle.
		j := 1 + rng.Intn(len(s.tasks)-1)
		s.buffers = append(s.buffers, [2]int{j, rng.Intn(j)})
		return s
	}},
	{"pure-cycle", func(s graphSpec, _ *rand.Rand) graphSpec {
		s.buffers = append(s.buffers, [2]int{len(s.tasks) - 1, 0})
		return s
	}},
	{"isolated", func(s graphSpec, _ *rand.Rand) graphSpec {
		s.tasks = append(s.tasks, "isolated")
		return s
	}},
	{"disjoint", func(s graphSpec, rng *rand.Rand) graphSpec {
		o := generated(rng)
		off := len(s.tasks)
		for _, n := range o.tasks {
			s.tasks = append(s.tasks, "x"+n)
		}
		for _, b := range o.buffers {
			s.buffers = append(s.buffers, [2]int{b[0] + off, b[1] + off})
		}
		return s
	}},
	{"reversed", func(s graphSpec, rng *rand.Rand) graphSpec {
		i := rng.Intn(len(s.buffers))
		s.buffers[i] = [2]int{s.buffers[i][1], s.buffers[i][0]}
		return s
	}},
	{"dropped", func(s graphSpec, rng *rand.Rand) graphSpec {
		i := rng.Intn(len(s.buffers))
		s.buffers = append(s.buffers[:i], s.buffers[i+1:]...)
		return s
	}},
	{"parallel", func(s graphSpec, rng *rand.Rand) graphSpec {
		s.buffers = append(s.buffers, s.buffers[rng.Intn(len(s.buffers))])
		return s
	}},
	{"single", func(s graphSpec, _ *rand.Rand) graphSpec {
		return graphSpec{tasks: s.tasks[:1]}
	}},
	{"empty", func(graphSpec, *rand.Rand) graphSpec { return graphSpec{} }},
	{"random", func(s graphSpec, rng *rand.Rand) graphSpec {
		// Random arcs over the chain's tasks, self loops excepted.
		s.buffers = nil
		for k := rng.Intn(2 * len(s.tasks)); k > 0; k-- {
			p, c := rng.Intn(len(s.tasks)), rng.Intn(len(s.tasks))
			if p != c {
				s.buffers = append(s.buffers, [2]int{p, c})
			}
		}
		return s
	}},
}

// build constructs the graph of s, inserting tasks and buffers in a
// shuffled order. Buffers are named by position, so parallel buffers are
// distinct.
func build(t testing.TB, s graphSpec, rng *rand.Rand) *taskgraph.Graph {
	g := taskgraph.New()
	for _, i := range rng.Perm(len(s.tasks)) {
		if _, err := g.AddTask(s.tasks[i], ratio.One); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range rng.Perm(len(s.buffers)) {
		b := s.buffers[i]
		if _, err := g.AddBuffer(taskgraph.Buffer{
			Name:     fmt.Sprintf("b%d", i),
			Producer: s.tasks[b[0]], Consumer: s.tasks[b[1]],
			Prod: taskgraph.MustQuanta(1), Cons: taskgraph.MustQuanta(1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// checkAgainstReference holds Chain and ChainFor to the reference on g and
// reports whether the reference rejected g as a chain.
func checkAgainstReference(t testing.TB, what string, g *taskgraph.Graph) (rejected bool) {
	wantT, wantB, wantErr := refChain(g)
	gotT, gotB, gotErr := g.Chain()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: Chain error %v, reference error %v", what, gotErr, wantErr)
	}
	if len(gotT) != len(wantT) || len(gotB) != len(wantB) || (gotB == nil) != (wantB == nil) {
		t.Fatalf("%s: Chain returned %d tasks and %d buffers (nil %v), reference %d and %d (nil %v)",
			what, len(gotT), len(gotB), gotB == nil, len(wantT), len(wantB), wantB == nil)
	}
	for i := range wantT {
		if gotT[i] != wantT[i] {
			t.Fatalf("%s: task %d is %q, reference %q", what, i, gotT[i].Name, wantT[i].Name)
		}
	}
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("%s: buffer %d is %q, reference %q", what, i, gotB[i].Name, wantB[i].Name)
		}
	}
	for _, task := range append(g.SortedTaskNames(), "unknown") {
		_, _, gotErr := g.ChainFor(task)
		if wantErr := refChainFor(g, task); (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%s: ChainFor(%q) error %v, reference error %v", what, task, gotErr, wantErr)
		}
	}
	return wantErr != nil
}

// checkSeed applies the mutation numbered mutation (modulo their count) to
// the graphgen chain of seed and checks the result against the reference.
func checkSeed(t testing.TB, seed int64, mutation uint8) (name string, rejected bool) {
	rng := rand.New(rand.NewSource(seed))
	m := mutations[int(mutation)%len(mutations)]
	s := m.mut(generated(rng), rng)
	return m.name, checkAgainstReference(t, fmt.Sprintf("seed %d, %s", seed, m.name), build(t, s, rng))
}

// TestChainMatchesReference checks that Chain returns the reference's
// chain for every graph the reference accepts and rejects every graph it
// rejects, on graphgen chains and their mutations.
func TestChainMatchesReference(t *testing.T) {
	rejected := make(map[string]int)
	for seed := int64(0); seed < 200; seed++ {
		for m := range mutations {
			if name, rej := checkSeed(t, seed, uint8(m)); rej {
				rejected[name]++
			}
		}
	}
	// Every mutation but "none" and "single" must have produced graphs
	// the reference rejects; fork, join and cycle sometimes leave a chain.
	for _, m := range mutations {
		switch n := rejected[m.name]; m.name {
		case "none", "single":
			if n != 0 {
				t.Errorf("reference rejected %d %s graphs", n, m.name)
			}
		default:
			if n == 0 {
				t.Errorf("mutation %s never produced a graph the reference rejects", m.name)
			}
		}
	}
	// The MP3 chain of §5, inserted in document order.
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, "mp3", g)
}

func FuzzChainMatchesReference(f *testing.F) {
	for m := range mutations {
		f.Add(int64(m), uint8(m))
	}
	f.Fuzz(func(t *testing.T, seed int64, mutation uint8) {
		checkSeed(t, seed, mutation)
	})
}

// TestChainAllocs pins Chain's allocations. The first call on a graph
// makes a constant number, whatever the chain's length (the scans it
// replaced made 18 on the MP3 chain and 16,508 on 4096 tasks); every later
// Chain or ChainFor call reuses the derived chain and allocates nothing.
func TestChainAllocs(t *testing.T) {
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	long := longChain(t, 4096)
	for _, tc := range []struct {
		name  string
		g     *taskgraph.Graph
		first float64
	}{
		{"the MP3 chain", g, 4},
		{"a 4096-task chain", long, 63},
		{"a reversed 4096-task chain", reversed(t, long), 63},
	} {
		const runs = 5
		fresh := make([]*taskgraph.Graph, runs+1) // AllocsPerRun calls once more to warm up
		for i := range fresh {
			fresh[i] = tc.g.Clone()
		}
		next := 0
		first := testing.AllocsPerRun(runs, func() {
			fresh[next].Chain()
			next++
		})
		if first > tc.first {
			t.Errorf("first Chain on %s: %v allocs, want at most %v", tc.name, first, tc.first)
		}
		tasks, _, err := tc.g.Chain()
		if err != nil {
			t.Fatal(err)
		}
		sink := tasks[len(tasks)-1].Name
		if n := testing.AllocsPerRun(100, func() {
			tc.g.Chain()
			tc.g.ChainFor(sink)
		}); n != 0 {
			t.Errorf("repeated Chain and ChainFor on %s: %v allocs, want 0", tc.name, n)
		}
	}
}

// reversed rebuilds g with its tasks and buffers added in reverse order,
// so its chain order is not its insertion order.
func reversed(t testing.TB, g *taskgraph.Graph) *taskgraph.Graph {
	r := taskgraph.New()
	tasks, buffers := g.Tasks(), g.Buffers()
	for i := range tasks {
		tk := tasks[len(tasks)-1-i]
		if _, err := r.AddTask(tk.Name, tk.WCRT); err != nil {
			t.Fatal(err)
		}
	}
	for i := range buffers {
		if _, err := r.AddBuffer(*buffers[len(buffers)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// longChain builds an n-task chain of unit quanta.
func longChain(t testing.TB, n int) *taskgraph.Graph {
	stages := make([]taskgraph.Stage, n)
	links := make([]taskgraph.Link, n-1)
	for i := range stages {
		stages[i] = taskgraph.Stage{Name: fmt.Sprintf("t%d", i), WCRT: ratio.One}
	}
	for i := range links {
		links[i] = taskgraph.Link{Prod: taskgraph.MustQuanta(1), Cons: taskgraph.MustQuanta(1)}
	}
	g, err := taskgraph.BuildChain(stages, links)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
