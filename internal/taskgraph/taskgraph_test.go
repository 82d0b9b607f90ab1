package taskgraph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vrdfcap/internal/ratio"
)

func r(n, d int64) ratio.Rat { return ratio.MustNew(n, d) }

// figure1 builds the motivating example of the paper: wa produces 3
// containers per execution, wb consumes 2 or 3.
func figure1(t *testing.T) *Graph {
	t.Helper()
	g, err := Pair("wa", r(1, 1), "wb", r(1, 1), MustQuanta(3), MustQuanta(2, 3))
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	return g
}

func TestQuantaSetConstruction(t *testing.T) {
	q, err := NewQuantaSet(3, 2, 3, 2)
	if err != nil {
		t.Fatalf("NewQuantaSet: %v", err)
	}
	if q.Min() != 2 || q.Max() != 3 || q.Len() != 2 {
		t.Errorf("dedup/sort failed: %v", q)
	}
	if q.IsConstant() {
		t.Error("set {2,3} reported constant")
	}
	if got := q.String(); got != "{2,3}" {
		t.Errorf("String() = %q, want {2,3}", got)
	}
	c := MustQuanta(7)
	if !c.IsConstant() || c.String() != "7" {
		t.Errorf("Constant(7) misbehaves: %v", c)
	}
}

// TestQuantaTextBytes pins String and AppendText to the notation the
// fmt-based String wrote: a bare member for a singleton, {a,b,c}
// otherwise, and {} for the invalid zero value.
func TestQuantaTextBytes(t *testing.T) {
	for _, tc := range []struct {
		q    QuantaSet
		want string
	}{
		{QuantaSet{}, "{}"},
		{MustQuanta(0, 1), "{0,1}"},
		{MustQuanta(7), "7"},
		{MustQuanta(math.MaxInt64), "9223372036854775807"},
		{MustQuanta(3, 2, 3), "{2,3}"},
		{MustQuanta(0, 8, math.MaxInt64), "{0,8,9223372036854775807}"},
		{MustQuanta(96, 120, 144, 168, 192, 240, 288, 336, 384, 480, 576, 672, 768, 960),
			"{96,120,144,168,192,240,288,336,384,480,576,672,768,960}"},
	} {
		if got := tc.q.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		if got, err := tc.q.AppendText([]byte("q=")); err != nil || string(got) != "q="+tc.want {
			t.Errorf("AppendText = %q, %v, want %q", got, err, "q="+tc.want)
		}
	}
}

// TestQuantaSingletons checks that a singleton below the shared table's
// size costs no allocation, that a larger one costs one, and that neither
// can be changed through what the set hands out.
func TestQuantaSingletons(t *testing.T) {
	for _, tc := range []struct {
		v      int64
		allocs float64
	}{{1, 0}, {2048, 0}, {int64(len(smallQuanta) - 1), 0}, {int64(len(smallQuanta)), 1}, {math.MaxInt64, 1}} {
		var q QuantaSet
		if n := testing.AllocsPerRun(10, func() { q = MustQuanta(tc.v) }); n != tc.allocs {
			t.Errorf("MustQuanta(%d): %v allocs, want %v", tc.v, n, tc.allocs)
		}
		vals := q.AppendValues(nil)
		vals[0]++
		if !q.IsConstant() || q.Min() != tc.v || q.Max() != tc.v || !q.Contains(tc.v) {
			t.Errorf("MustQuanta(%d) = %v after changing its values' copy", tc.v, q)
		}
	}
	if smallQuanta[7] != 7 {
		t.Errorf("the shared singleton table holds %d at 7", smallQuanta[7])
	}
}

func TestQuantaSetRejectsInvalid(t *testing.T) {
	if _, err := NewQuantaSet(); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewQuantaSet(0); err == nil {
		t.Error("set {0} accepted")
	}
	if _, err := NewQuantaSet(-1, 2); err == nil {
		t.Error("negative quantum accepted")
	}
	// {0, n} is allowed: §4.2 explicitly permits firings that consume
	// nothing from an edge.
	q, err := NewQuantaSet(0, 960)
	if err != nil {
		t.Fatalf("{0,960} rejected: %v", err)
	}
	if !q.ContainsZero() {
		t.Error("ContainsZero() = false for {0,960}")
	}
}

func TestQuantaRange(t *testing.T) {
	q, err := Range(96, 99)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if q.Len() != 4 || q.Min() != 96 || q.Max() != 99 {
		t.Errorf("Range(96,99) = %v", q)
	}
	if _, err := Range(5, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestQuantaContains(t *testing.T) {
	q := MustQuanta(2, 5, 9)
	for _, v := range []int64{2, 5, 9} {
		if !q.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	for _, v := range []int64{0, 1, 3, 10} {
		if q.Contains(v) {
			t.Errorf("Contains(%d) = true", v)
		}
	}
}

func TestQuantaEqual(t *testing.T) {
	if !MustQuanta(2, 3).Equal(MustQuanta(3, 2)) {
		t.Error("{2,3} != {3,2}")
	}
	if MustQuanta(2, 3).Equal(MustQuanta(2, 3, 4)) {
		t.Error("{2,3} == {2,3,4}")
	}
}

func TestPropQuantaMinMaxMembers(t *testing.T) {
	f := func(raw []int64) bool {
		vals := make([]int64, 0, len(raw))
		for _, v := range raw {
			if v < 0 {
				v = -v
			}
			vals = append(vals, v%1000+1)
		}
		if len(vals) == 0 {
			return true
		}
		q, err := NewQuantaSet(vals...)
		if err != nil {
			return false
		}
		return q.Contains(q.Min()) && q.Contains(q.Max()) && q.Min() <= q.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphConstruction(t *testing.T) {
	g := figure1(t)
	if g.Task("wa") == nil || g.Task("wb") == nil {
		t.Fatal("tasks missing")
	}
	if len(g.Buffers()) != 1 {
		t.Fatalf("want 1 buffer, got %d", len(g.Buffers()))
	}
	b := g.Buffers()[0]
	if b.DefaultName() != "wa->wb" {
		t.Errorf("buffer name = %q", b.DefaultName())
	}
	if got := g.BufferByName("wa->wb"); got != b {
		t.Error("BufferByName lookup failed")
	}
}

func TestGraphRejectsBadInput(t *testing.T) {
	g := New()
	if _, err := g.AddTask("", r(1, 1)); err == nil {
		t.Error("empty task name accepted")
	}
	if _, err := g.AddTask("a", ratio.Zero); err == nil {
		t.Error("zero WCRT accepted")
	}
	if _, err := g.AddTask("a", r(-1, 2)); err == nil {
		t.Error("negative WCRT accepted")
	}
	if _, err := g.AddTask("a", r(1, 1)); err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	if _, err := g.AddTask("a", r(1, 1)); err == nil {
		t.Error("duplicate task accepted")
	}
	if _, err := g.AddBuffer(Buffer{Producer: "a", Consumer: "missing", Prod: MustQuanta(1), Cons: MustQuanta(1)}); err == nil {
		t.Error("buffer to unknown consumer accepted")
	}
	if _, err := g.AddBuffer(Buffer{Producer: "a", Consumer: "a", Prod: MustQuanta(1), Cons: MustQuanta(1)}); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := g.AddTask("b", r(1, 1)); err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	if _, err := g.AddBuffer(Buffer{Producer: "a", Consumer: "b", Cons: MustQuanta(1)}); err == nil {
		t.Error("invalid production quanta accepted")
	}
	if _, err := g.AddBuffer(Buffer{Producer: "a", Consumer: "b", Prod: MustQuanta(1), Cons: MustQuanta(1), Capacity: -1}); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestChainRejectsNonChains(t *testing.T) {
	g := figure1(t)
	if _, _, err := g.Chain(); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}

	// Fork: a feeds two consumers — not a chain.
	fork := New()
	for _, n := range []string{"a", "b", "c"} {
		if _, err := fork.AddTask(n, r(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, cons := range []string{"b", "c"} {
		if _, err := fork.AddBuffer(Buffer{Producer: "a", Consumer: cons, Prod: MustQuanta(1), Cons: MustQuanta(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := fork.Chain(); err == nil {
		t.Error("fork accepted as chain")
	} else if !strings.Contains(err.Error(), "output buffers") {
		t.Errorf("unexpected error: %v", err)
	}

	// Disconnected graph.
	disc := New()
	for _, n := range []string{"a", "b"} {
		if _, err := disc.AddTask(n, r(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := disc.Chain(); err == nil {
		t.Error("disconnected graph accepted")
	} else if !strings.Contains(err.Error(), "not weakly connected") {
		t.Errorf("unexpected error: %v", err)
	}

	// Cycle: every task has an input buffer.
	cyc := New()
	for _, n := range []string{"a", "b", "c"} {
		if _, err := cyc.AddTask(n, r(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}} {
		if _, err := cyc.AddBuffer(Buffer{Producer: e[0], Consumer: e[1], Prod: MustQuanta(1), Cons: MustQuanta(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cyc.Chain(); err == nil {
		t.Error("cycle accepted as chain")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("unexpected error: %v", err)
	}

	// Empty graph.
	if _, _, err := New().Chain(); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestChainOrdering(t *testing.T) {
	// Build a 4-stage chain in shuffled insertion order; Chain() must
	// still return source-to-sink order.
	g := New()
	for _, n := range []string{"c", "a", "d", "b"} {
		if _, err := g.AddTask(n, r(1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	edges := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}}
	for _, e := range edges {
		if _, err := g.AddBuffer(Buffer{Producer: e[0], Consumer: e[1], Prod: MustQuanta(1), Cons: MustQuanta(1)}); err != nil {
			t.Fatal(err)
		}
	}
	tasks, buffers, err := g.Chain()
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	wantOrder := []string{"a", "b", "c", "d"}
	for i, w := range wantOrder {
		if tasks[i].Name != w {
			t.Errorf("tasks[%d] = %q, want %q", i, tasks[i].Name, w)
		}
	}
	if len(buffers) != 3 {
		t.Fatalf("want 3 buffers, got %d", len(buffers))
	}
	for i, b := range buffers {
		if b.Producer != wantOrder[i] || b.Consumer != wantOrder[i+1] {
			t.Errorf("buffers[%d] connects %s->%s, want %s->%s",
				i, b.Producer, b.Consumer, wantOrder[i], wantOrder[i+1])
		}
	}
	src, err := g.Source()
	if err != nil || src.Name != "a" {
		t.Errorf("Source() = %v, %v; want a", src, err)
	}
	sink, err := g.Sink()
	if err != nil || sink.Name != "d" {
		t.Errorf("Sink() = %v, %v; want d", sink, err)
	}
}

func TestSingleTaskChain(t *testing.T) {
	g := New()
	if _, err := g.AddTask("only", r(1, 1)); err != nil {
		t.Fatal(err)
	}
	tasks, buffers, err := g.Chain()
	if err != nil {
		t.Fatalf("Chain: %v", err)
	}
	if len(tasks) != 1 || len(buffers) != 0 {
		t.Errorf("Chain() = %d tasks, %d buffers", len(tasks), len(buffers))
	}
}

func TestClone(t *testing.T) {
	g := figure1(t)
	c := g.Clone()
	c.Buffers()[0].Capacity = 99
	if g.Buffers()[0].Capacity == 99 {
		t.Error("clone shares buffer storage with original")
	}
	if len(c.Tasks()) != len(g.Tasks()) {
		t.Error("clone lost tasks")
	}
}

func TestConstraintValidate(t *testing.T) {
	g := figure1(t)
	ok := Constraint{Task: "wb", Period: r(1, 10)}
	if err := ok.Validate(g); err != nil {
		t.Errorf("valid sink constraint rejected: %v", err)
	}
	okSrc := Constraint{Task: "wa", Period: r(1, 10)}
	if err := okSrc.Validate(g); err != nil {
		t.Errorf("valid source constraint rejected: %v", err)
	}
	bad := []Constraint{
		{Task: "wb", Period: ratio.Zero},
		{Task: "nope", Period: r(1, 10)},
	}
	for _, c := range bad {
		if err := c.Validate(g); err == nil {
			t.Errorf("constraint %+v accepted", c)
		}
	}
	// Middle task of a 3-chain is not a legal constraint target.
	g3, err := BuildChain(
		[]Stage{{"a", r(1, 1)}, {"b", r(1, 1)}, {"c", r(1, 1)}},
		[]Link{
			{Prod: MustQuanta(1), Cons: MustQuanta(1)},
			{Prod: MustQuanta(1), Cons: MustQuanta(1)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	mid := Constraint{Task: "b", Period: r(1, 10)}
	if err := mid.Validate(g3); err == nil {
		t.Error("constraint on middle task accepted")
	}
}

func TestBuildChainErrors(t *testing.T) {
	if _, err := BuildChain(nil, nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := BuildChain([]Stage{{"a", r(1, 1)}}, []Link{{Prod: MustQuanta(1), Cons: MustQuanta(1)}}); err == nil {
		t.Error("stage/link count mismatch accepted")
	}
}

func TestSortedTaskNames(t *testing.T) {
	g := figure1(t)
	names := g.SortedTaskNames()
	if len(names) != 2 || names[0] != "wa" || names[1] != "wb" {
		t.Errorf("SortedTaskNames = %v", names)
	}
}
