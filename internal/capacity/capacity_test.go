package capacity

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"vrdfcap/internal/mp3"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

func r(n, d int64) ratio.Rat { return ratio.MustNew(n, d) }

// mp3Graph returns the Figure-5 application and its constraint.
func mp3Graph(t *testing.T) (*taskgraph.Graph, taskgraph.Constraint) {
	t.Helper()
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g, mp3.Constraint()
}

func TestMP3PhiMatchesPaperResponseTimes(t *testing.T) {
	// §5: "From the throughput constraint, we can derive response times
	// that would just allow the throughput constraint to be satisfied":
	// 51.2 ms, 24 ms, 10 ms, 0.0227 ms. These are exactly the minimal
	// start distances φ.
	g, c := mp3Graph(t)
	res, err := Compute(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]ratio.Rat{
		mp3.TaskBR:  r(32, 625),  // 51.2 ms
		mp3.TaskMP3: r(3, 125),   // 24 ms
		mp3.TaskSRC: r(1, 100),   // 10 ms
		mp3.TaskDAC: r(1, 44100), // τ
	}
	for task, w := range want {
		if got := res.Phi[task]; !got.Equal(w) {
			t.Errorf("φ(%s) = %v s, want %v s", task, got, w)
		}
	}
	if !res.Valid {
		t.Errorf("result invalid: %v", res.Diagnostics)
	}
	for _, ck := range res.Checks {
		if !ck.OK {
			t.Errorf("check failed for %s: ρ=%v > φ=%v", ck.Task, ck.Rho, ck.Phi)
		}
		// The paper picks ρ = φ exactly ("just allow").
		if !ck.Rho.Equal(ck.Phi) {
			t.Errorf("%s: ρ=%v != φ=%v; WCRTs should be exactly critical", ck.Task, ck.Rho, ck.Phi)
		}
	}
}

func TestMP3CapacitiesEquation4(t *testing.T) {
	g, c := mp3Graph(t)
	res, err := Compute(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	want := []int64{6015, 3263, 883}
	for i, n := range names {
		br := res.BufferByName(n)
		if br == nil {
			t.Fatalf("missing buffer %s", n)
		}
		if br.Capacity != want[i] {
			t.Errorf("d%d (%s) = %d, want %d", i+1, n, br.Capacity, want[i])
		}
	}
}

func TestMP3CapacitiesHybridRefinement(t *testing.T) {
	// The hybrid refinement keeps Equation (4) on the variable first
	// buffer and takes the tighter gcd-granularity bound on the two
	// constant buffers: (6015, 3072, 882). The middle value is below the
	// paper's 3263 because [14]'s refinement applies to that pair; the
	// third matches the paper's published 882.
	g, c := mp3Graph(t)
	res, err := Compute(g, c, PolicyHybrid)
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	want := []int64{6015, 3072, 882}
	for i, n := range names {
		br := res.BufferByName(n)
		if br.Capacity != want[i] {
			t.Errorf("d%d (%s) = %d, want %d", i+1, n, br.Capacity, want[i])
		}
	}
	// Buffers 2 and 3 have constant rates; buffer 1 is variable.
	if res.Buffers[0].ConstantRates || !res.Buffers[1].ConstantRates || !res.Buffers[2].ConstantRates {
		t.Errorf("ConstantRates flags = %v %v %v, want false true true",
			res.Buffers[0].ConstantRates, res.Buffers[1].ConstantRates, res.Buffers[2].ConstantRates)
	}
	// Hybrid is never looser than Equation (4).
	eq4, err := Compute(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Buffers {
		if res.Buffers[i].Capacity > eq4.Buffers[i].Capacity {
			t.Errorf("hybrid %s = %d looser than eq4 %d",
				res.Buffers[i].Buffer, res.Buffers[i].Capacity, eq4.Buffers[i].Capacity)
		}
	}
}

func TestMP3BaselineLowerBound(t *testing.T) {
	// §5: assuming n constant at 960, traditional analysis [10] yields
	// d1 = 5888, d2 = 3072, d3 = 882.
	g, c := mp3Graph(t)
	constGraph := WithConstantMaxRates(g)
	res, err := Compute(constGraph, c, PolicyBaseline)
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	want := []int64{5888, 3072, 882}
	for i, n := range names {
		br := res.BufferByName(n)
		if br.Capacity != want[i] {
			t.Errorf("baseline d%d (%s) = %d, want %d", i+1, n, br.Capacity, want[i])
		}
	}
}

func TestBaselineRejectsVariableRates(t *testing.T) {
	g, c := mp3Graph(t)
	if _, err := Compute(g, c, PolicyBaseline); err == nil {
		t.Fatal("baseline accepted a variable-rate graph")
	} else if !strings.Contains(err.Error(), "variable quanta") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestFigure1PairCapacity(t *testing.T) {
	// The motivating example: m = {3}, n = {2,3}. With τ = 3 time units
	// and ρ(va) = ρ(vb) = 1: μ = 1, Eq(3) = 1+1+2+2 = 6, Eq(4) = 7.
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g, taskgraph.Constraint{Task: "wb", Period: r(3, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Buffers[0].Capacity; got != 7 {
		t.Errorf("capacity = %d, want 7", got)
	}
	if res.Direction != SinkConstrained {
		t.Errorf("direction = %v, want sink-constrained", res.Direction)
	}
	// φ(wa) = (3/3)·3 = 3.
	if got := res.Phi["wa"]; !got.Equal(r(3, 1)) {
		t.Errorf("φ(wa) = %v, want 3", got)
	}
	if !res.Valid {
		t.Errorf("unexpectedly invalid: %v", res.Diagnostics)
	}
}

func TestSlowProducerDetected(t *testing.T) {
	// Same pair but the producer's WCRT exceeds φ(wa) = 3: the paper's
	// producer-schedule condition ρ(va) ≤ π̌·τ/γ̂ fails.
	g, err := taskgraph.Pair("wa", r(7, 2), "wb", r(1, 1),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g, taskgraph.Constraint{Task: "wb", Period: r(3, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Fatal("slow producer accepted")
	}
	found := false
	for _, ck := range res.Checks {
		if ck.Task == "wa" && !ck.OK {
			found = true
		}
	}
	if !found {
		t.Error("no failing check recorded for wa")
	}
	if len(res.Diagnostics) == 0 {
		t.Error("no diagnostics recorded")
	}
}

func TestSourceConstrainedSymmetry(t *testing.T) {
	// §4.4: constraint on the source. Producer wa produces {2,3} per
	// firing, consumer wb consumes 3. Rates derive from the source:
	// μ = τ/π̂ = 1, φ(wb) = μ·γ̌ = 3.
	g, err := taskgraph.Pair("wa", r(1, 1), "wb", r(1, 1),
		taskgraph.MustQuanta(2, 3), taskgraph.MustQuanta(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g, taskgraph.Constraint{Task: "wa", Period: r(3, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Direction != SourceConstrained {
		t.Fatalf("direction = %v, want source-constrained", res.Direction)
	}
	if got := res.Phi["wb"]; !got.Equal(r(3, 1)) {
		t.Errorf("φ(wb) = %v, want 3", got)
	}
	// Same distances as the mirrored sink case: Eq(3) = 6, Eq(4) = 7.
	if got := res.Buffers[0].Capacity; got != 7 {
		t.Errorf("capacity = %d, want 7", got)
	}
	if !res.Valid {
		t.Errorf("unexpectedly invalid: %v", res.Diagnostics)
	}
}

func TestZeroQuantaAsymmetry(t *testing.T) {
	// Sink-constrained chains allow consumption quanta to contain 0 but
	// not production quanta; source-constrained chains are the mirror
	// image (§4.2 end, §4.4).
	consZero, err := taskgraph.Pair("wa", r(1, 100), "wb", r(1, 100),
		taskgraph.MustQuanta(3), taskgraph.MustQuanta(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(consZero, taskgraph.Constraint{Task: "wb", Period: r(1, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Errorf("consumption-zero sink-constrained chain rejected: %v", res.Diagnostics)
	}

	prodZero, err := taskgraph.Pair("wa", r(1, 100), "wb", r(1, 100),
		taskgraph.MustQuanta(0, 3), taskgraph.MustQuanta(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err = Compute(prodZero, taskgraph.Constraint{Task: "wb", Period: r(1, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Error("production-zero sink-constrained chain accepted")
	}

	res, err = Compute(prodZero, taskgraph.Constraint{Task: "wa", Period: r(1, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Valid {
		t.Errorf("production-zero source-constrained chain rejected: %v", res.Diagnostics)
	}

	res, err = Compute(consZero, taskgraph.Constraint{Task: "wa", Period: r(1, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Valid {
		t.Error("consumption-zero source-constrained chain accepted")
	}
}

func TestSizedSetsCapacities(t *testing.T) {
	g, c := mp3Graph(t)
	res, err := Compute(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	sized, err := Sized(g, res)
	if err != nil {
		t.Fatal(err)
	}
	names := mp3.BufferNames()
	want := []int64{6015, 3263, 883}
	for i, n := range names {
		if got := sized.BufferByName(n).Capacity; got != want[i] {
			t.Errorf("sized %s capacity = %d, want %d", n, got, want[i])
		}
		// Original untouched.
		if got := g.BufferByName(n).Capacity; got != 0 {
			t.Errorf("original %s capacity mutated to %d", n, got)
		}
	}
}

func TestTotalCapacity(t *testing.T) {
	g, c := mp3Graph(t)
	res, err := Compute(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TotalCapacity(); got != 6015+3263+883 {
		t.Errorf("TotalCapacity = %d, want %d", got, 6015+3263+883)
	}
}

func TestPolicyParsingAndString(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Policy
	}{
		{"equation4", PolicyEquation4}, {"eq4", PolicyEquation4}, {"vrdf", PolicyEquation4},
		{"baseline", PolicyBaseline}, {"sdf", PolicyBaseline},
		{"hybrid", PolicyHybrid}, {"paper", PolicyHybrid},
	} {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	if PolicyEquation4.String() != "equation4" || PolicyBaseline.String() != "baseline" || PolicyHybrid.String() != "hybrid" {
		t.Error("policy String() mismatch")
	}
	if SinkConstrained.String() == SourceConstrained.String() {
		t.Error("direction String() not distinct")
	}
}

func TestConstraintOnNonEndpointRejected(t *testing.T) {
	g, err := taskgraph.BuildChain(
		[]taskgraph.Stage{{Name: "a", WCRT: r(1, 1)}, {Name: "b", WCRT: r(1, 1)}, {Name: "c", WCRT: r(1, 1)}},
		[]taskgraph.Link{
			{Prod: taskgraph.MustQuanta(1), Cons: taskgraph.MustQuanta(1)},
			{Prod: taskgraph.MustQuanta(1), Cons: taskgraph.MustQuanta(1)},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compute(g, taskgraph.Constraint{Task: "b", Period: r(1, 1)}, PolicyEquation4); err == nil {
		t.Error("middle-task constraint accepted")
	}
}

func TestWithConstantRateHelpers(t *testing.T) {
	g, _ := mp3Graph(t)
	maxG := WithConstantMaxRates(g)
	b := maxG.BufferByName(mp3.TaskBR + "->" + mp3.TaskMP3)
	if !b.Cons.IsConstant() || b.Cons.Max() != 960 {
		t.Errorf("max-rate collapse gave %v, want 960", b.Cons)
	}
	minG := WithConstantMinRates(g)
	b = minG.BufferByName(mp3.TaskBR + "->" + mp3.TaskMP3)
	if !b.Cons.IsConstant() || b.Cons.Max() != 96 {
		t.Errorf("min-rate collapse gave %v, want 96", b.Cons)
	}
	// Zero-containing sets collapse to the smallest positive member.
	zg, err := taskgraph.Pair("a", r(1, 1), "b", r(1, 1),
		taskgraph.MustQuanta(5), taskgraph.MustQuanta(0, 4, 9))
	if err != nil {
		t.Fatal(err)
	}
	zmin := WithConstantMinRates(zg)
	if got := zmin.Buffers()[0].Cons; !got.IsConstant() || got.Max() != 4 {
		t.Errorf("zero-set collapse gave %v, want 4", got)
	}
}

func TestPropEq4AtLeastBaselineOnConstantGraphs(t *testing.T) {
	// On constant-rate buffers Equation (4) is never tighter than the
	// baseline: the paper's method trades tightness for generality.
	f := func(p8, c8, rp, rc uint8) bool {
		p, c := int64(p8%30)+1, int64(c8%30)+1
		g, err := taskgraph.Pair("a", r(int64(rp)+1, 10), "b", r(int64(rc)+1, 10),
			taskgraph.MustQuanta(p), taskgraph.MustQuanta(c))
		if err != nil {
			return false
		}
		// Period large enough that the consumer's check passes.
		con := taskgraph.Constraint{Task: "b", Period: r(int64(c8)+100, 1)}
		res, err := Compute(g, con, PolicyEquation4)
		if err != nil {
			return false
		}
		return res.Buffers[0].CapacityEq4 >= res.Buffers[0].CapacityBaseline
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCapacityMonotoneInPeriod(t *testing.T) {
	// Shrinking the period (tightening throughput) never shrinks the
	// required capacity.
	f := func(tau8 uint8) bool {
		tau := r(int64(tau8%50)+10, 1)
		g, err := taskgraph.Pair("a", r(1, 1), "b", r(1, 1),
			taskgraph.MustQuanta(3), taskgraph.MustQuanta(2, 3))
		if err != nil {
			return false
		}
		res1, err := Compute(g, taskgraph.Constraint{Task: "b", Period: tau}, PolicyEquation4)
		if err != nil {
			return false
		}
		res2, err := Compute(g, taskgraph.Constraint{Task: "b", Period: tau.MulInt(2)}, PolicyEquation4)
		if err != nil {
			return false
		}
		return res1.Buffers[0].Capacity >= res2.Buffers[0].Capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryReporting(t *testing.T) {
	g, c := mp3Graph(t)
	res, err := Compute(g, c, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	// d1 counts bytes (1 B containers); d2 and d3 carry 4-byte samples.
	names := mp3.BufferNames()
	wantBytes := []int64{6015 * 1, 3263 * 4, 883 * 4}
	var total int64
	for i, n := range names {
		br := res.BufferByName(n)
		if got := br.MemoryBytes(); got != wantBytes[i] {
			t.Errorf("%s memory = %d B, want %d", n, got, wantBytes[i])
		}
		total += wantBytes[i]
	}
	if got := res.TotalMemoryBytes(); got != total {
		t.Errorf("TotalMemoryBytes = %d, want %d", got, total)
	}
	// Unspecified container sizes report zero memory.
	pair, err := taskgraph.Pair("a", r(1, 1), "b", r(1, 1),
		taskgraph.MustQuanta(1), taskgraph.MustQuanta(1))
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Compute(pair, taskgraph.Constraint{Task: "b", Period: r(2, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if pres.TotalMemoryBytes() != 0 {
		t.Errorf("unspecified container sizes yielded %d bytes", pres.TotalMemoryBytes())
	}
}

// TestOverflowIsTypedError pins that a valid document whose rationals
// leave int64 fails Compute with an error wrapping *ratio.OverflowError,
// instead of panicking: in the φ propagation (a 10^18 period times a
// 10^15 production quantum), and in Equation (3), where two response times
// with coprime denominators near 4·10^9 sum past int64.
func TestOverflowIsTypedError(t *testing.T) {
	cases := []struct {
		name       string
		rhoA, rhoB ratio.Rat
		prod       taskgraph.QuantaSet
		period     ratio.Rat
		want       string
	}{
		{"phi", r(1, 1), r(1, 1), taskgraph.MustQuanta(1000000000000000, 1000000000000001),
			r(1000000000000000000, 1), "capacity: task a: minimal start distance φ: ratio: int64 overflow in mul"},
		{"eq3", r(1, 4000000007), r(1, 4000000009), taskgraph.MustQuanta(1),
			r(1, 1), "capacity: buffer a->b: ratio: int64 overflow in add"},
	}
	for _, c := range cases {
		g, err := taskgraph.Pair("a", c.rhoA, "b", c.rhoB, c.prod, taskgraph.MustQuanta(1))
		if err != nil {
			t.Fatal(err)
		}
		_, err = Compute(g, taskgraph.Constraint{Task: "b", Period: c.period}, PolicyHybrid)
		var oe *ratio.OverflowError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: Compute error %v does not wrap *ratio.OverflowError", c.name, err)
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}
