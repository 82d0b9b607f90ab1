package capacity

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// verdictMatchesAt fails tb unless a.verdict(tau) reports At(tau)'s Valid
// and TotalCapacity(), or its error text. It returns whether the closed
// form answered.
func verdictMatchesAt(tb testing.TB, a *Analysis, tau ratio.Rat, what string) bool {
	tb.Helper()
	valid, total, err := a.verdict(tau)
	res, atErr := a.At(tau)
	switch {
	case atErr != nil || err != nil:
		if fmt.Sprint(err) != fmt.Sprint(atErr) {
			tb.Fatalf("%s at %v: verdict error %v, At error %v", what, tau, err, atErr)
		}
	case valid != res.Valid || total != res.TotalCapacity():
		tb.Fatalf("%s at %v: verdict (%v, %d), At (%v, %d)", what, tau, valid, total, res.Valid, res.TotalCapacity())
	}
	return tau.Sign() > 0 && a.closed.admits(uint64(tau.Num()), uint64(tau.Den()))
}

// TestVerdictMatchesAt is the closed form's differential oracle over the
// golden fixture: every chain, both chain ends, all three policies, zero
// quanta and the k/32·τ grid. On this fixture the closed form answers
// every point of Equation (4) and the hybrid policy, and of the baseline
// policy wherever every quantum is constant.
func TestVerdictMatchesAt(t *testing.T) {
	var closed, viaAt int
	goldenFixtures(t, func(i int, task string, p Policy, a *Analysis, grid []ratio.Rat) {
		for _, tau := range grid {
			if verdictMatchesAt(t, a, tau, fmt.Sprintf("chain %d %s %v", i, task, p)) {
				closed++
				continue
			}
			viaAt++
			if p != PolicyBaseline {
				t.Errorf("chain %d %s %v at %v: the closed form did not answer", i, task, p, tau)
			}
		}
	})
	t.Logf("%d points answered by the closed form, %d by At", closed, viaAt)
	if closed == 0 || viaAt == 0 {
		t.Fatalf("%d closed-form and %d At points; want both", closed, viaAt)
	}
}

// sweepMatchesAt checks SweepPeriodsOpt on the one period tau against
// At: the same (Valid, Total) or the same wrapped error text. It checks
// MinimalFeasiblePeriod against its contract on {tau} and on {tau, 1}
// (minimalPeriodMatchesRef). It returns whether the closed form answered.
func sweepMatchesAt(tb testing.TB, g *taskgraph.Graph, task string, p Policy, tau ratio.Rat) bool {
	tb.Helper()
	a, err := CompileAnalysis(g, task, p)
	if err != nil {
		tb.Fatal(err)
	}
	closed := verdictMatchesAt(tb, a, tau, "verdict")
	res, atErr := a.At(tau)
	pts, err := SweepPeriodsOpt(g, task, []ratio.Rat{tau}, p, SweepOptions{})
	switch {
	case atErr != nil:
		want := fmt.Sprintf("capacity: period %v: %v", tau, atErr)
		if err == nil || err.Error() != want {
			tb.Fatalf("sweep at %v: error %v, want %s", tau, err, want)
		}
	case err != nil:
		tb.Fatalf("sweep at %v: %v, At succeeded", tau, err)
	case pts[0].Valid != res.Valid || pts[0].Total != res.TotalCapacity() || pts[0].Result != nil:
		tb.Fatalf("sweep at %v: (%v, %d, %p), At (%v, %d)", tau, pts[0].Valid, pts[0].Total, pts[0].Result, res.Valid, res.TotalCapacity())
	}
	minimalPeriodMatchesRef(tb, a, g, task, p, []ratio.Rat{tau})
	minimalPeriodMatchesRef(tb, a, g, task, p, []ratio.Rat{tau, ratio.One})
	return closed
}

// minimalPeriodMatchesRef checks MinimalFeasiblePeriod on the positive
// candidates against its contract, with the threshold derived
// independently (refThreshold) and a, compiled from the same chain,
// answering At: where the chain has T, At runs only at the least
// candidate ≥ T, and its Result (which must be valid) or its wrapped error
// is the answer; where it has none, the candidates are decided in
// ascending order through At, and the first error or valid point is the
// answer. Anything else is the "no feasible period" error.
func minimalPeriodMatchesRef(tb testing.TB, a *Analysis, g *taskgraph.Graph, task string, p Policy, cands []ratio.Rat) {
	tb.Helper()
	sorted := slices.Clone(cands)
	slices.SortFunc(sorted, ratio.Rat.Cmp)
	sorted = slices.CompactFunc(sorted, ratio.Rat.Equal)
	var want *Result
	wantErr := fmt.Sprintf("capacity: no feasible period among %d candidates (fastest %v, slowest %v)",
		len(sorted), sorted[0], sorted[len(sorted)-1])
	decide := func(tau ratio.Rat) bool {
		res, err := a.At(tau)
		switch {
		case err != nil:
			wantErr = fmt.Sprintf("capacity: period %v: %v", tau, err)
		case res.Valid:
			want, wantErr = res, ""
		default:
			return false
		}
		return true
	}
	t, feasible, ok := refThreshold(tb, g, task, p)
	for _, tau := range sorted {
		if !ok {
			if decide(tau) {
				break
			}
			continue
		}
		if feasible && big.NewRat(tau.Num(), tau.Den()).Cmp(t) >= 0 {
			if !decide(tau) {
				tb.Fatalf("At(%v) is invalid, above the threshold %v", tau, t)
			}
			break
		}
	}
	got, err := MinimalFeasiblePeriod(g, task, cands, p)
	switch {
	case wantErr != "":
		if err == nil || err.Error() != wantErr {
			tb.Fatalf("minimal period of %v: (%v, %v), want error %s", cands, got.Period, err, wantErr)
		}
	case err != nil:
		tb.Fatalf("minimal period of %v: %v, want %v", cands, err, want.Constraint.Period)
	case !got.Period.Equal(want.Constraint.Period) || !got.Valid || got.Total != want.TotalCapacity() ||
		fmt.Sprintf("%+v", got.Result) != fmt.Sprintf("%+v", want):
		tb.Fatalf("minimal period of %v: %+v, want At's %+v", cands, got, want)
	}
}

// refThreshold derives the minimal-period threshold in math/big by
// §4.3/§4.4: T = max_w ρ(w)/c_w with φ(w) = c_w·τ, and feasible false when
// a zero quantum rules every period out. ok is false where the contract
// has no T: At fails at every period for a reason that does not depend on
// it, or a rate constant κ, a constant c_w or ρ(w)/c_w leaves int64.
func refThreshold(tb testing.TB, g *taskgraph.Graph, task string, p Policy) (t *big.Rat, feasible, ok bool) {
	tb.Helper()
	tasks, bufs, err := g.ChainFor(task)
	if err != nil {
		tb.Fatal(err)
	}
	if p != PolicyEquation4 && p != PolicyBaseline && p != PolicyHybrid {
		return nil, false, false
	}
	for _, w := range tasks {
		if w.WCRT.Sign() <= 0 {
			return nil, false, false
		}
	}
	rat := func(v ratio.Rat) *big.Rat { return big.NewRat(v.Num(), v.Den()) }
	fits := func(v *big.Rat) bool { return v.Num().IsInt64() && v.Denom().IsInt64() }
	sink := task == tasks[len(tasks)-1].Name
	w := tasks[0]
	if sink {
		w = tasks[len(tasks)-1]
	}
	c, t, feasible := big.NewRat(1, 1), rat(w.WCRT), true
	for j := range bufs {
		i := j
		if sink {
			i = len(bufs) - 1 - j
		}
		b := bufs[i]
		div, mul, w := b.Prod.Max(), b.Cons.Min(), tasks[i+1]
		if sink {
			div, mul, w = b.Cons.Max(), b.Prod.Min(), tasks[i]
		}
		if b.Prod.Max() < 1 || b.Cons.Max() < 1 || p == PolicyBaseline && !(b.Prod.IsConstant() && b.Cons.IsConstant()) {
			return nil, false, false
		}
		kappa := new(big.Rat).Quo(c, big.NewRat(div, 1))
		c = kappa
		if mul == 0 {
			feasible = false
		} else {
			c = new(big.Rat).Mul(kappa, big.NewRat(mul, 1))
		}
		tw := new(big.Rat).Quo(rat(w.WCRT), c)
		if !fits(kappa) || !fits(c) || !fits(tw) {
			return nil, false, false
		}
		if tw.Cmp(t) > 0 {
			t = tw
		}
	}
	return t, feasible, true
}

// fuzzSweepCase builds the chain and period of one FuzzSweepMatchesAt
// input; seed%3 picks the policy. The bits of shape:
//
//   - 0–5 shift num and den right, so their bit lengths spread over 0–63;
//   - 6 picks 1024 instead of 8 as the largest quantum, 7 the other chain
//     end for the constraint;
//   - 8 instead gives num and den exactly the bit lengths the closed form
//     admits, plus bit 9 and bit 10 respectively;
//   - 11–15, when not 0, are the largest bit length of the numerator and
//     the denominator of a response time redrawn for about half the tasks,
//     for constants with large coprime components.
//
// seed/3%3 + 1 is the largest quanta set, so some chains are constant.
func fuzzSweepCase(tb testing.TB, seed int64, shape uint16, num, den uint64) (*taskgraph.Graph, string, Policy, ratio.Rat) {
	tb.Helper()
	cfg := graphgen.Config{
		Seed: seed, MinTasks: 2, MaxTasks: 6, MaxQuantum: 8, MaxSetSize: int(uint64(seed)/3%3) + 1,
		SourceConstrained: seed%2 != 0, ZeroConsumption: seed%5 == 0,
	}
	if shape&(1<<6) != 0 {
		cfg.MaxQuantum = 1024
	}
	g, c, err := graphgen.Random(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if kb := int(shape >> 11); kb > 0 {
		rng := rand.New(rand.NewSource(seed))
		draw := func() int64 { return 1 + rng.Int63n(1<<(1+rng.Intn(kb))) }
		for _, w := range g.Tasks() {
			if rng.Intn(2) == 0 {
				w.WCRT = ratio.MustNew(draw(), draw())
			}
		}
	}
	task := c.Task
	if shape&(1<<7) != 0 {
		tasks, _, err := g.Chain()
		if err != nil {
			tb.Fatal(err)
		}
		if task = tasks[0].Name; task == c.Task {
			task = tasks[len(tasks)-1].Name
		}
	}
	p := Policy(uint64(seed) % 3)
	s := uint(shape & 63)
	n, d := (num>>s)&math.MaxInt64, (den>>s)&math.MaxInt64
	if shape&(1<<8) != 0 {
		a, err := CompileAnalysis(g, task, p)
		if err != nil {
			tb.Fatal(err)
		}
		if a.closed != nil {
			n = withBitLen(num, a.closed.numBits+int(shape>>9&1))
			d = withBitLen(den, a.closed.denBits+int(shape>>10&1))
		}
	}
	tau, err := ratio.New(max(int64(n), 1), max(int64(d), 1))
	if err != nil {
		tb.Fatal(err)
	}
	return g, task, p, tau
}

// withBitLen returns v cut to bit length b (at most 63), its top bit set.
func withBitLen(v uint64, b int) uint64 {
	b = min(b, 63)
	return v&(1<<(b-1)-1) | 1<<(b-1)
}

// FuzzSweepMatchesAt is the closed form's differential oracle on random
// chains and periods, periods with 30–62-bit components and periods at the
// edge of the closed form's bound included, so both the closed form and
// its At fallback run, also where At overflows.
func FuzzSweepMatchesAt(f *testing.F) {
	type input struct {
		seed     int64
		shape    uint16
		num, den uint64
	}
	seeds := []input{
		{1, 58, 1 << 62, 3 << 60},            // small components
		{2, 40, 12345, 987654321},            // tiny components
		{3, 0, 1<<62 + 7, 1<<61 + 3},         // 62-bit components
		{4, 32, 0xfedcba9876543210, 1 << 63}, // 31-bit components
		{5, 64 + 50, 1 << 62, 5 << 59},       // large quanta
		{6, 128 + 30, 1 << 61, 1 << 60},      // the other chain end, 30-bit components
		{7, 64 + 128 + 8, 1<<63 - 1, 1<<62 + 1},
		{9, 20, 3 << 61, 7 << 60},
		{10, 256, 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9},              // the bound's edge
		{11, 256 + 512 + 1024 + 15<<11, 0x94d049bb133111eb, 1<<63 + 1}, // one bit past it, scaled response times
		{12, 30 + 20<<11, 1 << 62, 1<<62 - 1},
	}
	var closed, viaAt int
	for _, in := range seeds {
		f.Add(in.seed, in.shape, in.num, in.den)
		g, task, p, tau := fuzzSweepCase(f, in.seed, in.shape, in.num, in.den)
		if sweepMatchesAt(f, g, task, p, tau) {
			closed++
		} else {
			viaAt++
		}
	}
	if closed == 0 || viaAt == 0 {
		f.Fatalf("seed inputs: %d answered by the closed form, %d by At; want both", closed, viaAt)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint16, num, den uint64) {
		g, task, p, tau := fuzzSweepCase(t, seed, shape, num, den)
		sweepMatchesAt(t, g, task, p, tau)
	})
}

// TestVerdictAtBoundEdge runs the oracle at periods whose components have
// exactly the bit lengths the closed form admits, or one more, on chains
// with large response-time components: the bound must keep every admitted
// period inside At's int64 range.
func TestVerdictAtBoundEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	var closed int
	for i := 0; i < 3000; i++ {
		shape := uint16(1<<8 | rng.Intn(1<<16)&^(1<<8-1))
		g, task, p, tau := fuzzSweepCase(t, int64(i), shape, rng.Uint64(), rng.Uint64())
		if sweepMatchesAt(t, g, task, p, tau) {
			closed++
		}
	}
	if closed == 0 {
		t.Fatal("the closed form answered no period")
	}
}

// TestSweepOverflowMatchesCompute pins that a sweep reports Compute's
// wrapped *ratio.OverflowError at a period where the analysis leaves
// int64: the pair with production quanta {10^15, 10^15+1} at period 10^18.
func TestSweepOverflowMatchesCompute(t *testing.T) {
	g, err := taskgraph.Pair("a", r(1, 1), "b", r(1, 1),
		taskgraph.MustQuanta(1000000000000000, 1000000000000001), taskgraph.MustQuanta(1))
	if err != nil {
		t.Fatal(err)
	}
	tau := r(1000000000000000000, 1)
	_, want := Compute(g, taskgraph.Constraint{Task: "b", Period: tau}, PolicyEquation4)
	if want == nil {
		t.Fatal("Compute did not overflow")
	}
	wantText := "capacity: period 1000000000000000000: " + want.Error()
	_, err = SweepPeriods(g, "b", []ratio.Rat{r(1, 1), tau}, PolicyEquation4)
	_, minErr := MinimalFeasiblePeriod(g, "b", []ratio.Rat{tau}, PolicyEquation4)
	for name, err := range map[string]error{"SweepPeriods": err, "MinimalFeasiblePeriod": minErr} {
		var oe *ratio.OverflowError
		if !errors.As(err, &oe) || err.Error() != wantText {
			t.Errorf("%s: error %v, want %s wrapping *ratio.OverflowError", name, err, wantText)
		}
	}
}

// TestMinimalFeasiblePeriodIgnoresOverflowAboveWinner pins that an At
// failure at a candidate the winner makes irrelevant leaves the answer
// standing: on the overflow pair above, τ = 1 is feasible and At fails at
// 10^18, so the minimal period of {10^18, 1} is 1, with Compute's
// analysis there.
func TestMinimalFeasiblePeriodIgnoresOverflowAboveWinner(t *testing.T) {
	g, err := taskgraph.Pair("a", r(1, 1), "b", r(1, 1),
		taskgraph.MustQuanta(1000000000000000, 1000000000000001), taskgraph.MustQuanta(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compute(g, taskgraph.Constraint{Task: "b", Period: ratio.One}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := MinimalFeasiblePeriod(g, "b", []ratio.Rat{r(1000000000000000000, 1), ratio.One}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Period.Equal(ratio.One) || !pt.Valid || pt.Total != 1000000000000003 ||
		fmt.Sprintf("%+v", pt.Result) != fmt.Sprintf("%+v", want) {
		t.Errorf("minimal period = (%v, %v, %d), want (1, true, 1000000000000003) with Compute's result", pt.Period, pt.Valid, pt.Total)
	}
}

// TestSweepAllocs pins that a sweep allocates a fixed handful of times
// whatever its number of periods: compiling the chain and the closed form,
// and the point slice. When every point built a Result, this 8-task
// chain's sweep allocated 75 times at 4 periods and 567 at 64.
func TestSweepAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g, c, err := graphgen.Random(graphgen.Config{Seed: 1, MinTasks: 8, MaxTasks: 8, MaxQuantum: 8, MaxSetSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	grid := chainSweepGrid(c.Period)
	allocs := func(periods []ratio.Rat) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := SweepPeriodsOpt(g, c.Task, periods, PolicyEquation4, SweepOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, all := allocs(grid[:4]), allocs(grid)
	t.Logf("8-task sweep: %v allocs at 4 periods, %v at 64", few, all)
	if all != few || all > sweepAllocs {
		t.Errorf("8-task sweep allocates %v times at 4 periods and %v at 64; want the same count, at most %d", few, all, sweepAllocs)
	}
}

// sweepAllocs bounds TestSweepAllocs.
const sweepAllocs = 8
