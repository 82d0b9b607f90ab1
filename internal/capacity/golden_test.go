package capacity

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
)

// goldenAnalysisDigest is the SHA-256 of every Result (or error) that
// goldenAnalysisTranscript produces. It pins the closed-form analysis
// byte for byte — values, canonical rational forms, check order and
// diagnostic wording — so a change to the arithmetic or to how results
// are assembled must reproduce the previous output exactly.
const goldenAnalysisDigest = "7976e4856f70f1c3a478f5b16258217f82ea19f099f3390a50eb77a47da43c7d"

// chainSweepGrid is the k/32·τ grid, k = 1..64, of the chain-sweep ledger
// workload: it spans infeasible periods below the constraint and relaxed
// ones above it.
func chainSweepGrid(tau ratio.Rat) []ratio.Rat {
	out := make([]ratio.Rat, 64)
	for k := range out {
		out[k] = tau.MulInt(int64(k + 1)).DivInt(32)
	}
	return out
}

// goldenAnalysisTranscript analyses every golden fixture at every grid
// point and feeds each fmt.Sprintf("%+v") of the Result, or the error, to
// emit together with the Result or error it renders.
func goldenAnalysisTranscript(t *testing.T, emit func(line string, res *Result, err error)) {
	t.Helper()
	goldenFixtures(t, func(i int, task string, p Policy, a *Analysis, grid []ratio.Rat) {
		for _, tau := range grid {
			res, err := a.At(tau)
			if err != nil {
				emit(fmt.Sprintf("chain %d %s %v %v: error %v", i, task, p, tau, err), nil, err)
				continue
			}
			emit(fmt.Sprintf("chain %d %s %v %v: %+v", i, task, p, tau, res), res, nil)
		}
	})
}

// goldenFixtures compiles 64 graphgen chains (4–8 tasks; half sink-, half
// source-constrained, some with zero quanta) under every policy,
// constrained at the generated endpoint and at the opposite one — the
// latter drives the zero-quantum diagnostics — and hands each analysis to
// visit with the chain's k/32·τ grid.
func goldenFixtures(t *testing.T, visit func(i int, task string, p Policy, a *Analysis, grid []ratio.Rat)) {
	t.Helper()
	policies := []Policy{PolicyEquation4, PolicyBaseline, PolicyHybrid}
	for i := 0; i < 64; i++ {
		g, c, err := graphgen.Random(graphgen.Config{
			Seed: int64(1000 + i), MinTasks: 4, MaxTasks: 8, MaxQuantum: 8, MaxSetSize: 3,
			SourceConstrained: i%2 == 1, ZeroConsumption: i%4 == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		src, err := g.Source()
		if err != nil {
			t.Fatal(err)
		}
		other := src.Name
		if other == c.Task {
			snk, err := g.Sink()
			if err != nil {
				t.Fatal(err)
			}
			other = snk.Name
		}
		for _, task := range []string{c.Task, other} {
			for _, p := range policies {
				a, err := CompileAnalysis(g, task, p)
				if err != nil {
					t.Fatal(err)
				}
				visit(i, task, p, a, chainSweepGrid(c.Period))
			}
		}
	}
}

// TestGoldenAnalysisDigest pins the analysis output over the golden grid.
func TestGoldenAnalysisDigest(t *testing.T) {
	h := sha256.New()
	var valid, invalid, zeroQuantum, errs int
	goldenAnalysisTranscript(t, func(line string, res *Result, err error) {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
		switch {
		case err != nil:
			errs++
		case res.Valid:
			valid++
		default:
			invalid++
			for _, d := range res.Diagnostics {
				if strings.Contains(d, "quantum 0") {
					zeroQuantum++
					break
				}
			}
		}
	})
	t.Logf("%d valid, %d invalid (%d zero-quantum), %d errors", valid, invalid, zeroQuantum, errs)
	// The transcript must keep exercising every kind of output, or the
	// digest would pin less than it claims.
	if valid == 0 || invalid == 0 || zeroQuantum == 0 || errs == 0 {
		t.Fatalf("transcript coverage: %d valid, %d invalid (%d with zero-quantum diagnostics), %d errors; want all non-zero",
			valid, invalid, zeroQuantum, errs)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != goldenAnalysisDigest {
		t.Fatalf("analysis transcript digest = %s, want %s", got, goldenAnalysisDigest)
	}
}
