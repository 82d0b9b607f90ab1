package sim_test

import (
	"fmt"
	"testing"

	"vrdfcap/internal/capacity"
	"vrdfcap/internal/faults"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// TestOffsetMonotonicity property-tests the rule sim.Verifier.Feasible rests
// on, a consequence of Definition 1 next to TestMonotonicityInStartTimes: a
// periodic phase that passes at start offset o passes at every later offset
// o+d. It covers random sink- and source-constrained chains, Equation-4 and
// shrunk capacities, uniform and adversarial workloads, and execution times
// jittered by the faults package, and delays d from one tick to 1000
// periods. It lives in an external test package because faults imports sim.
func TestOffsetMonotonicity(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 2
	}
	var configs, passing, checked int
	for seed := int64(1); seed <= seeds; seed++ {
		for _, source := range []bool{false, true} {
			gcfg := graphgen.Defaults(seed)
			gcfg.SourceConstrained = source
			g, c, err := graphgen.Random(gcfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Valid {
				continue
			}
			sized, err := capacity.Sized(g, res)
			if err != nil {
				t.Fatal(err)
			}
			jitter, err := faults.New(sized, faults.Spec{Jitter: ratio.MustNew(1, 2), Seed: uint64(seed)})
			if err != nil {
				t.Fatal(err)
			}
			workloads := []sim.Workloads{sim.UniformWorkloads(sized, seed)}
			for _, adv := range sim.Adversaries {
				workloads = append(workloads, sim.AdversarialWorkloads(sized, adv))
			}
			for _, quarters := range []int64{4, 3, 2, 1} {
				caps := make(map[string]int64)
				for _, b := range sized.Buffers() {
					caps[b.DefaultName()] = max(1, b.Capacity*quarters/4)
				}
				for wi, w := range workloads {
					for _, jittered := range []bool{false, true} {
						opts := sim.VerifyOptions{
							Firings:    300,
							Workloads:  w,
							LiteResult: true,
							ExtraTimes: []ratio.Rat{c.Period.DivInt(3), c.Period.DivInt(2)},
						}
						if jittered {
							jitter.Apply(&opts)
						}
						name := fmt.Sprintf("seed %d source=%v caps %d/4 workload %d jitter=%v", seed, source, quarters, wi, jittered)
						configs++
						pass, later := checkOffsetMonotone(t, name, sized, c, opts, caps)
						passing += pass
						checked += later
					}
				}
			}
		}
	}
	t.Logf("%d configurations: %d passing offsets, %d later offsets checked", configs, passing, checked)
	if passing == 0 || checked < 5*passing {
		t.Fatalf("%d passing offsets, %d later offsets checked; the property is no longer exercised", passing, checked)
	}
}

// checkOffsetMonotone derives the smallest offset O dominating the
// self-timed schedule of one configuration and, for each candidate o in
// {O, O + 1 tick, O + τ/2} that passes, requires o+d to pass for every
// delay d. It returns the passing candidates and the later offsets checked.
func checkOffsetMonotone(t *testing.T, name string, g *taskgraph.Graph, c taskgraph.Constraint, opts sim.VerifyOptions, caps map[string]int64) (passing, checked int) {
	t.Helper()
	vf, err := sim.CompileVerifier(g, c, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	v, err := vf.Verify(caps)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if v.SelfTimed.Outcome != sim.Completed {
		return 0, 0
	}
	base := v.SelfTimed.Base
	periodTicks, err := base.Ticks(c.Period)
	if err != nil {
		t.Fatal(err)
	}
	tick := base.Rat(1)
	o := base.Rat(sim.MaxLateness(v.SelfTimed.Starts[c.Task], periodTicks))
	delays := []ratio.Rat{tick, c.Period.DivInt(3), c.Period, c.Period.MulInt(100), c.Period.MulInt(1000)}
	// passesAt runs the periodic phase at exactly the given offset: a fixed
	// offset is Verify's first attempt.
	passesAt := func(offset ratio.Rat) bool {
		at := opts
		at.Offsets = []ratio.Rat{offset}
		vf, err := sim.CompileVerifier(g, c, at)
		if err != nil {
			t.Fatalf("%s: offset %v: %v", name, offset, err)
		}
		v, err := vf.Verify(caps)
		if err != nil {
			t.Fatalf("%s: offset %v: %v", name, offset, err)
		}
		return v.OK && v.Attempts == 1
	}
	for _, from := range []ratio.Rat{o, o.Add(tick), o.Add(c.Period.DivInt(2))} {
		if !passesAt(from) {
			continue
		}
		passing++
		for _, d := range delays {
			checked++
			if !passesAt(from.Add(d)) {
				t.Errorf("%s: passes at offset %v but not at %v (+%v)", name, from, from.Add(d), d)
			}
		}
	}
	return passing, checked
}
