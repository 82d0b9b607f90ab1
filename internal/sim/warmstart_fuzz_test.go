package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"vrdfcap/internal/budget"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
)

// FuzzWarmStartDifferential is the warm-start correctness oracle: across
// random chains, workloads, checkpoint configurations, capacity-probe
// sequences and fault injections, a machine that warm-starts between probes
// must produce bit-identical Results — outcome, end tick, event count,
// firing start times, per-edge statistics, underrun and deadlock
// diagnostics — to a machine that cold-resets before every run. This is the
// executable form of the warm-reset validity argument (prefix coincidence
// under the per-edge running-minimum and minimum-shortfall guards). In the
// quiet-start variant the run decides when the sink first starts, so the
// decision lies inside the prefixes that warm runs skip.
func FuzzWarmStartDifferential(f *testing.F) {
	f.Add(int64(1), int64(1), false)
	f.Add(int64(2), int64(9), true)
	f.Add(int64(5), int64(3), false)
	f.Add(int64(10), int64(0), true)
	f.Add(int64(12), int64(6), false)
	f.Add(int64(25), int64(14), true)
	f.Add(int64(3), int64(5), false) // quiet start
	f.Add(int64(7), int64(26), true) // quiet start
	f.Fuzz(func(t *testing.T, seed, capSeed int64, faulty bool) {
		gcfg := graphgen.Defaults(seed)
		gcfg.ZeroConsumption = seed%5 == 0
		g, c, err := graphgen.Random(gcfg)
		if err != nil {
			t.Skip()
		}
		res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
		if err != nil || !res.Valid {
			t.Skip()
		}
		sized, err := capacity.Sized(g, res)
		if err != nil {
			t.Skip()
		}
		cfg, mapping, err := TaskGraphConfig(sized, UniformWorkloads(sized, seed))
		if err != nil {
			t.Skip()
		}
		cfg.Stop = Stop{Actor: c.Task, Firings: 400}
		cfg.MaxEvents = 2_000_000
		for _, task := range sized.Tasks() {
			cfg.RecordStarts = append(cfg.RecordStarts, task.Name)
		}
		if capSeed%3 == 0 {
			// Periodic sink variant: lowered capacities can underrun, and
			// the underrun diagnostics must agree between warm and cold.
			offset := c.Period.MulInt(int64(len(sized.Tasks())) * 4)
			cfg.Actors = map[string]ActorConfig{
				c.Task: {Mode: Periodic, Offset: offset, Period: c.Period},
			}
		}
		// Quiet-start variant: the periodic sink starts when the rest of
		// the chain goes quiet, as in a Feasible probe.
		quiet := capSeed%7 == 5 && capSeed%3 != 0
		if quiet {
			cfg.Actors = map[string]ActorConfig{
				c.Task: {Mode: Periodic, Offset: ratio.MustNew(0, 1), Period: c.Period},
			}
		}
		if faulty {
			// Fault injection: per-firing execution-time jitter, half the
			// time with overruns beyond ρ (a stalled-firing fault mode).
			if cfg.Actors == nil {
				cfg.Actors = make(map[string]ActorConfig)
			}
			cfg.AllowOverrun = seed%2 == 1
			for _, task := range sized.Tasks() {
				rho := task.WCRT
				half := rho.DivInt(2)
				overrun := rho.MulInt(3).DivInt(2)
				exec := func(k int64) ratio.Rat {
					if cfg.AllowOverrun && k%7 == 3 {
						return overrun
					}
					if k%2 == 0 {
						return half
					}
					return rho
				}
				ac := cfg.Actors[task.Name]
				ac.Exec = exec
				cfg.Actors[task.Name] = ac
				cfg.ExtraTimes = append(cfg.ExtraTimes, half, overrun)
			}
		}
		if capSeed%5 == 0 && len(mapping.Pairs) > 0 {
			// Occupancy recording refuses warm starts on the recorded
			// edge; the fallback must still agree with cold runs.
			cfg.RecordOccupancy = []string{mapping.Pairs[0].Data}
		}

		warmCfg := cfg
		warmCfg.Checkpoints = int(1 + (capSeed%4+4)%4)
		warm, err := Compile(warmCfg)
		if err != nil {
			t.Skip()
		}
		cold, err := Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if quiet {
			// Every Reset below starts the run from this offset.
			warm.stop.offset, cold.stop.offset = quietStart, quietStart
		}

		// A probe sequence over the buffers' space edges, starting at the
		// Equation-4 capacities and randomly nudging one buffer at a time —
		// the same access pattern a minimisation search produces.
		rnd := rand.New(rand.NewSource(capSeed ^ seed<<17))
		byName := make(map[string]int64)
		for _, b := range sized.Buffers() {
			byName[b.DefaultName()] = b.Capacity
		}
		caps := make(map[string]int64, len(mapping.Pairs))
		for _, p := range mapping.Pairs {
			caps[p.Space] = byName[p.Buffer]
		}
		for probe := 0; probe < 6; probe++ {
			if probe > 0 {
				p := mapping.Pairs[rnd.Intn(len(mapping.Pairs))]
				next := caps[p.Space] + int64(rnd.Intn(5)-2)
				if next < 1 {
					next = 1
				}
				caps[p.Space] = next
			}
			ov := make(map[string]int64, len(caps))
			for k, v := range caps {
				ov[k] = v
			}
			if err := warm.Reset(ov); err != nil {
				t.Fatal(err)
			}
			resumed := resumedEvents(warm)
			if err := cold.Reset(ov); err != nil {
				t.Fatal(err)
			}
			wres, werr := warm.Run()
			cres, cerr := cold.Run()
			checkCalendarBound(t, warm)
			if (werr == nil) != (cerr == nil) {
				t.Fatalf("probe %d: warm err %v, cold err %v", probe, werr, cerr)
			}
			if werr != nil {
				continue
			}
			if !reflect.DeepEqual(cres, wres) {
				t.Fatalf("probe %d (caps %v, resumed %d events): warm run diverged from cold\ncold: %+v\nwarm: %+v",
					probe, caps, resumed, cres, wres)
			}
		}
	})
}

// FuzzFeasibleMatchesVerify is the oracle for Verifier.Feasible: across
// random sink- and source-constrained chains, workloads, fixed offsets and
// capacity walks, a warm-starting Feasible must give the verdict a cold
// Verify(caps).OK gives. A disagreement means either the Definition 1
// argument behind the quiet start or a periodic-phase warm start is wrong.
// After every probe, warm-resumed ones included, the start tick Feasible
// decided must equal the one a cold Feasible decides, and Verify's quiet
// start candidate wherever Verify reached it. Some probes leave buffers out
// of caps; those revert to their compiled capacity, so the cold Verify gets
// the completed assignment, except under Validate, where it gets the
// partial one too: a buffer invariant bound left over from an earlier
// probe then aborts its run.
func FuzzFeasibleMatchesVerify(f *testing.F) {
	f.Add(int64(1), int64(1))
	f.Add(int64(2), int64(9))
	f.Add(int64(5), int64(3))
	f.Add(int64(10), int64(0))
	f.Add(int64(12), int64(6))
	f.Add(int64(25), int64(14))
	f.Add(int64(1), int64(2)) // a Validate walk with partial maps
	f.Fuzz(func(t *testing.T, seed, walkSeed int64) {
		gcfg := graphgen.Defaults(seed)
		gcfg.SourceConstrained = seed%2 == 0
		gcfg.ZeroConsumption = seed%5 == 0
		g, c, err := graphgen.Random(gcfg)
		if err != nil {
			t.Skip()
		}
		res, err := capacity.Compute(g, c, capacity.PolicyEquation4)
		if err != nil || !res.Valid {
			t.Skip()
		}
		sized, err := capacity.Sized(g, res)
		if err != nil {
			t.Skip()
		}
		w := UniformWorkloads(sized, seed)
		if walkSeed%3 == 1 {
			w = AdversarialWorkloads(sized, Adversaries[(walkSeed/3%3+3)%3])
		}
		opts := VerifyOptions{Firings: 300, Workloads: w, MaxEvents: 2_000_000, LiteResult: true}
		if walkSeed%4 == 0 {
			// A fixed offset beyond the 100-period slack: Verify tries it
			// first, Feasible ignores it.
			opts.Offsets = []ratio.Rat{c.Period.MulInt(1000)}
		}
		validate := walkSeed%5 == 2
		coldOpts := opts
		coldOpts.Validate = validate
		cold, err := CompileVerifier(sized, c, coldOpts)
		if err != nil {
			t.Skip()
		}
		opts.Checkpoints = int(1 + (walkSeed%4+4)%4)
		warm, err := CompileVerifier(sized, c, opts)
		if err != nil {
			t.Fatal(err)
		}

		// A walk from the Equation-4 capacities, nudging one buffer at a
		// time and drifting downwards, so verdicts flip both ways.
		rnd := rand.New(rand.NewSource(walkSeed ^ seed<<17))
		buffers := sized.Buffers()
		caps := make(map[string]int64, len(buffers))
		for _, b := range buffers {
			caps[b.DefaultName()] = b.Capacity
		}
		for probe := 0; probe < 8; probe++ {
			if probe > 0 {
				name := buffers[rnd.Intn(len(buffers))].DefaultName()
				caps[name] = max(1, caps[name]+int64(rnd.Intn(7)-4))
			}
			sent, full := caps, caps
			if rnd.Intn(3) == 0 {
				sent, full = make(map[string]int64), make(map[string]int64)
				for _, b := range buffers {
					name := b.DefaultName()
					full[name] = b.Capacity
					if rnd.Intn(2) == 0 {
						sent[name], full[name] = caps[name], caps[name]
					}
				}
			}
			ref := full
			if validate {
				ref = sent
			}
			v, err := cold.Verify(ref)
			if err != nil {
				t.Fatalf("probe %d (caps %v): cold Verify: %v", probe, ref, err)
			}
			ok, err := warm.Feasible(nil, sent)
			if err != nil && !errors.Is(err, budget.ErrBudgetExceeded) {
				t.Fatal(err)
			}
			checkCalendarBound(t, warm.periodic)
			if err != nil {
				continue
			}
			q := warm.periodic.stop.offsetT
			if v.Attempts == len(cold.fixedOffsets)+len(slackPeriods)+1 && v.OffsetTicks != q {
				t.Fatalf("probe %d (caps %v): Feasible started at tick %d, Verify's quiet start candidate at %d", probe, sent, q, v.OffsetTicks)
			}
			if _, err := cold.Feasible(nil, ref); err != nil {
				t.Fatalf("probe %d (caps %v): cold Feasible: %v", probe, ref, err)
			}
			if coldQ := cold.periodic.stop.offsetT; coldQ != q {
				t.Fatalf("probe %d (caps %v): warm Feasible started at tick %d, cold Feasible at %d", probe, sent, q, coldQ)
			}
			if ok != v.OK {
				t.Fatalf("probe %d (caps %v, completed %v): warm Feasible = %v, cold Verify OK = %v (%s)", probe, sent, full, ok, v.OK, v.Reason)
			}
		}
	})
}

// checkCalendarBound fails when m's event calendar, or any checkpoint's
// copy of it, has grown past compile's calendarBound. Compile and the
// checkpoint arena allocate every calendar at that bound, so a calendar
// that ever held more events, in a run or in a checkpoint that
// snapshotInto filled, has a larger capacity.
func checkCalendarBound(t *testing.T, m *Machine) {
	t.Helper()
	bound := m.calendarBound()
	if cap(m.eq) != bound {
		t.Fatalf("the event calendar grew to %d events; compile bounds it at %d", cap(m.eq), bound)
	}
	for _, slots := range [][]*checkpoint{m.ckpts, m.ckptFree} {
		for _, c := range slots {
			if cap(c.eq) != bound {
				t.Fatalf("a checkpoint's calendar grew to %d events; compile bounds it at %d", cap(c.eq), bound)
			}
		}
	}
}
