// Command mp3bench reproduces the experimental evaluation of Wiggers et
// al. (DATE 2008), §5: buffer capacities for an MP3 playback application
// with a variable bit-rate stream at 48 kHz, output at 44.1 kHz.
//
// It prints the derived response times, the capacities computed by the
// paper's algorithm (Equation 4) next to the published values, the
// constant-rate lower bound obtained by fixing n = 960 (the paper's
// comparison against traditional analysis), and — unless -skip-verify is
// given — verifies the sizing with the dataflow simulator, as the paper
// does.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"vrdfcap"
	"vrdfcap/internal/budget"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/cli"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/mp3"
	"vrdfcap/internal/parallel"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mp3bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mp3bench", flag.ContinueOnError)
	firings := fs.Int64("firings", 44100, "DAC firings to verify (default: one second of audio)")
	seed := fs.Int64("seed", 2008, "seed for the VBR workload")
	skipVerify := fs.Bool("skip-verify", false, "skip the simulation-based verification")
	minimizeFlag := fs.Bool("minimize", false, "additionally search the empirically minimal capacities for the VBR workload")
	minimizeFirings := fs.Int64("minimize-firings", 2205, "DAC firings per minimization probe (default: 50 ms of audio)")
	parallelN := fs.Int("parallel", 0, "worker goroutines for the verification workloads and -degradation (0 = GOMAXPROCS, 1 = serial; -minimize is always serial)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the simulation-backed steps (0 = unlimited)")
	maxEvents := fs.Int64("max-events", 0, "cap simulated events per run (0 = engine default)")
	jitterStr := fs.String("jitter", "", "admissible execution-time jitter fraction in [0, 1) injected during verification, e.g. 1/2")
	degradationStr := fs.String("degradation", "", "sweep fault-injection overrun factors from 1 up to this value (> 1, e.g. 2 or 3/2)")
	var cacheFlags cli.Flags
	cacheFlags.Register(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *firings <= 0 {
		return fmt.Errorf("-firings must be positive, got %d", *firings)
	}
	if *minimizeFirings <= 0 {
		return fmt.Errorf("-minimize-firings must be positive, got %d", *minimizeFirings)
	}
	stopProfiling, err := cli.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiling()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var jitter vrdfcap.RatNum
	if *jitterStr != "" {
		if jitter, err = vrdfcap.ParseRat(*jitterStr); err != nil {
			return fmt.Errorf("bad -jitter: %w", err)
		}
	}

	g, err := mp3.Graph()
	if err != nil {
		return err
	}
	c := mp3.Constraint()

	fmt.Fprintln(out, "MP3 playback application (DATE 2008, Section 5)")
	fmt.Fprintln(out, "  chain: vBR --2048/n--> vMP3 --1152/480--> vSRC --441/1--> vDAC")
	fmt.Fprintf(out, "  VBR stream at %d Hz, n ∈ %v bytes per frame\n", mp3.StreamRate, mp3.FrameSizes())
	fmt.Fprintf(out, "  constraint: vDAC strictly periodic at %d Hz (τ = %s s)\n\n", mp3.OutputRate, c.Period)

	res, err := vrdfcap.Analyze(g, c, vrdfcap.PolicyEquation4)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "response times derived from the throughput constraint (= φ):")
	for _, ck := range res.Checks {
		fmt.Fprintf(out, "  ρ(%-5s) = %10s s = %8.4f ms   (paper: %s)\n",
			ck.Task, ck.Rho, ck.Rho.Float64()*1000, paperRho(ck.Task))
	}

	baseGraph := capacity.WithConstantMaxRates(g)
	baseRes, err := vrdfcap.Analyze(baseGraph, c, vrdfcap.PolicyBaseline)
	if err != nil {
		return err
	}
	hybridRes, err := vrdfcap.Analyze(g, c, vrdfcap.PolicyHybrid)
	if err != nil {
		return err
	}

	names := mp3.BufferNames()
	paperVRDF := []int64{6015, 3263, 882}
	paperBase := []int64{5888, 3072, 882}
	fmt.Fprintln(out, "\nbuffer capacities (containers):")
	fmt.Fprintln(out, "  buffer        eq(4)  paper   baseline(n=960)  paper   hybrid")
	for i, n := range names {
		fmt.Fprintf(out, "  d%d %-10s %6d %6d %16d %6d %8d\n",
			i+1, n,
			res.BufferByName(n).Capacity, paperVRDF[i],
			baseRes.BufferByName(n).Capacity, paperBase[i],
			hybridRes.BufferByName(n).Capacity)
	}
	fmt.Fprintf(out, "  totals: eq(4)=%d, paper=%d, baseline=%d, hybrid=%d\n",
		res.TotalCapacity(), int64(6015+3263+882), baseRes.TotalCapacity(), hybridRes.TotalCapacity())
	fmt.Fprintln(out, "  note: eq(4) yields 883 for d3 where the paper reports 882; see EXPERIMENTS.md.")

	if cs, err := capacity.Anchored(res); err == nil {
		fmt.Fprintf(out, "\nanchored schedule (derived, not in the paper): DAC offset %s s = %.3f ms, latency bound %.3f ms\n",
			cs.SinkOffset, cs.SinkOffset.Float64()*1000, cs.LatencyBound.Float64()*1000)
	}

	if *skipVerify && !*minimizeFlag && *degradationStr == "" {
		return nil
	}

	sized, _, err := vrdfcap.Size(g, c, vrdfcap.PolicyEquation4)
	if err != nil {
		return err
	}
	store := cacheFlags.Store()
	workers := parallel.Workers(*parallelN)
	stats := cli.StartRun(workers)
	// reportStats flushes the verdict cache and prints the shared run
	// statistics footer of every exit path.
	reportStats := func() error {
		written, err := cli.Flush(store)
		if err != nil {
			return err
		}
		stats.WriteStats(out, &cacheFlags, store, written)
		return nil
	}
	// runMinimize searches the smallest capacities that still sustain the
	// 44.1 kHz schedule for the uniform VBR stream — the empirical lower
	// bound the paper's analytic sizing is compared against.
	runMinimize := func() error {
		prob, err := minimize.NewProblem(g, sized, res, c, *minimizeFirings,
			sim.Workloads{names[0]: {Cons: quanta.Uniform(mp3.FrameSizes(), *seed)}},
			fmt.Sprintf("uniform-vbr:seed=%d", *seed), store,
			minimize.Options{MaxEvents: *maxEvents, Stats: &stats.Search})
		if err != nil {
			return err
		}
		mres, err := prob.Search(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nempirically minimal capacities for the uniform VBR stream (%d DAC firings per probe; %d probes simulated, %d answered by the feasibility cache, %d decided by analytic bounds):\n",
			*minimizeFirings, mres.Checks, mres.CacheHits, mres.BoundHits)
		for i, n := range prob.Buffers {
			fmt.Fprintf(out, "  d%d %-10s eq(4) %6d  minimal %6d\n", i+1, n, prob.Upper[n], mres.Caps[n])
		}
		fmt.Fprintf(out, "  totals: eq(4)=%d, minimal=%d (lower bound for this stream; eq(4) covers every admissible stream)\n",
			res.TotalCapacity(), mres.Total())
		cli.ProbeEffort(out, &stats.Search)
		return nil
	}
	// runDegradation sweeps overrun factors at the Equation 4 capacities:
	// the robustness margin of the paper's sizing, as a curve from nominal
	// timing to 2x overruns on every 7th firing.
	runDegradation := func() error {
		factors, err := cli.DegradationFactors(*degradationStr)
		if err != nil {
			return err
		}
		curve, err := vrdfcap.SweepDegradation(vrdfcap.DegradationConfig{
			Graph:      sized,
			Constraint: c,
			Factors:    factors,
			Jitter:     jitter,
			Seed:       uint64(*seed),
			Firings:    *minimizeFirings,
			Workloads:  vrdfcap.Workloads{names[0]: {Cons: quanta.Uniform(mp3.FrameSizes(), *seed)}},
			Workers:    *parallelN,
			Context:    ctx,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\nfault-injection degradation sweep (%d DAC firings per point, overrun stalls every 7th firing of every task):\n",
			*minimizeFirings)
		return vrdfcap.WriteDegradation(out, curve)
	}
	if *skipVerify {
		if *minimizeFlag {
			if err := runMinimize(); err != nil {
				return err
			}
		}
		if *degradationStr != "" {
			if err := runDegradation(); err != nil {
				return err
			}
		}
		return reportStats()
	}
	fmt.Fprintf(out, "\nverifying by simulation (%d DAC firings per workload, %d workers)...\n",
		*firings, workers)
	var inj *vrdfcap.FaultInjector
	if jitter.Sign() > 0 {
		if inj, err = vrdfcap.NewFaultInjector(sized, vrdfcap.FaultSpec{Jitter: jitter, Seed: uint64(*seed)}); err != nil {
			return err
		}
		fmt.Fprintf(out, "  (with admissible execution-time jitter up to %s of ρ, seed %d)\n", jitter, *seed)
	}
	streams := []struct {
		name string
		seq  vrdfcap.Sequence
	}{
		{"uniform VBR", quanta.Uniform(mp3.FrameSizes(), *seed)},
		{"all-min (32 kbit/s)", quanta.MinOf(mp3.FrameSizes())},
		{"all-max (320 kbit/s)", quanta.MaxOf(mp3.FrameSizes())},
		{"bitrate walk", quanta.Walk(mp3.FrameSizes(), *seed)},
	}
	// The streams are independent simulations; run them on the pool and
	// report in order, failing on the first bad stream as the serial loop
	// did.
	verifications, err := parallel.Map(ctx, *parallelN, len(streams), func(i int) (*vrdfcap.Verification, error) {
		vopts := vrdfcap.VerifyOptions{
			Firings:   *firings,
			Workloads: vrdfcap.Workloads{names[0]: {Cons: streams[i].seq}},
			Validate:  true,
			MaxEvents: *maxEvents,
			Context:   ctx,
			Effort:    &stats.Verify,
		}
		if inj != nil {
			inj.Apply(&vopts)
		}
		return vrdfcap.Verify(sized, c, vopts)
	})
	if err != nil {
		return budget.Classify(err)
	}
	for i, v := range verifications {
		var periodicEvents int64
		if v.Periodic != nil {
			periodicEvents = v.Periodic.Events
		}
		status := "ok"
		if !v.OK {
			status = "FAILED: " + v.Reason
		}
		fmt.Fprintf(out, "  %-22s %s (offset %s s, %d events periodic phase)\n",
			streams[i].name, status, v.Offset, periodicEvents)
		if !v.OK {
			return fmt.Errorf("verification failed for %s", streams[i].name)
		}
	}
	fmt.Fprintln(out, "all workloads sustained the 44.1 kHz schedule — the computed capacities are sufficient.")

	// The motivating contrast: the baseline sizing under a variable
	// stream is not guaranteed; show what the simulator says.
	fmt.Fprintln(out, "\nbaseline sizing (5888, 3072, 882) under the variable stream:")
	baseSized := g.Clone()
	for i, n := range names {
		baseSized.BufferByName(n).Capacity = paperBase[i]
	}
	v, err := sim.VerifyThroughput(baseSized, c, sim.VerifyOptions{
		Firings:   *firings,
		Workloads: vrdfcap.Workloads{names[0]: {Cons: quanta.Uniform(mp3.FrameSizes(), *seed)}},
		Effort:    &stats.Verify,
	})
	if err != nil {
		return err
	}
	if v.OK {
		fmt.Fprintln(out, "  sustained this particular stream (no guarantee exists for all streams)")
	} else {
		fmt.Fprintf(out, "  failed as expected: %s\n", v.Reason)
	}
	if *minimizeFlag {
		if err := runMinimize(); err != nil {
			return err
		}
	}
	if *degradationStr != "" {
		if err := runDegradation(); err != nil {
			return err
		}
	}
	return reportStats()
}

func paperRho(task string) string {
	switch task {
	case mp3.TaskBR:
		return "51.2 ms"
	case mp3.TaskMP3:
		return "24 ms"
	case mp3.TaskSRC:
		return "10 ms"
	case mp3.TaskDAC:
		return "0.0227 ms"
	}
	return "?"
}
