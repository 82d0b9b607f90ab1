// Command vrdfcap computes buffer capacities for a throughput-constrained
// task-graph chain described in a JSON or text document (format sniffed;
// see internal/graphio for both grammars).
//
// Usage:
//
//	vrdfcap [flags] graph.json
//
// The document must contain a "constraint" entry (see internal/graphio for
// the format). Example:
//
//	vrdfcap -policy equation4 -verify testdata/mp3.json
//
// Flags:
//
//	-policy name   capacity policy: equation4 (default), baseline, hybrid
//	-dot           print the task graph in Graphviz DOT instead of analysing
//	-vrdf-dot      print the VRDF analysis graph in DOT instead of analysing
//	-verify        additionally verify the sizing by simulation
//	-firings n     firings of the constrained task to verify (default 1000)
//	-seed n        seed for the random workload used by -verify
//	-json          print the sized graph as JSON after the report
//	-latency       print the analytic sink offset and latency bound
//	-sweep list    comma-separated periods for a trade-off table
//	-exact         exhaustive deadlock-freedom certificate (small graphs)
//	-minimize      search the empirically minimal capacities by simulation
//	-minimize-firings n  firings per minimization probe (0 = use -firings)
//	-parallel n    worker goroutines for -degradation
//	               (0 = GOMAXPROCS); -sweep and -minimize are always serial
//	-timeout d     wall-clock budget for simulation-backed steps (0 = none)
//	-max-events n  cap simulated events per run (0 = engine default)
//	-jitter q      admissible execution-time jitter in [0,1) for -verify
//	-degradation q fault-injection sweep up to overrun factor q (> 1)
//	-cache-dir d   persist probe verdicts under d and warm-start from them;
//	               processes sharing d pool their verdicts
//	-no-cache      disable cross-probe verdict caching (wins over -cache-dir)
//	-stats         print run statistics (probes, events, wall/CPU time)
//	-cpuprofile f  write a CPU profile to f
//	-memprofile f  write a heap profile to f on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vrdfcap"
	"vrdfcap/internal/capacity"
	"vrdfcap/internal/cli"
	"vrdfcap/internal/minimize"
	"vrdfcap/internal/parallel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vrdfcap:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vrdfcap", flag.ContinueOnError)
	policyName := fs.String("policy", "equation4", "capacity policy: equation4, baseline or hybrid")
	dot := fs.Bool("dot", false, "print the task graph in Graphviz DOT and exit")
	vrdfDot := fs.Bool("vrdf-dot", false, "print the VRDF analysis graph in DOT and exit")
	verify := fs.Bool("verify", false, "verify the sizing by simulation")
	firings := fs.Int64("firings", 1000, "firings of the constrained task to verify")
	seed := fs.Int64("seed", 1, "seed for the random verification workload")
	asJSON := fs.Bool("json", false, "print the sized graph as JSON")
	latency := fs.Bool("latency", false, "print the anchored schedule: analytic sink offset and end-to-end latency bound")
	sweep := fs.String("sweep", "", "comma-separated periods to sweep for a throughput/buffer trade-off table")
	exactFlag := fs.Bool("exact", false, "certify the sizing deadlock-free by exhaustive adversarial search (small graphs)")
	minimizeFlag := fs.Bool("minimize", false, "search the empirically minimal capacities that still satisfy the constraint (simulation-based)")
	minimizeFirings := fs.Int64("minimize-firings", 0, "firings of the constrained task per minimization probe (0 = use -firings)")
	parallelN := fs.Int("parallel", 0, "worker goroutines for -degradation (0 = GOMAXPROCS, 1 = serial; -sweep and -minimize are always serial)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for simulation-backed steps (0 = unlimited)")
	maxEvents := fs.Int64("max-events", 0, "cap simulated events per run (0 = engine default)")
	jitterStr := fs.String("jitter", "", "admissible execution-time jitter fraction in [0, 1) injected during -verify, e.g. 1/2")
	degradationStr := fs.String("degradation", "", "sweep fault-injection overrun factors from 1 up to this value (> 1, e.g. 2 or 3/2)")
	statsFlag := fs.Bool("stats", false, "print run statistics (analyses, simulation events, wall/CPU time)")
	var cacheFlags cli.Flags
	cacheFlags.Register(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("expected exactly one graph file, got %d arguments", fs.NArg())
	}
	if *firings <= 0 {
		return fmt.Errorf("-firings must be positive, got %d", *firings)
	}
	if *minimizeFirings < 0 {
		return fmt.Errorf("-minimize-firings must be positive (or 0 to use -firings), got %d", *minimizeFirings)
	}
	stopProfiling, err := cli.StartProfiling(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiling()
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	g, c, err := vrdfcap.DecodeGraph(data)
	if err != nil {
		return err
	}
	if *dot {
		return vrdfcap.WriteDOT(out, g)
	}
	if *vrdfDot {
		return vrdfcap.WriteVRDFDOT(out, g)
	}
	if c == nil {
		return fmt.Errorf("document %s has no throughput constraint", fs.Arg(0))
	}
	policy, err := capacity.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	// One budget covers the whole invocation: every simulation-backed step
	// below runs under the same context, whose deadline -timeout sets.
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
	store := cacheFlags.Store()
	stats := cli.StartRun(parallel.Workers(*parallelN))
	sized, res, err := vrdfcap.Size(g, *c, policy)
	if err != nil {
		return err
	}
	if err := vrdfcap.WriteReport(out, res); err != nil {
		return err
	}
	if *latency {
		cs, err := vrdfcap.AnchoredSchedule(res)
		if err != nil {
			fmt.Fprintf(out, "\nanchored schedule unavailable: %v\n", err)
		} else {
			fmt.Fprintf(out, "\nanchored schedule: sink offset %s (%.6g time units), end-to-end latency bound %s (%.6g)\n",
				cs.SinkOffset, cs.SinkOffset.Float64(), cs.LatencyBound, cs.LatencyBound.Float64())
		}
	}
	if *sweep != "" {
		periods, err := parsePeriods(*sweep)
		if err != nil {
			return err
		}
		pts, err := vrdfcap.SweepPeriodsOpt(g, c.Task, periods, policy, vrdfcap.SweepOptions{Context: ctx})
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nperiod sweep (throughput/buffer trade-off):")
		for _, pt := range pts {
			if pt.Valid {
				fmt.Fprintf(out, "  τ=%-12s total capacity %d\n", pt.Period, pt.Total)
			} else {
				fmt.Fprintf(out, "  τ=%-12s infeasible\n", pt.Period)
			}
		}
	}
	if *exactFlag {
		ok, w, err := vrdfcap.CertifyDeadlockFree(sized, 0)
		switch {
		case err != nil:
			fmt.Fprintf(out, "\nexact certificate unavailable: %v\n", err)
		case ok:
			fmt.Fprintln(out, "\nexact certificate: deadlock-free for EVERY quanta sequence (exhaustive search)")
		default:
			fmt.Fprintf(out, "\nexact certificate FAILED: adversarial witness %+v\n", w)
		}
	}
	if *verify {
		if !res.Valid {
			fmt.Fprintln(out, "\nskipping verification: the analysis already proved the constraint infeasible")
		} else {
			vopts := vrdfcap.VerifyOptions{
				Firings:   *firings,
				Workloads: vrdfcap.UniformWorkloads(sized, *seed),
				Validate:  true,
				MaxEvents: *maxEvents,
				Context:   ctx,
				Effort:    &stats.Verify,
			}
			if jitter.Sign() > 0 {
				inj, err := vrdfcap.NewFaultInjector(sized, vrdfcap.FaultSpec{Jitter: jitter, Seed: uint64(*seed)})
				if err != nil {
					return err
				}
				inj.Apply(&vopts)
				fmt.Fprintf(out, "\ninjecting admissible execution-time jitter up to %s of ρ (seed %d)\n", jitter, *seed)
			}
			v, err := vrdfcap.Verify(sized, *c, vopts)
			if err != nil {
				return err
			}
			fmt.Fprintln(out)
			if err := vrdfcap.WriteVerification(out, v); err != nil {
				return err
			}
		}
	}
	if *minimizeFlag {
		if !res.Valid {
			fmt.Fprintln(out, "\nskipping minimization: the analysis already proved the constraint infeasible")
		} else {
			probeFirings := *minimizeFirings
			if probeFirings == 0 {
				probeFirings = *firings
			}
			prob, err := minimize.NewProblem(g, sized, res, *c, probeFirings,
				vrdfcap.UniformWorkloads(sized, *seed), fmt.Sprintf("uniform:seed=%d", *seed), store,
				minimize.Options{MaxEvents: *maxEvents, Stats: &stats.Search})
			if err != nil {
				return err
			}
			mres, err := prob.Search(ctx)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "\nempirically minimal capacities for this workload (%d firings per probe; %d probes simulated, %d answered by the feasibility cache, %d decided by analytic bounds):\n",
				probeFirings, mres.Checks, mres.CacheHits, mres.BoundHits)
			for _, b := range prob.Buffers {
				fmt.Fprintf(out, "  %-12s analytic %6d  minimal %6d\n", b, prob.Upper[b], mres.Caps[b])
			}
			fmt.Fprintf(out, "  totals: analytic=%d, minimal=%d (a lower bound for this workload; the analytic sizing covers every admissible workload)\n",
				res.TotalCapacity(), mres.Total())
			cli.ProbeEffort(out, &stats.Search)
		}
	}
	if *degradationStr != "" {
		factors, err := cli.DegradationFactors(*degradationStr)
		if err != nil {
			return err
		}
		if !res.Valid {
			fmt.Fprintln(out, "\nskipping degradation sweep: the analysis already proved the constraint infeasible")
		} else {
			curve, err := vrdfcap.SweepDegradation(vrdfcap.DegradationConfig{
				Graph:      sized,
				Constraint: *c,
				Factors:    factors,
				Jitter:     jitter,
				Seed:       uint64(*seed),
				Firings:    *firings,
				Workers:    *parallelN,
				Context:    ctx,
				Effort:     &stats.Verify,
			})
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "\nfault-injection degradation sweep (overrun stalls every 7th firing of every task):")
			if err := vrdfcap.WriteDegradation(out, curve); err != nil {
				return err
			}
		}
	}
	if *asJSON {
		data, err := vrdfcap.EncodeJSON(sized, c)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%s\n", data)
	}
	written, err := cli.Flush(store)
	if err != nil {
		return err
	}
	if *statsFlag {
		stats.WriteStats(out, &cacheFlags, store, written)
	}
	return nil
}

// parsePeriods parses a comma-separated list of exact rationals.
func parsePeriods(s string) ([]vrdfcap.RatNum, error) {
	var out []vrdfcap.RatNum
	for _, part := range strings.Split(s, ",") {
		r, err := vrdfcap.ParseRat(part)
		if err != nil {
			return nil, fmt.Errorf("bad period %q: %w", part, err)
		}
		if r.Sign() <= 0 {
			return nil, fmt.Errorf("period %q must be positive", part)
		}
		out = append(out, r)
	}
	return out, nil
}
