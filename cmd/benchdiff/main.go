// Command benchdiff gates benchmark regressions in CI. It parses standard
// `go test -bench` output (a file argument or stdin, typically several
// concatenated runs with -count=N) and compares every benchmark that also
// appears in the checked-in baseline (BENCH_sim.json):
//
//   - allocs/op may not regress by more than -alloc-tolerance percent
//     (default 10) over the baseline's allocs_per_op; a baseline of exactly
//     0 is a zero-tolerance gate — the first heap allocation on an
//     annotated zero-alloc path fails CI, whatever the tolerance;
//   - B/op is gated the same way against the baseline's bytes_per_op;
//   - probes_sim may not increase at all — a probe answered by the
//     feasibility cache that starts simulating again is a correctness-class
//     regression of the caching layer, not noise;
//   - events_per_probe may not increase at all — the simulated events a
//     probe costs are deterministic for a fixed seed, so any growth means
//     warm starts stopped resuming or the bound pruning stopped deciding,
//     a regression of the warm-start layer rather than noise.
//
// These metrics are hardware-independent, so the gate is meaningful on any
// CI runner; ns/op is reported but never gated. The best (minimum)
// sample of each benchmark is compared, which makes -count=N runs robust to
// scheduling noise. A baseline benchmark missing from the input fails the
// gate: the bench set and the baseline must stay in sync.
//
// Usage:
//
//	go test -run='^$' -bench=... -benchmem -count=5 ./... | benchdiff -baseline BENCH_sim.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// sample is the best observed values of one benchmark across all parsed
// runs. Absent metrics are negative.
type sample struct {
	nsPerOp        float64
	allocsOp       int64
	bytesOp        int64
	probesSim      float64
	eventsPerProbe float64
	seen           int
}

// baselineEntry is the subset of a BENCH_sim.json benchmark record the gate
// reads. Absent fields decode to nil and are not gated; a present
// allocs_per_op of 0 gates at exactly zero.
type baselineEntry struct {
	AllocsPerOp    *int64   `json:"allocs_per_op"`
	BytesPerOp     *int64   `json:"bytes_per_op"`
	ProbesSim      *float64 `json:"probes_sim"`
	EventsPerProbe *float64 `json:"events_per_probe"`
}

type baselineFile struct {
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

func run(args []string, stdin io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(out)
	baselinePath := fs.String("baseline", "", "baseline JSON file (required)")
	tolerance := fs.Float64("alloc-tolerance", 10, "allowed allocs/op and B/op regression in percent")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baselinePath == "" {
		return fmt.Errorf("-baseline is required")
	}
	if *tolerance < 0 {
		return fmt.Errorf("-alloc-tolerance must be non-negative, got %v", *tolerance)
	}
	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", *baselinePath, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("%s holds no benchmarks", *baselinePath)
	}

	input := stdin
	switch fs.NArg() {
	case 0:
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		input = f
	default:
		return fmt.Errorf("expected at most one results file, got %d arguments", fs.NArg())
	}
	samples, err := parseBench(input)
	if err != nil {
		return err
	}
	if len(samples) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	for _, name := range names {
		b := base.Benchmarks[name]
		s, ok := samples[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not in results (bench set out of sync)", name))
			continue
		}
		status := "ok"
		for _, m := range []struct {
			unit string
			base *int64
			got  int64
		}{{"allocs/op", b.AllocsPerOp, s.allocsOp}, {"B/op", b.BytesPerOp, s.bytesOp}} {
			if m.base == nil || m.got < 0 {
				continue
			}
			// A zero baseline means a zero limit: the tolerance is
			// multiplicative, so an annotated zero-alloc path fails on its
			// first allocation.
			if limit := float64(*m.base) * (1 + *tolerance/100); float64(m.got) > limit {
				status = "FAIL"
				if *m.base == 0 {
					failures = append(failures, fmt.Sprintf("%s: %s %d but the baseline requires zero (zero-tolerance gate)",
						name, m.unit, m.got))
				} else {
					failures = append(failures, fmt.Sprintf("%s: %s %d exceeds baseline %d by more than %g%%",
						name, m.unit, m.got, *m.base, *tolerance))
				}
			}
		}
		if b.ProbesSim != nil && s.probesSim >= 0 && s.probesSim > *b.ProbesSim {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: probes_sim %g exceeds baseline %g (any increase fails)",
				name, s.probesSim, *b.ProbesSim))
		}
		if b.EventsPerProbe != nil && s.eventsPerProbe >= 0 && s.eventsPerProbe > *b.EventsPerProbe {
			status = "FAIL"
			failures = append(failures, fmt.Sprintf("%s: events_per_probe %g exceeds baseline %g (any increase fails)",
				name, s.eventsPerProbe, *b.EventsPerProbe))
		}
		fmt.Fprintf(out, "%-40s %s  allocs/op %d (baseline %s)  B/op %d (baseline %s)",
			name, status, s.allocsOp, baselineText(b.AllocsPerOp), s.bytesOp, baselineText(b.BytesPerOp))
		if b.ProbesSim != nil {
			fmt.Fprintf(out, "  probes_sim %g (baseline %g)", s.probesSim, *b.ProbesSim)
		}
		if b.EventsPerProbe != nil {
			fmt.Fprintf(out, "  events_per_probe %g (baseline %g)", s.eventsPerProbe, *b.EventsPerProbe)
		}
		fmt.Fprintf(out, "  [%d sample(s), best ns/op %.0f]\n", s.seen, s.nsPerOp)
	}
	for name := range samples {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(out, "%-40s new  (not in baseline, not gated)\n", name)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(out, "all %d gated benchmarks within tolerance\n", len(names))
	return nil
}

// baselineText formats an optional baseline value, "-" when absent.
func baselineText(v *int64) string {
	if v == nil {
		return "-"
	}
	return strconv.FormatInt(*v, 10)
}

// benchLine matches one result line of `go test -bench` output:
// name, iteration count, then metric/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// gomaxprocsSuffix is the -N procs suffix go test appends to benchmark
// names; stripped so baselines are portable across CPU counts.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench folds all result lines into per-benchmark best samples.
func parseBench(r io.Reader) (map[string]*sample, error) {
	out := make(map[string]*sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("odd metric/unit pairs in line: %s", sc.Text())
		}
		s, ok := out[name]
		if !ok {
			s = &sample{nsPerOp: -1, allocsOp: -1, bytesOp: -1, probesSim: -1, eventsPerProbe: -1}
			out[name] = s
		}
		s.seen++
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad metric value %q in line: %s", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				if s.nsPerOp < 0 || v < s.nsPerOp {
					s.nsPerOp = v
				}
			case "allocs/op":
				if iv := int64(v); s.allocsOp < 0 || iv < s.allocsOp {
					s.allocsOp = iv
				}
			case "B/op":
				if iv := int64(v); s.bytesOp < 0 || iv < s.bytesOp {
					s.bytesOp = iv
				}
			case "probes_sim":
				if s.probesSim < 0 || v < s.probesSim {
					s.probesSim = v
				}
			case "events_per_probe":
				if s.eventsPerProbe < 0 || v < s.eventsPerProbe {
					s.eventsPerProbe = v
				}
			}
		}
	}
	return out, sc.Err()
}
