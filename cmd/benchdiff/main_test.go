package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testBaseline = `{
  "benchmarks": {
    "BenchmarkSweepPeriods": {"ns_per_op": 3300000, "bytes_per_op": 90000, "allocs_per_op": 1000, "probes_sim": 12},
    "BenchmarkReusedMachineRun": {"ns_per_op": 50000, "bytes_per_op": 48, "allocs_per_op": 1}
  }
}`

const eventsBaseline = `{
  "benchmarks": {
    "BenchmarkMinimize": {"allocs_per_op": 1000, "probes_sim": 27, "events_per_probe": 6646}
  }
}`

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func runDiff(t *testing.T, baseline, input string, extra ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	args := append([]string{"-baseline", baseline}, extra...)
	err := run(args, strings.NewReader(input), &out)
	return out.String(), err
}

func TestPassWithinTolerance(t *testing.T) {
	base := writeBaseline(t, testBaseline)
	// -count=3 samples with noise; the best sample of each is within bounds.
	// The GOMAXPROCS suffix must be stripped to match the baseline.
	input := `
goos: linux
BenchmarkSweepPeriods-8   	     100	   3400000 ns/op	   95000 B/op	    1080 allocs/op	        12.00 probes_sim
BenchmarkSweepPeriods-8   	     100	   3350000 ns/op	   95000 B/op	    1005 allocs/op	        12.00 probes_sim
BenchmarkSweepPeriods-8   	     100	   3600000 ns/op	   95000 B/op	    1200 allocs/op	        12.00 probes_sim
PASS
BenchmarkReusedMachineRun-8   	   20000	     52000 ns/op	      48 B/op	       1 allocs/op
PASS
`
	out, err := runDiff(t, base, input)
	if err != nil {
		t.Fatalf("expected pass, got %v\n%s", err, out)
	}
	if !strings.Contains(out, "all 2 gated benchmarks within tolerance") {
		t.Errorf("missing summary line:\n%s", out)
	}
}

func TestAllocRegressionFails(t *testing.T) {
	base := writeBaseline(t, testBaseline)
	// Best sample is 1150 allocs/op: 15% over the 1000 baseline.
	input := `
BenchmarkSweepPeriods-8   	100	3400000 ns/op	95000 B/op	1150 allocs/op	12.00 probes_sim
BenchmarkSweepPeriods-8   	100	3400000 ns/op	95000 B/op	1180 allocs/op	12.00 probes_sim
BenchmarkReusedMachineRun-8   	20000	52000 ns/op	48 B/op	1 allocs/op
`
	out, err := runDiff(t, base, input)
	if err == nil || !strings.Contains(err.Error(), "allocs/op 1150 exceeds baseline 1000") {
		t.Fatalf("expected alloc regression failure, got %v\n%s", err, out)
	}
	// A wider tolerance admits the same input.
	if out, err := runDiff(t, base, input, "-alloc-tolerance", "20"); err != nil {
		t.Fatalf("20%% tolerance should pass: %v\n%s", err, out)
	}
}

func TestBytesRegressionFails(t *testing.T) {
	base := writeBaseline(t, testBaseline)
	// Allocs at the baseline, but the best B/op sample is 100000: 11% over
	// the 90000 baseline.
	input := `
BenchmarkSweepPeriods-8   	100	3400000 ns/op	100000 B/op	1000 allocs/op	12.00 probes_sim
BenchmarkSweepPeriods-8   	100	3400000 ns/op	120000 B/op	1000 allocs/op	12.00 probes_sim
BenchmarkReusedMachineRun-8   	20000	52000 ns/op	48 B/op	1 allocs/op
`
	out, err := runDiff(t, base, input)
	if err == nil || !strings.Contains(err.Error(), "B/op 100000 exceeds baseline 90000") {
		t.Fatalf("expected B/op regression failure, got %v\n%s", err, out)
	}
	if out, err := runDiff(t, base, input, "-alloc-tolerance", "20"); err != nil {
		t.Fatalf("20%% tolerance should pass: %v\n%s", err, out)
	}
	// A zero bytes_per_op baseline admits no byte at all.
	zero := writeBaseline(t, `{"benchmarks": {"BenchmarkServeCacheHit": {"bytes_per_op": 0}}}`)
	_, err = runDiff(t, zero, "BenchmarkServeCacheHit-8   \t3000000\t390 ns/op\t8 B/op\t0 allocs/op\n")
	if err == nil || !strings.Contains(err.Error(), "B/op 8 but the baseline requires zero") {
		t.Fatalf("expected zero-tolerance B/op failure, got %v", err)
	}
}

func TestZeroAllocBaselineIsZeroTolerance(t *testing.T) {
	base := writeBaseline(t, `{"benchmarks": {"BenchmarkServeCacheHit": {"ns_per_op": 383, "allocs_per_op": 0}}}`)
	// A single allocation fails, whatever the percentage tolerance: 0 times
	// any multiplier is still 0.
	input := "BenchmarkServeCacheHit-8   \t3000000\t390 ns/op\t16 B/op\t1 allocs/op\n"
	_, err := runDiff(t, base, input, "-alloc-tolerance", "1000")
	if err == nil || !strings.Contains(err.Error(), "baseline requires zero") {
		t.Fatalf("expected zero-tolerance failure, got %v", err)
	}
	input = "BenchmarkServeCacheHit-8   \t3000000\t390 ns/op\t0 B/op\t0 allocs/op\n"
	if out, err := runDiff(t, base, input); err != nil {
		t.Fatalf("zero allocs against a zero baseline must pass: %v\n%s", err, out)
	}
}

func TestAbsentAllocBaselineNotGated(t *testing.T) {
	// No allocs_per_op field at all: the benchmark is tracked for probes
	// only, so allocations do not gate.
	base := writeBaseline(t, `{"benchmarks": {"BenchmarkX": {"probes_sim": 12}}}`)
	input := "BenchmarkX-8   \t100\t100 ns/op\t999999 B/op\t99999 allocs/op\t12.00 probes_sim\n"
	if out, err := runDiff(t, base, input); err != nil {
		t.Fatalf("absent allocs_per_op must not gate: %v\n%s", err, out)
	}
}

func TestAnyProbeIncreaseFails(t *testing.T) {
	base := writeBaseline(t, testBaseline)
	// Allocs fine, but one extra simulated probe — even under 10% — fails.
	input := `
BenchmarkSweepPeriods-8   	100	3400000 ns/op	95000 B/op	1000 allocs/op	13.00 probes_sim
BenchmarkReusedMachineRun-8   	20000	52000 ns/op	48 B/op	1 allocs/op
`
	_, err := runDiff(t, base, input)
	if err == nil || !strings.Contains(err.Error(), "probes_sim 13 exceeds baseline 12") {
		t.Fatalf("expected probes_sim failure, got %v", err)
	}
}

func TestAnyEventsPerProbeIncreaseFails(t *testing.T) {
	base := writeBaseline(t, eventsBaseline)
	// Probes fine, but each simulated probe got costlier: a warm-start or
	// bound-pruning regression, gated with zero tolerance.
	input := `
BenchmarkMinimize-8   	1	9000000 ns/op	900000 B/op	1000 allocs/op	27.00 probes_sim	6950.00 events_per_probe
`
	_, err := runDiff(t, base, input)
	if err == nil || !strings.Contains(err.Error(), "events_per_probe 6950 exceeds baseline 6646") {
		t.Fatalf("expected events_per_probe failure, got %v", err)
	}
	// The best sample across noisy -count runs is what gates: one sample at
	// the baseline passes even next to a worse one.
	input = `
BenchmarkMinimize-8   	1	9000000 ns/op	900000 B/op	1000 allocs/op	27.00 probes_sim	6950.00 events_per_probe
BenchmarkMinimize-8   	1	9000000 ns/op	900000 B/op	1000 allocs/op	27.00 probes_sim	6646.00 events_per_probe
`
	if out, err := runDiff(t, base, input); err != nil {
		t.Fatalf("baseline-equal best sample must pass: %v\n%s", err, out)
	}
}

func TestMissingBenchmarkFails(t *testing.T) {
	base := writeBaseline(t, testBaseline)
	input := `BenchmarkSweepPeriods-8   	100	3400000 ns/op	95000 B/op	1000 allocs/op	12.00 probes_sim`
	_, err := runDiff(t, base, input)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkReusedMachineRun: in baseline but not in results") {
		t.Fatalf("expected out-of-sync failure, got %v", err)
	}
}

func TestNewBenchmarkReportedNotGated(t *testing.T) {
	base := writeBaseline(t, testBaseline)
	input := `
BenchmarkSweepPeriods-8   	100	3400000 ns/op	95000 B/op	1000 allocs/op	12.00 probes_sim
BenchmarkReusedMachineRun-8   	20000	52000 ns/op	48 B/op	1 allocs/op
BenchmarkBrandNew-8   	100	1 ns/op	99999999 B/op	99999 allocs/op
`
	out, err := runDiff(t, base, input)
	if err != nil {
		t.Fatalf("new benchmark must not gate: %v\n%s", err, out)
	}
	if !strings.Contains(out, "BenchmarkBrandNew") || !strings.Contains(out, "not gated") {
		t.Errorf("new benchmark not reported:\n%s", out)
	}
}

func TestMalformedInputs(t *testing.T) {
	base := writeBaseline(t, testBaseline)
	if _, err := runDiff(t, base, "no bench lines here\nPASS\n"); err == nil ||
		!strings.Contains(err.Error(), "no benchmark results") {
		t.Fatalf("empty input accepted: %v", err)
	}
	if _, err := runDiff(t, base, "BenchmarkX-8 100 12 ns/op trailing"); err == nil ||
		!strings.Contains(err.Error(), "odd metric/unit pairs") {
		t.Fatalf("odd field count accepted: %v", err)
	}
	if _, err := runDiff(t, base, "BenchmarkX-8 100 twelve ns/op"); err == nil ||
		!strings.Contains(err.Error(), "bad metric value") {
		t.Fatalf("non-numeric metric accepted: %v", err)
	}
	badBase := writeBaseline(t, `{"benchmarks": {}}`)
	if _, err := runDiff(t, badBase, "BenchmarkX-8 100 12 ns/op"); err == nil ||
		!strings.Contains(err.Error(), "holds no benchmarks") {
		t.Fatalf("empty baseline accepted: %v", err)
	}
	if err := run([]string{}, strings.NewReader(""), &strings.Builder{}); err == nil ||
		!strings.Contains(err.Error(), "-baseline is required") {
		t.Fatalf("missing -baseline accepted: %v", err)
	}
}

func TestResultsFileArgument(t *testing.T) {
	base := writeBaseline(t, testBaseline)
	results := filepath.Join(t.TempDir(), "bench.txt")
	content := `
BenchmarkSweepPeriods-8   	100	3400000 ns/op	95000 B/op	1000 allocs/op	12.00 probes_sim
BenchmarkReusedMachineRun-8   	20000	52000 ns/op	48 B/op	1 allocs/op
`
	if err := os.WriteFile(results, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-baseline", base, results}, strings.NewReader("ignored"), &out); err != nil {
		t.Fatalf("file argument failed: %v\n%s", err, out.String())
	}
}
