package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vrdfcap"
)

func TestTableWithoutVerification(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-skip-verify"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	wants := []string{
		"51.2000 ms", "24.0000 ms", "10.0000 ms", "0.0227 ms",
		"6015", "3263", "883", "5888", "3072", "882",
		"totals: eq(4)=10161, paper=10160, baseline=9842, hybrid=9969",
	}
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Errorf("output missing %q:\n%s", w, text)
		}
	}
}

func TestFullVerificationShortHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation horizon too long for -short")
	}
	var out bytes.Buffer
	if err := run([]string{"-firings", "2205"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "all workloads sustained the 44.1 kHz schedule") {
		t.Errorf("verification summary missing:\n%s", out.String())
	}
}

func TestMinimizeSkipVerify(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-skip-verify", "-minimize", "-minimize-firings", "441", "-parallel", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	wants := []string{
		"empirically minimal capacities for the uniform VBR stream",
		"answered by the feasibility cache",
		// The empirical lower bound for this stream at 441 firings per
		// probe; deterministic (seed 2008) and worker-independent.
		"minimal=3641",
		// The footer reports the search's effort under the /statsz keys:
		// one periodic run per simulated probe.
		"probe effort: 12415 events simulated, 0 replayed from checkpoints (0 warm resets, 14 cold)",
		"run stats: simEvents=12415 resumedEvents=0 warmResets=0 coldResets=14 ",
	}
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Errorf("output missing %q:\n%s", w, text)
		}
	}
	// The found capacities must not depend on the worker count.
	var serial bytes.Buffer
	if err := run([]string{"-skip-verify", "-minimize", "-minimize-firings", "441", "-parallel", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(serial.String(), "minimal=3641") {
		t.Errorf("serial minimization found different capacities:\n%s", serial.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-checkpoints", "0"}, &out); err == nil {
		t.Error("removed -checkpoints flag accepted")
	}
}

// TestRejectsNonPositiveHorizons pins that a non-positive horizon is an
// error: it is neither simulated at a default horizon nor written into a
// cache fingerprint.
func TestRejectsNonPositiveHorizons(t *testing.T) {
	for _, args := range [][]string{
		{"-skip-verify", "-minimize", "-minimize-firings", "0"},
		{"-skip-verify", "-minimize", "-minimize-firings", "-3"},
		{"-firings", "0"},
		{"-firings", "-1"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "firings must be positive") {
			t.Errorf("%v: err = %v, want a non-positive horizon error", args, err)
		}
	}
}

// stripTimings removes what legitimately varies between runs (worker
// counts and wall/CPU times) so outputs can be compared; the footer's
// simulation effort stays.
func stripTimings(s string) string {
	var kept []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "workers)") {
			continue
		}
		if i := strings.Index(line, " workers="); strings.HasPrefix(line, "run stats:") && i >= 0 {
			line = line[:i]
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

func TestParallelVerificationMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation horizon too long for -short")
	}
	var serial, par bytes.Buffer
	if err := run([]string{"-firings", "2205", "-parallel", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-firings", "2205", "-parallel", "4"}, &par); err != nil {
		t.Fatal(err)
	}
	if stripTimings(serial.String()) != stripTimings(par.String()) {
		t.Errorf("parallel verification output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), par.String())
	}
	// Four streams and the baseline check: five self-timed runs and one
	// periodic attempt each, all cold.
	if !strings.Contains(par.String(), "run stats: simEvents=33185 resumedEvents=0 warmResets=0 coldResets=10 ") {
		t.Errorf("stats line missing:\n%s", par.String())
	}
}

func TestDegradationSkipVerify(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-skip-verify", "-degradation", "2", "-minimize-firings", "441", "-parallel", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	wants := []string{
		"fault-injection degradation sweep (441 DAC firings per point",
		"overrun factor",
		"slack",
	}
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Errorf("output missing %q:\n%s", w, text)
		}
	}
	// The curve is deterministic in (config, seed): a serial run must agree.
	var serial bytes.Buffer
	if err := run([]string{"-skip-verify", "-degradation", "2", "-minimize-firings", "441", "-parallel", "1"}, &serial); err != nil {
		t.Fatal(err)
	}
	if stripTimings(serial.String()) != stripTimings(text) {
		t.Errorf("degradation sweep differs between worker counts:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), text)
	}
}

func TestJitteredVerificationShortHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation horizon too long for -short")
	}
	var out bytes.Buffer
	if err := run([]string{"-firings", "2205", "-jitter", "1/2"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "with admissible execution-time jitter up to 1/2") {
		t.Errorf("jitter notice missing:\n%s", text)
	}
	if !strings.Contains(text, "all workloads sustained the 44.1 kHz schedule") {
		t.Errorf("jittered verification did not sustain the schedule:\n%s", text)
	}
}

func TestTimeoutExpired(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-firings", "441", "-timeout", "1ns"}, &out)
	if !errors.Is(err, vrdfcap.ErrBudgetExceeded) {
		t.Errorf("expired -timeout: err = %v, want ErrBudgetExceeded", err)
	}
}

func TestBadFaultFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-skip-verify", "-degradation", "1"}, &out); err == nil {
		t.Error("-degradation factor 1 accepted (must exceed 1)")
	}
	if err := run([]string{"-firings", "441", "-jitter", "bogus"}, &out); err == nil {
		t.Error("malformed -jitter accepted")
	}
}

func TestMinimizeCacheDirColdWarm(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-skip-verify", "-minimize", "-minimize-firings", "441", "-cache-dir", dir}

	var cold bytes.Buffer
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	var warm bytes.Buffer
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "; 0 probes simulated") {
		t.Errorf("warm cache-dir run still simulated probes:\n%s", warm.String())
	}
	if !strings.Contains(warm.String(), "1 loaded") {
		t.Errorf("warm run cache stats missing:\n%s", warm.String())
	}
	// The found minima must be identical; compare the per-buffer lines.
	pick := func(s string) (lines []string) {
		for _, l := range strings.Split(s, "\n") {
			if strings.Contains(l, "minimal") && strings.Contains(l, "eq(4)") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	coldMin, warmMin := pick(cold.String()), pick(warm.String())
	if len(coldMin) == 0 || strings.Join(coldMin, "\n") != strings.Join(warmMin, "\n") {
		t.Errorf("warm cache changed the minima:\n--- cold ---\n%s\n--- warm ---\n%s",
			strings.Join(coldMin, "\n"), strings.Join(warmMin, "\n"))
	}
}
