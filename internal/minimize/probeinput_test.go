package minimize

import (
	"testing"

	"vrdfcap/internal/mp3"
	"vrdfcap/internal/quanta"
	"vrdfcap/internal/sim"
	"vrdfcap/internal/taskgraph"
)

// probeSubject is one probe entry point under test: compile returns a newly
// built probe function over the §5 MP3 chain. Buffer-keyed subjects take
// capacities; edge-keyed ones (the Machine resets) take initial tokens.
type probeSubject struct {
	name    string
	edges   bool // probes name VRDF edges, not buffers
	unsized bool // built over a graph whose last buffer is unsized
	compile func(t *testing.T) func(map[string]int64) (bool, error)
}

// TestProbeInputErrors pins the probe-input errors of every capacity-probe
// entry point: an unknown buffer or edge, a zero or negative capacity, a
// negative token override and an unsized buffer left out of the
// assignment each return an error, never a verdict, and the probes that
// follow on the same reused checker give the verdicts of a freshly
// compiled one.
func TestProbeInputErrors(t *testing.T) {
	const firings = 200
	names := mp3.BufferNames()
	sized := func(t *testing.T) *taskgraph.Graph {
		t.Helper()
		g, err := mp3.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range []int64{6015, 3263, 883} {
			g.BufferByName(names[i]).Capacity = d
		}
		return g
	}
	unsized := func(t *testing.T) *taskgraph.Graph {
		g := sized(t)
		g.BufferByName(names[2]).Capacity = 0
		return g
	}
	w := sim.Workloads{names[0]: {Cons: quanta.Uniform(mp3.FrameSizes(), 2008)}}
	c := mp3.Constraint()
	verifier := func(t *testing.T, opts sim.VerifyOptions) *sim.Verifier {
		t.Helper()
		opts.Firings, opts.Workloads = firings, w
		vf, err := sim.CompileVerifier(sized(t), c, opts)
		if err != nil {
			t.Fatal(err)
		}
		return vf
	}
	// machine probes a compiled machine through Reset; with checkpoints
	// > 0 each Reset resumes warm from the newest valid checkpoint.
	machine := func(t *testing.T, checkpoints int) func(map[string]int64) (bool, error) {
		t.Helper()
		cfg, _, err := sim.TaskGraphConfig(sized(t), w)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stop = sim.Stop{Actor: mp3.TaskDAC, Firings: firings}
		cfg.LiteResult = true
		cfg.Checkpoints = checkpoints
		m, err := sim.Compile(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return func(tokens map[string]int64) (bool, error) {
			if err := m.Reset(tokens); err != nil {
				return false, err
			}
			res, err := m.Run()
			if err != nil {
				return false, err
			}
			return res.Outcome == sim.Completed, nil
		}
	}
	subjects := []probeSubject{
		{name: "DeadlockFreeCheck", unsized: true, compile: func(t *testing.T) func(map[string]int64) (bool, error) {
			return DeadlockFreeCheck(unsized(t), mp3.TaskDAC, firings, []sim.Workloads{w}, Options{Checkpoints: 8})
		}},
		{name: "ThroughputCheck", unsized: true, compile: func(t *testing.T) func(map[string]int64) (bool, error) {
			return ThroughputCheck(unsized(t), c, firings, []sim.Workloads{w}, Options{Checkpoints: 8})
		}},
		{name: "Verifier.Verify", compile: func(t *testing.T) func(map[string]int64) (bool, error) {
			vf := verifier(t, sim.VerifyOptions{LiteResult: true})
			return func(caps map[string]int64) (bool, error) {
				v, err := vf.Verify(caps)
				if err != nil {
					return false, err
				}
				return v.OK, nil
			}
		}},
		{name: "Verifier.Verify_Validate", compile: func(t *testing.T) func(map[string]int64) (bool, error) {
			vf := verifier(t, sim.VerifyOptions{Validate: true})
			return func(caps map[string]int64) (bool, error) {
				v, err := vf.Verify(caps)
				if err != nil {
					return false, err
				}
				return v.OK, nil
			}
		}},
		{name: "Verifier.Feasible", compile: func(t *testing.T) func(map[string]int64) (bool, error) {
			vf := verifier(t, sim.VerifyOptions{LiteResult: true, Checkpoints: 8})
			return func(caps map[string]int64) (bool, error) { return vf.Feasible(nil, caps) }
		}},
		{name: "Machine.Reset", edges: true, compile: func(t *testing.T) func(map[string]int64) (bool, error) {
			return machine(t, 0)
		}},
		{name: "Machine.ResetWarm", edges: true, compile: func(t *testing.T) func(map[string]int64) (bool, error) {
			return machine(t, 8)
		}},
	}

	// Space-edge names of the MP3 buffers, for the edge-keyed subjects.
	_, mapping, err := sim.TaskGraphConfig(sized(t), w)
	if err != nil {
		t.Fatal(err)
	}
	space := make([]string, len(names))
	for i, n := range names {
		p, ok := mapping.Pair(n)
		if !ok {
			t.Fatalf("no edge pair for %s", n)
		}
		space[i] = p.Space
	}
	// assign builds a probe input from per-buffer values, keyed by
	// buffer or by space edge; a value of drop leaves the buffer out.
	assign := func(edges bool, vals [3]int64, extra map[string]int64) map[string]int64 {
		in := make(map[string]int64, len(vals)+len(extra))
		for i, v := range vals {
			if v == drop {
				continue
			}
			if edges {
				in[space[i]] = v
			} else {
				in[names[i]] = v
			}
		}
		for k, v := range extra {
			in[k] = v
		}
		return in
	}
	full := [3]int64{6015, 3263, 883}
	// The probes run after each rejected input: the Equation-4 sizing
	// passes, and 10 containers before the DAC (below vSRC's production
	// quantum of 441) deadlock.
	valid := [][3]int64{full, {6015, 3263, 10}}

	type badCase struct {
		name    string
		edges   bool // an edge-keyed case; buffer-keyed otherwise
		unsized bool // needs a subject with an unsized buffer
		vals    [3]int64
		extra   map[string]int64
	}
	cases := []badCase{
		{name: "unknown buffer", vals: full, extra: map[string]int64{"nope->nowhere": 5}},
		{name: "zero capacity", vals: [3]int64{6015, 0, 883}},
		{name: "negative capacity", vals: [3]int64{6015, -4, 883}},
		{name: "unsized buffer left out", unsized: true, vals: [3]int64{6015, 3263, drop}},
		{name: "unknown edge", edges: true, vals: full, extra: map[string]int64{"nope": 5}},
		{name: "negative token override", edges: true, vals: [3]int64{6015, -1, 883}},
	}

	for _, s := range subjects {
		t.Run(s.name, func(t *testing.T) {
			fresh := s.compile(t)
			want := make([]bool, len(valid))
			for i, vals := range valid {
				ok, err := fresh(assign(s.edges, vals, nil))
				if err != nil {
					t.Fatalf("fresh probe %v: %v", vals, err)
				}
				want[i] = ok
			}
			if !want[0] || want[1] {
				t.Fatalf("fresh verdicts %v; want the Equation-4 sizing to pass and 10 DAC containers to fail", want)
			}
			reused := s.compile(t)
			ran := 0
			for _, tc := range cases {
				if tc.edges != s.edges || tc.unsized && !s.unsized {
					continue
				}
				ran++
				in := assign(s.edges, tc.vals, tc.extra)
				if ok, err := reused(in); err == nil {
					t.Errorf("%s: probe %v = verdict %v; want an error", tc.name, in, ok)
				}
				for i, vals := range valid {
					ok, err := reused(assign(s.edges, vals, nil))
					if err != nil {
						t.Fatalf("%s: next probe %v: %v", tc.name, vals, err)
					}
					if ok != want[i] {
						t.Errorf("%s: next probe %v = %v; a freshly compiled checker says %v", tc.name, vals, ok, want[i])
					}
				}
			}
			if ran == 0 {
				t.Fatalf("no input case applies to %s", s.name)
			}
		})
	}
}

// drop marks a buffer left out of a probe's assignment.
const drop = -1 << 62
