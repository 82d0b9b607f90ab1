package vrdfcap_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vrdfcap"
	"vrdfcap/internal/graphgen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestWriteDegradationGolden pins the exact rendering of the degradation
// report — column alignment, verdict spelling, and both slack summaries —
// against golden files. Run with -update to regenerate after a deliberate
// format change.
func TestWriteDegradationGolden(t *testing.T) {
	cases := []struct {
		name  string
		curve *vrdfcap.DegradationCurve
	}{
		{
			// Every point passes: the summary reports the slack as a lower
			// bound at the last factor swept.
			name: "all_pass",
			curve: &vrdfcap.DegradationCurve{Points: []vrdfcap.DegradationPoint{
				{Factor: vrdfcap.Rat(1, 1), OK: true},
				{Factor: vrdfcap.Rat(11, 10), OK: true},
				{Factor: vrdfcap.Rat(6, 5), OK: true},
			}},
		},
		{
			// Degradation at the third factor: the table carries the failure
			// reason and the summary names the first failing factor with the
			// slack of the passing prefix.
			name: "first_failure",
			curve: &vrdfcap.DegradationCurve{Points: []vrdfcap.DegradationPoint{
				{Factor: vrdfcap.Rat(1, 1), OK: true},
				{Factor: vrdfcap.Rat(5, 4), OK: true},
				{Factor: vrdfcap.Rat(3, 2), OK: false, Reason: "periodic phase underrun: task sink firing 7"},
				{Factor: vrdfcap.Rat(7, 4), OK: false, Reason: "periodic phase underrun: task sink firing 2"},
			}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := vrdfcap.WriteDegradation(&buf, tc.curve); err != nil {
				t.Fatalf("WriteDegradation: %v", err)
			}
			golden := filepath.Join("testdata", "degradation_"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatalf("writing golden file: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report drifted from %s (regenerate with -update if deliberate)\n--- got ---\n%s--- want ---\n%s",
					golden, buf.Bytes(), want)
			}
		})
	}
}

// TestWriteReportGolden pins the exact rendering of analysis reports: the
// §5 MP3 chain (memory column, constant and variable buffers), the
// source-constrained camera pipeline, and a generated chain probed below
// its minimal feasible period, whose VIOLATED rows and WARNING block must
// render. Run with -update to regenerate after a deliberate format change.
func TestWriteReportGolden(t *testing.T) {
	fromFile := func(name string) func(t *testing.T) *vrdfcap.Result {
		return func(t *testing.T) *vrdfcap.Result {
			data, err := os.ReadFile(filepath.Join("testdata", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			g, c, err := vrdfcap.DecodeGraph(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := vrdfcap.Analyze(g, *c, vrdfcap.PolicyEquation4)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	cases := []struct {
		name   string
		result func(t *testing.T) *vrdfcap.Result
	}{
		{"mp3", fromFile("mp3")},
		{"camera", fromFile("camera")},
		{"invalid", func(t *testing.T) *vrdfcap.Result {
			g, c, err := graphgen.Random(graphgen.Defaults(3))
			if err != nil {
				t.Fatal(err)
			}
			// graphgen chains are feasible at period 1 with response
			// times up to the minimal start distance; a quarter of it is
			// below the minimal feasible period.
			c.Period = vrdfcap.Rat(1, 4)
			res, err := vrdfcap.Analyze(g, c, vrdfcap.PolicyHybrid)
			if err != nil {
				t.Fatal(err)
			}
			if res.Valid {
				t.Fatal("chain is feasible at period 1/4; pick a seed that is not")
			}
			return res
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := vrdfcap.WriteReport(&buf, tc.result(t)); err != nil {
				t.Fatalf("WriteReport: %v", err)
			}
			golden := filepath.Join("testdata", "report_"+tc.name+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatalf("writing golden file: %v", err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("report drifted from %s (regenerate with -update if deliberate)\n--- got ---\n%s--- want ---\n%s",
					golden, buf.Bytes(), want)
			}
		})
	}
}
