package vrdfcap_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"text/tabwriter"

	"vrdfcap"
	"vrdfcap/internal/graphgen"
	"vrdfcap/internal/ratio"
)

// refWriteReport is the text/tabwriter renderer WriteReport replaced, kept
// verbatim (minus its writer pool) as the oracle of the differential test
// below.
func refWriteReport(w io.Writer, res *vrdfcap.Result) error {
	if _, err := fmt.Fprintf(w, "throughput constraint: task %s strictly periodic, period %s (%s, policy %s)\n",
		res.Constraint.Task, res.Constraint.Period, res.Direction, res.Policy); err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\ntask\tρ (WCRT)\tφ (min start distance)\tschedule")
	for _, ck := range res.Checks {
		status := "ok"
		if !ck.OK {
			status = "VIOLATED"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", ck.Task, ck.Rho, ck.Phi, status)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	showMemory := res.TotalMemoryBytes() > 0
	tw.Init(w, 2, 4, 2, ' ', 0)
	header := "\nbuffer\tμ (time/container)\teq(3) gap\teq(4) capacity\tbaseline\tselected"
	if showMemory {
		header += "\tmemory"
	}
	fmt.Fprintln(tw, header)
	for i := range res.Buffers {
		b := &res.Buffers[i]
		base := "-"
		if b.ConstantRates {
			base = fmt.Sprintf("%d", b.CapacityBaseline)
		}
		row := fmt.Sprintf("%s\t%s\t%s\t%d\t%s\t%d",
			b.Buffer, b.Mu, b.Distances.SpaceGap, b.CapacityEq4, base, b.Capacity)
		if showMemory {
			if b.ContainerBytes > 0 {
				row += fmt.Sprintf("\t%d B", b.MemoryBytes())
			} else {
				row += "\t-"
			}
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if _, err := fmt.Fprintf(w, "\ntotal capacity: %d containers\n", res.TotalCapacity()); err != nil {
		return err
	}
	if showMemory {
		if _, err := fmt.Fprintf(w, "total memory: %d bytes\n", res.TotalMemoryBytes()); err != nil {
			return err
		}
	}
	if !res.Valid {
		if _, err := fmt.Fprintln(w, "\nWARNING: the throughput constraint cannot be guaranteed:"); err != nil {
			return err
		}
		for _, d := range res.Diagnostics {
			if _, err := fmt.Fprintf(w, "  - %s\n", d); err != nil {
				return err
			}
		}
	}
	return nil
}

// refWriteDegradation is the text/tabwriter degradation renderer
// WriteDegradation replaced, kept as the oracle of the differential test.
func refWriteDegradation(w io.Writer, curve *vrdfcap.DegradationCurve) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "overrun factor\tverdict\treason")
	for i := range curve.Points {
		p := &curve.Points[i]
		verdict, reason := "ok", "-"
		if !p.OK {
			verdict = "FAILED"
			reason = p.Reason
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", p.Factor, verdict, reason)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if ff := curve.FirstFailure(); ff == nil {
		if _, err := fmt.Fprintf(w, "\nno degradation observed up to factor %s (slack >= %s)\n",
			curve.Points[len(curve.Points)-1].Factor, curve.Slack()); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "\nfirst failure at factor %s; overrun slack %s\n",
			ff.Factor, curve.Slack()); err != nil {
			return err
		}
	}
	return nil
}

// refNames are task names of mixed byte and rune widths: the column
// widths count runes, so a multi-byte name must pad like its rune count.
var refNames = []string{"t", "décodeur", "θ", "源", "vDAC_output_stage", "ü", "ζζζζζζζζζζζζ", "a-b"}

// TestWriteReportMatchesTabwriter renders the analyses of generated chains,
// valid and invalid, sink- and source-constrained, with and without
// container sizes and with multi-byte task names, and requires the
// renderer to write exactly what the text/tabwriter one wrote.
func TestWriteReportMatchesTabwriter(t *testing.T) {
	seeds := int64(120)
	if testing.Short() {
		seeds = 30
	}
	periods := []ratio.Rat{ratio.One, ratio.MustNew(1, 3), ratio.MustNew(7, 2), ratio.MustNew(1, 1000003)}
	var valid, invalid int
	for seed := int64(0); seed < seeds; seed++ {
		cfg := graphgen.Defaults(seed)
		cfg.MaxTasks = 8
		cfg.SourceConstrained = seed%3 == 1
		cfg.ZeroConsumption = seed%5 == 2
		g, c, err := graphgen.Random(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed%2 == 0 {
			for i, b := range g.Buffers() {
				b.ContainerBytes = int64(i * 3) // the first stays unsized
			}
		}
		c.Period = periods[seed%int64(len(periods))]
		for _, p := range []vrdfcap.Policy{vrdfcap.PolicyEquation4, vrdfcap.PolicyHybrid} {
			res, err := vrdfcap.Analyze(g, c, p)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if res.Valid {
				valid++
			} else {
				invalid++
			}
			if seed%4 != 3 {
				// Rename the tasks in the rendered rows; the rest of the
				// result keeps its generated names.
				for i := range res.Checks {
					res.Checks[i].Task = refNames[(int(seed)+i)%len(refNames)]
				}
				for i := range res.Buffers {
					res.Buffers[i].Buffer = res.Checks[i].Task + "->" + res.Checks[i+1].Task
				}
				res.Constraint.Task = res.Checks[0].Task
			}
			var got, want bytes.Buffer
			if err := vrdfcap.WriteReport(&got, res); err != nil {
				t.Fatal(err)
			}
			if err := refWriteReport(&want, res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("seed %d policy %v: report differs from the tabwriter rendering\n--- got ---\n%s--- want ---\n%s",
					seed, p, got.Bytes(), want.Bytes())
			}
		}
	}
	if valid == 0 || invalid == 0 {
		t.Fatalf("differential covered %d valid and %d invalid results; want both", valid, invalid)
	}
}

// TestWriteDegradationMatchesTabwriter does the same for degradation
// curves, with reasons of mixed widths in the last column.
func TestWriteDegradationMatchesTabwriter(t *testing.T) {
	reasons := []string{"periodic phase underrun: task sink firing 7", "", "é", "deadlock: 源 starved on 源->θ"}
	for n := 1; n <= 6; n++ {
		for fail := 0; fail <= n; fail++ {
			curve := &vrdfcap.DegradationCurve{}
			for i := 0; i < n; i++ {
				curve.Points = append(curve.Points, vrdfcap.DegradationPoint{
					Factor: ratio.MustNew(int64(10+i*i*7), 10),
					OK:     i < fail,
					Reason: reasons[(n+i)%len(reasons)],
				})
			}
			var got, want bytes.Buffer
			if err := vrdfcap.WriteDegradation(&got, curve); err != nil {
				t.Fatal(err)
			}
			if err := refWriteDegradation(&want, curve); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%d points, %d passing: degradation differs from the tabwriter rendering\n--- got ---\n%s--- want ---\n%s",
					n, fail, got.Bytes(), want.Bytes())
			}
		}
	}
}
