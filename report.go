package vrdfcap

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"vrdfcap/internal/ratio"
)

// WriteReport renders an analysis result as an aligned text report: the
// constraint, the per-task schedule checks (ρ against φ), the per-buffer
// capacities under every applicable formula, and any diagnostics. The
// report is built in one buffer and written with one Write.
func WriteReport(w io.Writer, res *Result) error {
	b := make([]byte, 0, reportSize(res))
	b = append(b, "throughput constraint: task "...)
	b = append(b, res.Constraint.Task...)
	b = append(b, " strictly periodic, period "...)
	b = appendRat(b, res.Constraint.Period)
	b = append(b, " ("...)
	b = append(b, res.Direction.String()...)
	b = append(b, ", policy "...)
	b = append(b, res.Policy.String()...)
	b = append(b, ")\n\n"...)

	// Room for every cell end of the larger table: 4 columns of checks,
	// up to 7 of buffers, each with a header row.
	t := table{ends: make([]int, 0, max(4*(len(res.Checks)+1), 7*(len(res.Buffers)+1)))}
	t.begin(b, 4)
	b = t.text(b, "task")
	b = t.text(b, "ρ (WCRT)")
	b = t.text(b, "φ (min start distance)")
	b = t.text(b, "schedule")
	for _, ck := range res.Checks {
		b = t.text(b, ck.Task)
		b = t.rat(b, ck.Rho)
		b = t.rat(b, ck.Phi)
		if ck.OK {
			b = t.text(b, "ok")
		} else {
			b = t.text(b, "VIOLATED")
		}
	}
	b = t.end(b)

	showMemory := res.TotalMemoryBytes() > 0
	b = append(b, '\n')
	if showMemory {
		t.begin(b, 7)
	} else {
		t.begin(b, 6)
	}
	b = t.text(b, "buffer")
	b = t.text(b, "μ (time/container)")
	b = t.text(b, "eq(3) gap")
	b = t.text(b, "eq(4) capacity")
	b = t.text(b, "baseline")
	b = t.text(b, "selected")
	if showMemory {
		b = t.text(b, "memory")
	}
	for i := range res.Buffers {
		br := &res.Buffers[i]
		b = t.text(b, br.Buffer)
		b = t.rat(b, br.Mu)
		b = t.rat(b, br.Distances.SpaceGap)
		b = t.int(b, br.CapacityEq4)
		if br.ConstantRates {
			b = t.int(b, br.CapacityBaseline)
		} else {
			b = t.text(b, "-")
		}
		b = t.int(b, br.Capacity)
		if showMemory {
			if br.ContainerBytes > 0 {
				b = strconv.AppendInt(b, br.MemoryBytes(), 10)
				b = t.text(b, " B")
			} else {
				b = t.text(b, "-")
			}
		}
	}
	b = t.end(b)

	b = append(b, "\ntotal capacity: "...)
	b = strconv.AppendInt(b, res.TotalCapacity(), 10)
	b = append(b, " containers\n"...)
	if showMemory {
		b = append(b, "total memory: "...)
		b = strconv.AppendInt(b, res.TotalMemoryBytes(), 10)
		b = append(b, " bytes\n"...)
	}
	if !res.Valid {
		b = append(b, "\nWARNING: the throughput constraint cannot be guaranteed:\n"...)
		for _, d := range res.Diagnostics {
			b = append(b, "  - "...)
			b = append(b, d...)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// reportSize estimates the length of res's report, so that its buffer is
// usually allocated once: the fixed text plus a line per table row and the
// diagnostics. The §5 MP3 report is 739 bytes of an estimated 864.
func reportSize(res *Result) int {
	n := 384 + 48*len(res.Checks) + 96*len(res.Buffers)
	for _, d := range res.Diagnostics {
		n += len(d) + 5
	}
	return n
}

// appendRat appends r in its String format.
func appendRat(b []byte, r ratio.Rat) []byte {
	b, _ = r.AppendText(b) // AppendText never fails
	return b
}

// table lays out a table of cells the way text/tabwriter does with
// minwidth 2, padding 2, padchar ' ' and no flags, for tables whose rows
// all have the same number of cells: each column but the last is as wide
// as its widest cell, counted in runes, plus 2, and the last cell of a row
// is not padded. Cells are appended to the output as they come; end pads
// them in place once every column's width is known.
type table struct {
	start int   // offset of the table's first cell in the output
	ncol  int   // cells per row, at most maxColumns
	ends  []int // offset just past each cell so far, row by row
}

// maxColumns bounds the cells per row, so end keeps its widths on the
// stack.
const maxColumns = 8

// columnPadding is the space text/tabwriter puts after the widest cell of
// a column.
const columnPadding = 2

// begin starts a table of ncol columns at the end of b.
func (t *table) begin(b []byte, ncol int) {
	t.start, t.ncol, t.ends = len(b), ncol, t.ends[:0]
}

// text appends s and ends a cell there: the cell holds s and whatever was
// appended since the previous cell ended.
func (t *table) text(b []byte, s string) []byte {
	b = append(b, s...)
	t.ends = append(t.ends, len(b))
	return b
}

// rat appends a cell holding r.
func (t *table) rat(b []byte, r ratio.Rat) []byte {
	b = appendRat(b, r)
	t.ends = append(t.ends, len(b))
	return b
}

// int appends a cell holding n in decimal.
func (t *table) int(b []byte, n int64) []byte {
	b = strconv.AppendInt(b, n, 10)
	t.ends = append(t.ends, len(b))
	return b
}

// end pads the table's cells and ends every row with a newline. It grows
// b by the padding and the newlines, then moves the cells to their final
// offsets from the last to the first: a cell only ever moves right, past
// ground its successors have already left.
func (t *table) end(b []byte) []byte {
	var widths [maxColumns]int
	last := t.ncol - 1
	padded := 0 // runes in the cells that get padding
	start, c := t.start, 0
	for _, end := range t.ends {
		if c < last {
			n := utf8.RuneCount(b[start:end])
			widths[c] = max(widths[c], n+columnPadding)
			padded += n
			c++
		} else {
			c = 0
		}
		start = end
	}
	rows := len(t.ends) / t.ncol
	grow := rows - padded // a newline per row, and the padding
	for _, w := range widths[:last] {
		grow += rows * w
	}
	old := len(b)
	b = slices.Grow(b, grow)[:old+grow]
	at, c := len(b), last
	for i := len(t.ends) - 1; i >= 0; i-- {
		start, end := t.start, t.ends[i]
		if i > 0 {
			start = t.ends[i-1]
		}
		if c == last {
			at--
			b[at] = '\n'
		} else {
			pad := widths[c] - utf8.RuneCount(b[start:end])
			at -= pad
			for j := at; j < at+pad; j++ {
				b[j] = ' '
			}
		}
		at -= end - start
		copy(b[at:], b[start:end])
		if c--; c < 0 {
			c = last
		}
	}
	return b
}

// WriteVerification renders a simulation-based verification outcome.
func WriteVerification(w io.Writer, v *Verification) error {
	if v.OK {
		if _, err := fmt.Fprintf(w, "verified: strictly periodic schedule sustained (offset %s, %d periodic attempt(s))\n",
			v.Offset, v.Attempts); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "NOT verified: %s\n", v.Reason); err != nil {
			return err
		}
		if v.Underrun != nil {
			if _, err := fmt.Fprintf(w, "  underrun: task %s firing %d at tick %d", v.Underrun.Actor, v.Underrun.Firing, v.Underrun.Tick); err != nil {
				return err
			}
			if v.Underrun.Edge != "" {
				if _, err := fmt.Fprintf(w, ", starved on %s (%d of %d tokens)", v.Underrun.Edge, v.Underrun.Have, v.Underrun.Need); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprint(w, ", previous firing still running"); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if v.Deadlock != nil {
			if _, err := fmt.Fprintf(w, "  deadlock at tick %d: %d task(s) blocked\n", v.Deadlock.Tick, len(v.Deadlock.Blocked)); err != nil {
				return err
			}
			for _, b := range v.Deadlock.Blocked {
				if _, err := fmt.Fprintf(w, "    %s firing %d starved on %s (%d of %d tokens)\n",
					b.Actor, b.Firing, b.Edge, b.Have, b.Need); err != nil {
					return err
				}
			}
		}
	}
	if v.SelfTimed != nil {
		if _, err := fmt.Fprintf(w, "  self-timed phase: %s after %d events, firings per task: %v\n",
			v.SelfTimed.Outcome, v.SelfTimed.Events, v.SelfTimed.Fired); err != nil {
			return err
		}
	}
	if v.Periodic != nil {
		if _, err := fmt.Fprintf(w, "  periodic phase: %s after %d events\n",
			v.Periodic.Outcome, v.Periodic.Events); err != nil {
			return err
		}
	}
	return nil
}

// WriteDegradation renders a fault-injection degradation curve: one row per
// overrun factor with the verification verdict, then the slack summary —
// how far beyond the worst-case response times the sizing still sustained
// the throughput constraint. The curve is built in one buffer and written
// with one Write.
func WriteDegradation(w io.Writer, curve *DegradationCurve) error {
	b := make([]byte, 0, 160+64*len(curve.Points))
	t := table{ends: make([]int, 0, 3*(len(curve.Points)+1))}
	t.begin(b, 3)
	b = t.text(b, "overrun factor")
	b = t.text(b, "verdict")
	b = t.text(b, "reason")
	for i := range curve.Points {
		p := &curve.Points[i]
		b = t.rat(b, p.Factor)
		if p.OK {
			b = t.text(b, "ok")
			b = t.text(b, "-")
		} else {
			b = t.text(b, "FAILED")
			b = t.text(b, p.Reason)
		}
	}
	b = t.end(b)
	if ff := curve.FirstFailure(); ff == nil {
		b = append(b, "\nno degradation observed up to factor "...)
		b = appendRat(b, curve.Points[len(curve.Points)-1].Factor)
		b = append(b, " (slack >= "...)
		b = appendRat(b, curve.Slack())
		b = append(b, ")\n"...)
	} else {
		b = append(b, "\nfirst failure at factor "...)
		b = appendRat(b, ff.Factor)
		b = append(b, "; overrun slack "...)
		b = appendRat(b, curve.Slack())
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}
