// Package trace post-processes simulation traces: it converts recorded
// token transfers into the cumulative-transfer events that
// bounds.CheckUpper and bounds.CheckLower test for conservativeness, and
// renders text versions of the paper's Figure 3 (cumulative transfers
// against the linear bounds α̂p and α̌c) and simple Gantt charts of actor
// start times.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"vrdfcap/internal/bounds"
	"vrdfcap/internal/ratio"
	"vrdfcap/internal/sim"
)

// ToEvents converts recorded transfers of one edge into bound-check events,
// keeping only productions (produce=true) or consumptions (produce=false).
func ToEvents(recs []sim.TransferRec, base sim.TimeBase, produce bool) []bounds.Event {
	var out []bounds.Event
	for _, rec := range recs {
		if rec.Produce != produce {
			continue
		}
		out = append(out, bounds.Event{
			From: rec.From,
			To:   rec.To,
			At:   base.Rat(rec.Tick),
		})
	}
	return out
}

// Row is one line of a Figure-3 style table: a firing's transfer and the
// bound value for its binding token.
type Row struct {
	Firing   int64
	From, To int64
	At       ratio.Rat
	Bound    ratio.Rat
	Produce  bool
	// Slack is Bound−At for productions (non-negative when conservative)
	// and At−Bound for consumptions.
	Slack ratio.Rat
}

// Table builds Figure-3 style rows for one edge: productions against the
// upper bound and consumptions against the lower bound, in time order.
func Table(upper, lower bounds.Line, recs []sim.TransferRec, base sim.TimeBase) []Row {
	rows := make([]Row, 0, len(recs))
	var pk, ck int64
	for _, rec := range recs {
		at := base.Rat(rec.Tick)
		var row Row
		if rec.Produce {
			b := upper.At(rec.From)
			row = Row{Firing: pk, From: rec.From, To: rec.To, At: at, Bound: b, Produce: true, Slack: b.Sub(at)}
			pk++
		} else {
			b := lower.At(rec.To)
			row = Row{Firing: ck, From: rec.From, To: rec.To, At: at, Bound: b, Produce: false, Slack: at.Sub(b)}
			ck++
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteTable formats rows as an aligned text table.
func WriteTable(w io.Writer, rows []Row) error {
	if _, err := fmt.Fprintf(w, "%-6s %-5s %-12s %-12s %-12s %-10s\n",
		"kind", "fire", "tokens", "time", "bound", "slack"); err != nil {
		return err
	}
	for _, r := range rows {
		kind := "cons"
		if r.Produce {
			kind = "prod"
		}
		if _, err := fmt.Fprintf(w, "%-6s %-5d [%d,%d]%s %-12s %-12s %-10s\n",
			kind, r.Firing, r.From, r.To,
			strings.Repeat(" ", pad(r.From, r.To)),
			r.At, r.Bound, r.Slack); err != nil {
			return err
		}
	}
	return nil
}

func pad(from, to int64) int {
	n := len(fmt.Sprintf("[%d,%d]", from, to))
	if n >= 12 {
		return 1
	}
	return 12 - n
}

// PlotCumulative renders an ASCII version of the paper's Figure 3: the
// x-axis is the cumulative token index, the y-axis (downwards) is time.
// Productions are marked 'P', consumptions 'C', the upper production bound
// '·' (middle dot) where no event sits, and coincident marks prefer
// events. width and height bound the canvas.
func PlotCumulative(w io.Writer, upper, lower bounds.Line, recs []sim.TransferRec, base sim.TimeBase, width, height int) error {
	if width < 16 {
		width = 16
	}
	if height < 8 {
		height = 8
	}
	if len(recs) == 0 {
		_, err := fmt.Fprintln(w, "(no transfers recorded)")
		return err
	}
	maxTok := int64(0)
	maxTick := int64(0)
	for _, r := range recs {
		if r.To > maxTok {
			maxTok = r.To
		}
		if r.Tick > maxTick {
			maxTick = r.Tick
		}
	}
	// Include the bound values at the extremes so the lines fit.
	maxT := base.Rat(maxTick)
	for _, b := range []ratio.Rat{upper.At(maxTok), lower.At(maxTok)} {
		if maxT.Less(b) {
			maxT = b
		}
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	col := func(tok int64) int {
		if maxTok <= 1 {
			return 0
		}
		return int((tok - 1) * int64(width-1) / (maxTok - 1))
	}
	rowOf := func(t ratio.Rat) int {
		if maxT.Sign() <= 0 {
			return 0
		}
		// row = t/maxT * (height-1), computed exactly then floored.
		return int(t.MulInt(int64(height - 1)).Div(maxT).Floor())
	}
	// Bound lines.
	for tok := int64(1); tok <= maxTok; tok++ {
		for _, l := range []bounds.Line{upper, lower} {
			rr := rowOf(l.At(tok))
			if rr >= 0 && rr < height {
				grid[rr][col(tok)] = '.'
			}
		}
	}
	// Events on top.
	for _, rec := range recs {
		rr := rowOf(base.Rat(rec.Tick))
		if rr < 0 || rr >= height {
			continue
		}
		mark := byte('C')
		if rec.Produce {
			mark = 'P'
		}
		for tok := rec.From; tok <= rec.To; tok++ {
			grid[rr][col(tok)] = mark
		}
	}
	if _, err := fmt.Fprintf(w, "cumulative tokens 1..%d ->, time 0..%v (down); P=produce C=consume .=bounds\n", maxTok, maxT); err != nil {
		return err
	}
	for _, line := range grid {
		if _, err := fmt.Fprintf(w, "|%s|\n", line); err != nil {
			return err
		}
	}
	return nil
}

// Gantt renders actor start times as one text lane per actor. Each column
// is a bucket of ticks; a '#' marks a bucket containing at least one start.
func Gantt(w io.Writer, starts map[string][]int64, base sim.TimeBase, width int) error {
	if width < 10 {
		width = 10
	}
	names := make([]string, 0, len(starts))
	maxTick := int64(1)
	for n, ss := range starts {
		names = append(names, n)
		for _, s := range ss {
			if s > maxTick {
				maxTick = s
			}
		}
	}
	sort.Strings(names)
	nameW := 0
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	for _, n := range names {
		lane := []byte(strings.Repeat("-", width))
		for _, s := range starts[n] {
			c := int(s * int64(width-1) / maxTick)
			lane[c] = '#'
		}
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", nameW, n, lane); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  0%*s\n", nameW, "", width, base.Rat(maxTick).String())
	return err
}
