package capacity

import (
	"fmt"

	"vrdfcap/internal/bounds"
	"vrdfcap/internal/ratio"
)

// ChainSchedule is the chain-wide anchoring of the per-pair bound lines of
// a sink-constrained analysis: absolute time offsets for the schedule whose
// existence the analysis proves, with the source's first firing at time 0.
//
// The paper derives buffer capacities per producer–consumer pair (§4.3) and
// never needs absolute times. Materialising them is nevertheless useful: it
// yields a concrete start offset for the strictly periodic sink — an offset
// at which the throughput guarantee holds, without searching — and an
// end-to-end latency bound, both consequences the paper leaves implicit.
type ChainSchedule struct {
	// Anchors holds, per buffer in chain order, the start time of the
	// producing task's first firing in the anchored bound schedule
	// (Anchors[0] is 0: the source starts immediately).
	Anchors []ratio.Rat
	// Lines holds the pair bound lines shifted to the chain anchoring.
	Lines []PairLines
	// SinkOffset is the start time of the constrained sink's first
	// firing: starting the sink strictly periodically at SinkOffset is
	// guaranteed feasible with the computed capacities.
	SinkOffset ratio.Rat
	// LatencyBound bounds the time from the source's first start to the
	// finish of the sink's first firing: SinkOffset + ρ(sink).
	LatencyBound ratio.Rat
}

// Anchored computes the chain-wide schedule anchoring of a sink-constrained
// result. It fails for source-constrained analyses (where the source is
// pinned at time 0 by definition and no accumulation is needed) and for
// invalid results (no feasible schedule exists to anchor).
func Anchored(res *Result) (*ChainSchedule, error) {
	if res.Direction != SinkConstrained {
		return nil, fmt.Errorf("capacity: chain anchoring applies to sink-constrained analyses; the source of a %v chain starts at time 0 by definition", res.Direction)
	}
	if !res.Valid {
		return nil, fmt.Errorf("capacity: cannot anchor an infeasible analysis: %v", res.Diagnostics)
	}
	cs := &ChainSchedule{}
	anchor := ratio.Zero
	sinkRho := res.Checks[len(res.Checks)-1].Rho
	for i := range res.Buffers {
		br := &res.Buffers[i]
		lines, err := br.AnchoredLines()
		if err == nil {
			// Shift the pair's zero-anchored lines to the chain anchor.
			err = lines.shift(anchor)
		}
		if err != nil {
			return nil, fmt.Errorf("capacity: buffer %s: anchored bounds: %w", br.Buffer, err)
		}
		cs.Anchors = append(cs.Anchors, anchor)
		cs.Lines = append(cs.Lines, lines)
		// The consumer of buffer i is the producer of buffer i+1: its
		// first start in the bound schedule anchors the next pair.
		anchor = lines.ConsumerOffset
	}
	latency, err := anchor.AddChecked(sinkRho)
	if err != nil {
		return nil, fmt.Errorf("capacity: latency bound: %w", err)
	}
	cs.SinkOffset = anchor
	cs.LatencyBound = latency
	return cs, nil
}

// shift displaces every line and the consumer offset by d.
func (pl *PairLines) shift(d ratio.Rat) error {
	var err error
	for _, l := range []*bounds.Line{&pl.DataUpper, &pl.DataLower, &pl.SpaceLower, &pl.SpaceUpper} {
		if *l, err = shifted(*l, d); err != nil {
			return err
		}
	}
	pl.ConsumerOffset, err = pl.ConsumerOffset.AddChecked(d)
	return err
}

// Note on lines.DataLower.Shift: PairLines.DataUpper and DataLower are the
// same line in the minimal anchoring, so shifting both keeps them touching.
