package capacity

import (
	"vrdfcap/internal/bounds"
	"vrdfcap/internal/ratio"
)

// PairLines holds the concrete, time-anchored linear bounds of one
// producer–consumer pair, in the anchoring where the producer's first
// firing is enabled at time 0 — Figures 3 and 4 of the paper drawn as
// equations. All four lines share the rate μ.
type PairLines struct {
	// DataUpper is α̂p(e_ab): the upper bound on the producer's token
	// production times on the data edge. Anchored so the producer's
	// first production (token 1) happens by ρ(producer).
	DataUpper bounds.Line
	// DataLower is α̌c(e_ab): the lower bound on the consumer's token
	// consumption times on the data edge. With the minimal sufficient
	// capacity the bounds touch: DataLower == DataUpper.
	DataLower bounds.Line
	// SpaceLower is α̌c(e_ba): the lower bound on the producer's space
	// consumption times; its first firing consumes up to π̂ containers
	// at time 0, so the binding token π̂ sits at 0.
	SpaceLower bounds.Line
	// SpaceUpper is α̂p(e_ba): SpaceLower shifted up by Equation (3);
	// the consumer's space productions stay below it.
	SpaceUpper bounds.Line
	// ConsumerOffset is the start time of the consumer's strictly
	// periodic schedule in this anchoring: the consumption lower bound
	// evaluated at its first firing's binding token γ̂.
	ConsumerOffset ratio.Rat
}

// AnchoredLines materialises the pair's bound lines in the anchoring where
// the producing task's first firing starts at time 0. For the first buffer
// of a chain this is the natural absolute anchoring; for downstream buffers
// shift every offset by the upstream accumulation as needed. It fails when
// an offset is not representable in int64 rationals.
func (br *BufferResult) AnchoredLines() (PairLines, error) {
	mu := br.Mu
	dataUpper := bounds.Line{Offset: br.RhoProd, Mu: mu}
	lead, err := mu.MulChecked(ratio.FromInt(br.ProdMax - 1))
	if err != nil {
		return PairLines{}, err
	}
	spaceOffset, err := lead.NegChecked()
	if err != nil {
		return PairLines{}, err
	}
	spaceLower := bounds.Line{Offset: spaceOffset, Mu: mu}
	spaceUpper, err := shifted(spaceLower, br.Distances.SpaceGap)
	if err != nil {
		return PairLines{}, err
	}
	// The consumer's binding token γ̂ on the data upper bound:
	// ρ(producer) + μ·(γ̂ − 1).
	lag, err := mu.MulChecked(ratio.FromInt(br.ConsMax - 1))
	if err != nil {
		return PairLines{}, err
	}
	consumerOffset, err := br.RhoProd.AddChecked(lag)
	if err != nil {
		return PairLines{}, err
	}
	return PairLines{
		DataUpper:      dataUpper,
		DataLower:      dataUpper,
		SpaceLower:     spaceLower,
		SpaceUpper:     spaceUpper,
		ConsumerOffset: consumerOffset,
	}, nil
}

// shifted returns l displaced vertically (in time) by d, or the overflow
// error Line.Shift would panic with.
func shifted(l bounds.Line, d ratio.Rat) (bounds.Line, error) {
	offset, err := l.Offset.AddChecked(d)
	return bounds.Line{Offset: offset, Mu: l.Mu}, err
}
