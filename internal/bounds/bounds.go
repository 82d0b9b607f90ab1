// Package bounds implements the linear token-transfer bounds of Wiggers et
// al. (DATE 2008), §4.
//
// The paper's buffer-capacity argument never constructs an actual schedule.
// Instead it defines, per edge, a linear upper bound α̂p on cumulative token
// production times and a linear lower bound α̌c on cumulative token
// consumption times, both with rate μ seconds per token, and shows that for
// every sequence of transfer quanta a valid schedule exists whose transfer
// times respect the bounds (Figure 3). Equations (1)–(3) give the minimum
// vertical distance between the bounds of a producer–consumer pair
// (Figure 4); Equation (4) converts that distance into a sufficient number
// of initial tokens on the space edge, i.e. the buffer capacity.
package bounds

import (
	"fmt"

	"vrdfcap/internal/ratio"
)

// Line is a linear bound on cumulative token-transfer times:
//
//	α(x) = Offset + Mu · (x − 1)
//
// where x is the 1-based cumulative token index (the paper counts tokens
// starting from 1) and Mu is the time per token. Whether the line is an
// upper bound on production times or a lower bound on consumption times is
// decided by how it is used; see CheckUpper and CheckLower.
type Line struct {
	// Offset is the bound for the first token, α(1).
	Offset ratio.Rat
	// Mu is the rate of the bound in time per token; must be positive.
	Mu ratio.Rat
}

// At returns α(x) for the 1-based token index x.
func (l Line) At(x int64) ratio.Rat {
	if x < 1 {
		panic(fmt.Sprintf("bounds: token index %d < 1", x))
	}
	return l.Offset.Add(l.Mu.MulInt(x - 1))
}

// Shift returns the line displaced vertically (in time) by d.
func (l Line) Shift(d ratio.Rat) Line {
	return Line{Offset: l.Offset.Add(d), Mu: l.Mu}
}

// HorizontalTokens returns the number of token indices by which a line lags
// another line that sits dist later in time at equal rate: dist/Mu. This is
// the "horizontal difference between the bounds" of §4.2.
func (l Line) HorizontalTokens(dist ratio.Rat) ratio.Rat {
	return dist.Div(l.Mu)
}

// String formats the line as "t(x) = offset + mu*(x-1)".
func (l Line) String() string {
	return fmt.Sprintf("t(x) = %v + %v*(x-1)", l.Offset, l.Mu)
}

// Event is one observed token transfer: the cumulative token index range
// [From, To] transferred atomically at time At. A firing that transfers q
// tokens produces one Event with To = From + q − 1.
type Event struct {
	From, To int64
	At       ratio.Rat
}

// Violation describes a bound violation found by CheckUpper or CheckLower.
type Violation struct {
	Token int64     // cumulative token index that violates the bound
	At    ratio.Rat // observed transfer time
	Bound ratio.Rat // bound value α(token)
	Upper bool      // true if an upper bound was exceeded
}

func (v Violation) Error() string {
	rel := "before lower bound"
	if v.Upper {
		rel = "after upper bound"
	}
	return fmt.Sprintf("bounds: token %d transferred at %v, %s %v", v.Token, v.At, rel, v.Bound)
}

// CheckUpper verifies that every observed production event respects the
// upper bound: the transfer time of every token x in the event is at most
// α(x). Because α is increasing in x, the binding token of an atomic
// transfer [From, To] is From — exactly the paper's observation that "the
// upper bound on token productions needs to bound the production time of
// token x" where x is the first token of the firing (Figure 4).
func CheckUpper(l Line, events []Event) *Violation {
	for _, e := range events {
		if e.From < 1 || e.To < e.From {
			panic(fmt.Sprintf("bounds: malformed event [%d,%d]", e.From, e.To))
		}
		if b := l.At(e.From); e.At.Cmp(b) > 0 {
			return &Violation{Token: e.From, At: e.At, Bound: b, Upper: true}
		}
	}
	return nil
}

// CheckLower verifies that every observed consumption event respects the
// lower bound: the transfer time of every token x in the event is at least
// α(x). The binding token of an atomic transfer [From, To] is To — the
// paper's "the lower bound on token consumptions needs to bound the
// consumption time of token x + m̂ − 1".
func CheckLower(l Line, events []Event) *Violation {
	for _, e := range events {
		if e.From < 1 || e.To < e.From {
			panic(fmt.Sprintf("bounds: malformed event [%d,%d]", e.From, e.To))
		}
		if b := l.At(e.To); e.At.Cmp(b) < 0 {
			return &Violation{Token: e.To, At: e.At, Bound: b, Upper: false}
		}
	}
	return nil
}

// PairDistances holds the bound distances of Equations (1)–(3) for one
// producer–consumer pair communicating over a buffer, with μ the common rate
// of all four bounds (time per container).
type PairDistances struct {
	// Mu is the rate of the bounds: φ(consumer)/γ̂(data edge) time per
	// token (§4.3); for the sink-constrained pair of §4.2 this is
	// τ/γ̂(e_ab).
	Mu ratio.Rat
	// ProducerGap is Equation (1): α̂p(e_ab) − α̌c(e_ba) =
	// ρ(v_a) + μ·(γ̂(e_ba) − 1), the distance across the producer between
	// its space-consumption bound and its data-production bound.
	ProducerGap ratio.Rat
	// ConsumerGap is Equation (2): α̂p(e_ba) − α̌c(e_ab) =
	// ρ(v_b) + μ·(γ̂(e_ab) − 1), the distance across the consumer between
	// its data-consumption bound and its space-production bound.
	ConsumerGap ratio.Rat
	// SpaceGap is Equation (3): the sum of the two, the minimum distance
	// between the space edge's production and consumption bounds that
	// lets a conservatively bounded schedule exist for every quanta
	// sequence.
	SpaceGap ratio.Rat
}

// Distances evaluates Equations (1)–(3).
//
// mu is the bound rate (time per container); rhoProd and rhoCons are the
// response times ρ of the producing and consuming actors; prodMax is
// γ̂(e_ba) = π̂(e_ab), the producer's maximum transfer quantum on the buffer;
// consMax is γ̂(e_ab), the consumer's maximum transfer quantum.
func Distances(mu, rhoProd, rhoCons ratio.Rat, prodMax, consMax int64) (PairDistances, error) {
	if mu.Sign() <= 0 {
		return PairDistances{}, fmt.Errorf("bounds: rate μ must be positive, got %v", mu)
	}
	if rhoProd.Sign() <= 0 || rhoCons.Sign() <= 0 {
		return PairDistances{}, fmt.Errorf("bounds: response times must be positive, got %v and %v", rhoProd, rhoCons)
	}
	if prodMax < 1 || consMax < 1 {
		return PairDistances{}, fmt.Errorf("bounds: maximum quanta must be at least 1, got %d and %d", prodMax, consMax)
	}
	pg, err := gap(mu, rhoProd, prodMax)
	if err != nil {
		return PairDistances{}, err
	}
	cg, err := gap(mu, rhoCons, consMax)
	if err != nil {
		return PairDistances{}, err
	}
	sg, err := pg.AddChecked(cg)
	if err != nil {
		return PairDistances{}, err
	}
	return PairDistances{
		Mu:          mu,
		ProducerGap: pg,
		ConsumerGap: cg,
		SpaceGap:    sg,
	}, nil
}

// gap evaluates ρ + μ·(q̂ − 1), the shape of Equations (1) and (2).
func gap(mu, rho ratio.Rat, maxQuantum int64) (ratio.Rat, error) {
	lead, err := mu.MulChecked(ratio.FromInt(maxQuantum - 1))
	if err != nil {
		return ratio.Rat{}, err
	}
	return rho.AddChecked(lead)
}

// SufficientTokens evaluates Equation (4): the number of tokens consumed
// from the space edge before the first token is produced on it, according to
// the linear bounds, is SpaceGap/μ + 1; the largest integer not exceeding
// that value is a sufficient number of initial tokens. It fails when
// SpaceGap/μ + 1 is not representable in int64.
func (d PairDistances) SufficientTokens() (int64, error) {
	q, err := d.SpaceGap.DivChecked(d.Mu)
	if err != nil {
		return 0, err
	}
	if q, err = q.AddChecked(ratio.One); err != nil {
		return 0, err
	}
	return q.Floor(), nil
}

// Lines materialises a concrete pair of space-edge bound lines separated by
// SpaceGap, anchoring the consumption bound's first token at time origin.
// Useful for rendering Figure-3/4 style diagrams and for trace checking.
func (d PairDistances) Lines(origin ratio.Rat) (consume, produce Line) {
	consume = Line{Offset: origin, Mu: d.Mu}
	produce = consume.Shift(d.SpaceGap)
	return consume, produce
}
