package bounds

import (
	"testing"
	"testing/quick"

	"vrdfcap/internal/ratio"
)

func r(n, d int64) ratio.Rat { return ratio.MustNew(n, d) }

func TestLineAt(t *testing.T) {
	l := Line{Offset: r(5, 1), Mu: r(1, 2)}
	cases := []struct {
		x    int64
		want ratio.Rat
	}{
		{1, r(5, 1)},
		{2, r(11, 2)},
		{3, r(6, 1)},
		{11, r(10, 1)},
	}
	for _, c := range cases {
		if got := l.At(c.x); !got.Equal(c.want) {
			t.Errorf("At(%d) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLineAtPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At(0) did not panic")
		}
	}()
	Line{Offset: ratio.Zero, Mu: ratio.One}.At(0)
}

func TestShiftAndHorizontal(t *testing.T) {
	l := Line{Offset: ratio.Zero, Mu: r(1, 4)}
	s := l.Shift(r(3, 1))
	if !s.Offset.Equal(r(3, 1)) || !s.Mu.Equal(l.Mu) {
		t.Errorf("Shift = %v", s)
	}
	// A vertical distance of 3 at rate 1/4 per token is 12 tokens.
	if got := l.HorizontalTokens(r(3, 1)); !got.Equal(r(12, 1)) {
		t.Errorf("HorizontalTokens = %v, want 12", got)
	}
}

func TestCheckUpperBindingToken(t *testing.T) {
	// Upper bound t(x) = x-1 (offset 0, mu 1). A firing producing tokens
	// [4,6] at time 3 is fine (token 4's bound is 3); at time 3.5 it
	// violates via token 4 even though token 6's bound is 5.
	l := Line{Offset: ratio.Zero, Mu: ratio.One}
	ok := []Event{{From: 1, To: 3, At: ratio.Zero}, {From: 4, To: 6, At: r(3, 1)}}
	if v := CheckUpper(l, ok); v != nil {
		t.Errorf("conforming events flagged: %v", v)
	}
	bad := []Event{{From: 4, To: 6, At: r(7, 2)}}
	v := CheckUpper(l, bad)
	if v == nil {
		t.Fatal("violation missed")
	}
	if v.Token != 4 || !v.Upper {
		t.Errorf("violation = %+v, want token 4 upper", v)
	}
	if v.Error() == "" {
		t.Error("empty violation message")
	}
}

func TestCheckLowerBindingToken(t *testing.T) {
	// Lower bound t(x) = x-1. A firing consuming [4,6] must not happen
	// before token 6's bound (time 5).
	l := Line{Offset: ratio.Zero, Mu: ratio.One}
	ok := []Event{{From: 4, To: 6, At: r(5, 1)}}
	if v := CheckLower(l, ok); v != nil {
		t.Errorf("conforming events flagged: %v", v)
	}
	bad := []Event{{From: 4, To: 6, At: r(9, 2)}}
	v := CheckLower(l, bad)
	if v == nil {
		t.Fatal("violation missed")
	}
	if v.Token != 6 || v.Upper {
		t.Errorf("violation = %+v, want token 6 lower", v)
	}
}

func TestCheckMalformedEventPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("malformed event did not panic")
		}
	}()
	CheckUpper(Line{Mu: ratio.One}, []Event{{From: 3, To: 2}})
}

func TestDistancesFigure4(t *testing.T) {
	// The Figure 2 pair with m = {3}, n = {2,3} and period τ = 3 (so
	// μ = τ/γ̂(e_ab) = 1). Equation (1): ρ(va) + μ·(3−1); Equation (2):
	// ρ(vb) + μ·(3−1).
	tau := r(3, 1)
	mu := tau.DivInt(3)
	d, err := Distances(mu, r(1, 2), r(1, 4), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := r(5, 2); !d.ProducerGap.Equal(want) {
		t.Errorf("Eq(1) = %v, want %v", d.ProducerGap, want)
	}
	if want := r(9, 4); !d.ConsumerGap.Equal(want) {
		t.Errorf("Eq(2) = %v, want %v", d.ConsumerGap, want)
	}
	if want := r(19, 4); !d.SpaceGap.Equal(want) {
		t.Errorf("Eq(3) = %v, want %v", d.SpaceGap, want)
	}
	// Eq(4): 19/4 / 1 + 1 = 5.75 -> 5 tokens suffice.
	if got, err := d.SufficientTokens(); err != nil || got != 5 {
		t.Errorf("Eq(4) tokens = %d, %v, want 5", got, err)
	}
}

func TestDistancesMP3Edges(t *testing.T) {
	// The three buffers of the Section-5 MP3 application, in
	// milliseconds. Equation (4) must reproduce the paper's d1 and d2
	// exactly, and 883 for d3 (the paper reports 882 via the
	// constant-rate refinement; see DESIGN.md).
	cases := []struct {
		name             string
		mu               ratio.Rat
		rhoProd, rhoCons ratio.Rat
		prodMax, consMax int64
		want             int64
	}{
		{"d1 BR->MP3", r(1, 40), r(256, 5), r(24, 1), 2048, 960, 6015},
		{"d2 MP3->SRC", r(1, 48), r(24, 1), r(10, 1), 1152, 480, 3263},
		{"d3 SRC->DAC", r(10, 441), r(10, 1), r(10, 441), 441, 1, 883},
	}
	for _, c := range cases {
		d, err := Distances(c.mu, c.rhoProd, c.rhoCons, c.prodMax, c.consMax)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, err := d.SufficientTokens(); err != nil || got != c.want {
			t.Errorf("%s: Eq(4) = %d, %v, want %d", c.name, got, err, c.want)
		}
	}
}

func TestDistancesRejectsBadInput(t *testing.T) {
	if _, err := Distances(ratio.Zero, ratio.One, ratio.One, 1, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Distances(ratio.One, ratio.Zero, ratio.One, 1, 1); err == nil {
		t.Error("zero producer response time accepted")
	}
	if _, err := Distances(ratio.One, ratio.One, ratio.Zero, 1, 1); err == nil {
		t.Error("zero consumer response time accepted")
	}
	if _, err := Distances(ratio.One, ratio.One, ratio.One, 0, 1); err == nil {
		t.Error("zero max production quantum accepted")
	}
	if _, err := Distances(ratio.One, ratio.One, ratio.One, 1, 0); err == nil {
		t.Error("zero max consumption quantum accepted")
	}
}

func TestLinesSeparation(t *testing.T) {
	d, err := Distances(r(1, 3), ratio.One, ratio.One, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	consume, produce := d.Lines(r(7, 1))
	if !consume.Offset.Equal(r(7, 1)) {
		t.Errorf("consume offset = %v, want 7", consume.Offset)
	}
	gap := produce.Offset.Sub(consume.Offset)
	if !gap.Equal(d.SpaceGap) {
		t.Errorf("line separation = %v, want Eq(3) = %v", gap, d.SpaceGap)
	}
	if !produce.Mu.Equal(consume.Mu) {
		t.Error("bound lines have different rates")
	}
}

func TestPropSufficientTokensMonotone(t *testing.T) {
	// Equation (4) must be monotone in both response times and both
	// maximum quanta: slower tasks or larger quanta never need a smaller
	// buffer.
	f := func(a, b, c, d uint8) bool {
		mu := r(1, 7)
		base, err := Distances(mu, r(int64(a)+1, 3), r(int64(b)+1, 3), int64(c)+1, int64(d)+1)
		if err != nil {
			return false
		}
		bumped, err := Distances(mu, r(int64(a)+2, 3), r(int64(b)+1, 3), int64(c)+2, int64(d)+1)
		if err != nil {
			return false
		}
		b1, err1 := bumped.SufficientTokens()
		b0, err0 := base.SufficientTokens()
		return err1 == nil && err0 == nil && b1 >= b0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropLineMonotoneInIndex(t *testing.T) {
	f := func(off, muN uint16, x uint8) bool {
		l := Line{Offset: r(int64(off), 13), Mu: r(int64(muN)+1, 11)}
		xi := int64(x) + 1
		return l.At(xi).Cmp(l.At(xi+1)) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
