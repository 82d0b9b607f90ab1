package ratio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewCanonicalises(t *testing.T) {
	cases := []struct {
		n, d     int64
		wantN    int64
		wantD    int64
		wantText string
	}{
		{1, 2, 1, 2, "1/2"},
		{2, 4, 1, 2, "1/2"},
		{-2, 4, -1, 2, "-1/2"},
		{2, -4, -1, 2, "-1/2"},
		{-2, -4, 1, 2, "1/2"},
		{0, 5, 0, 1, "0"},
		{0, -5, 0, 1, "0"},
		{7, 1, 7, 1, "7"},
		{44100, 441, 100, 1, "100"},
		{1152, 480, 12, 5, "12/5"},
	}
	for _, c := range cases {
		r, err := New(c.n, c.d)
		if err != nil {
			t.Fatalf("New(%d, %d): %v", c.n, c.d, err)
		}
		if r.Num() != c.wantN || r.Den() != c.wantD {
			t.Errorf("New(%d, %d) = %d/%d, want %d/%d", c.n, c.d, r.Num(), r.Den(), c.wantN, c.wantD)
		}
		if got := r.String(); got != c.wantText {
			t.Errorf("New(%d, %d).String() = %q, want %q", c.n, c.d, got, c.wantText)
		}
	}
}

func TestNewZeroDenominator(t *testing.T) {
	if _, err := New(1, 0); err == nil {
		t.Fatal("New(1, 0) succeeded, want error")
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Rat
	if !r.IsZero() {
		t.Error("zero value is not zero")
	}
	if got := r.Add(One); !got.Equal(One) {
		t.Errorf("0 + 1 = %v, want 1", got)
	}
	if got := r.String(); got != "0" {
		t.Errorf("zero value String() = %q, want \"0\"", got)
	}
	if r.Den() != 1 {
		t.Errorf("zero value Den() = %d, want 1", r.Den())
	}
}

func TestArithmetic(t *testing.T) {
	half := MustNew(1, 2)
	third := MustNew(1, 3)
	cases := []struct {
		name string
		got  Rat
		want Rat
	}{
		{"add", half.Add(third), MustNew(5, 6)},
		{"sub", half.Sub(third), MustNew(1, 6)},
		{"mul", half.Mul(third), MustNew(1, 6)},
		{"div", half.Div(third), MustNew(3, 2)},
		{"neg", half.Neg(), MustNew(-1, 2)},
		{"mulint", third.MulInt(6), FromInt(2)},
		{"divint", half.DivInt(2), MustNew(1, 4)},
		{"addneg", half.Add(MustNew(-1, 2)), Zero},
	}
	for _, c := range cases {
		if !c.got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestFloorCeil(t *testing.T) {
	cases := []struct {
		r     Rat
		floor int64
		ceil  int64
	}{
		{MustNew(7, 2), 3, 4},
		{MustNew(-7, 2), -4, -3},
		{FromInt(5), 5, 5},
		{FromInt(-5), -5, -5},
		{Zero, 0, 0},
		{MustNew(1, 3), 0, 1},
		{MustNew(-1, 3), -1, 0},
		{MustNew(6015, 1), 6015, 6015},
		// Equation-4 style value: 3008 + 2047 + 959 + 1 exactly.
		{MustNew(6015*7, 7), 6015, 6015},
	}
	for _, c := range cases {
		if got := c.r.Floor(); got != c.floor {
			t.Errorf("(%v).Floor() = %d, want %d", c.r, got, c.floor)
		}
		if got := c.r.Ceil(); got != c.ceil {
			t.Errorf("(%v).Ceil() = %d, want %d", c.r, got, c.ceil)
		}
	}
}

func TestCmpOrdering(t *testing.T) {
	asc := []Rat{
		MustNew(-3, 1), MustNew(-1, 2), Zero, MustNew(1, 1000),
		MustNew(1, 3), MustNew(1, 2), One, MustNew(44100, 441),
	}
	for i := range asc {
		for j := range asc {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := asc[i].Cmp(asc[j]); got != want {
				t.Errorf("Cmp(%v, %v) = %d, want %d", asc[i], asc[j], got, want)
			}
		}
	}
	if !MustNew(1, 3).Less(MustNew(1, 2)) {
		t.Error("1/3 < 1/2 reported false")
	}
	if !MustNew(1, 2).LessEq(MustNew(1, 2)) {
		t.Error("1/2 <= 1/2 reported false")
	}
}

func TestOverflowDetected(t *testing.T) {
	big := FromInt(math.MaxInt64)
	if _, err := big.MulChecked(FromInt(2)); err == nil {
		t.Error("MaxInt64 * 2 did not report overflow")
	}
	if _, err := big.AddChecked(big); err == nil {
		t.Error("MaxInt64 + MaxInt64 did not report overflow")
	}
	minR := FromInt(math.MinInt64)
	if _, err := minR.NegChecked(); err == nil {
		t.Error("-MinInt64 did not report overflow")
	}
	if _, err := minR.MulChecked(FromInt(-1)); err == nil {
		t.Error("MinInt64 * -1 did not report overflow")
	}
	defer func() {
		if recover() == nil {
			t.Error("Mul on overflow did not panic")
		}
	}()
	_ = big.Mul(FromInt(3))
}

func TestDivByZero(t *testing.T) {
	if _, err := One.DivChecked(Zero); err == nil {
		t.Error("1/0 did not report an error")
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Rat
	}{
		{"3", FromInt(3)},
		{"-3", FromInt(-3)},
		{"1/2", MustNew(1, 2)},
		{"-6/4", MustNew(-3, 2)},
		{" 7 / 8 ", MustNew(7, 8)},
		{"1.25", MustNew(5, 4)},
		{"-0.5", MustNew(-1, 2)},
		{"0.0227", MustNew(227, 10000)},
		{"51.2", MustNew(256, 5)},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "1/", "/2", "1/0", "1.", "1.x", "--3"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestParseBoundaryDecimals pins decimals at the int64 limits: a decimal
// parses to the same value as the equal integer or fraction, including
// at MinInt64, and only values outside int64 range are rejected.
func TestParseBoundaryDecimals(t *testing.T) {
	min, max := int64(math.MinInt64), int64(math.MaxInt64)
	cases := []struct {
		in   string
		want Rat
	}{
		{"-9223372036854775808.0", FromInt(min)},
		{"-9223372036854775808.000", FromInt(min)},
		{"-9223372036854775807.0", FromInt(min + 1)},
		{"9223372036854775807.0", FromInt(max)},
		{"-922337203685477580.8", MustNew(min, 10)},
		// (2⁶³ − 3)/5 + 3/5: the numerator reaches 2⁶³ only with a minus sign.
		{"-1844674407370955161.6", MustNew(min, 5)},
		{"-0.0", Zero},
		{"-.5", MustNew(-1, 2)},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("Parse(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{
		"9223372036854775808.0", "-9223372036854775809.0", "1844674407370955161.6",
		"-9223372036854775808.5", "9223372036854775807.5",
	} {
		if v, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = %v, want an out-of-range error", bad, v)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	for _, r := range []Rat{Zero, One, MustNew(-7, 3), MustNew(441, 44100), FromInt(6015)} {
		b, err := r.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", r, err)
		}
		var got Rat
		if err := got.UnmarshalText(b); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", b, err)
		}
		if !got.Equal(r) {
			t.Errorf("round trip %v -> %q -> %v", r, b, got)
		}
	}
}

func TestGCDLCM(t *testing.T) {
	cases := []struct{ a, b, gcd, lcm int64 }{
		{2048, 960, 64, 30720},
		{1152, 480, 96, 5760},
		{441, 1, 1, 441},
		{12, 18, 6, 36},
		{7, 7, 7, 7},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.gcd {
			t.Errorf("GCD(%d, %d) = %d, want %d", c.a, c.b, got, c.gcd)
		}
		if got := LCM(c.a, c.b); got != c.lcm {
			t.Errorf("LCM(%d, %d) = %d, want %d", c.a, c.b, got, c.lcm)
		}
	}
	if got := GCD(0, 5); got != 5 {
		t.Errorf("GCD(0, 5) = %d, want 5", got)
	}
	if got := GCD(0, 0); got != 0 {
		t.Errorf("GCD(0, 0) = %d, want 0", got)
	}
}

// small draws bounded rationals so that property tests stay clear of
// legitimate overflow.
func small(n1, d1 int64) Rat {
	n := n1 % 10000
	d := d1%10000 + 10001 // always positive
	return MustNew(n, d)
}

func TestPropAddCommutes(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		x, y := small(a, b), small(c, d)
		return x.Add(y).Equal(y.Add(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropMulDistributes(t *testing.T) {
	f := func(a, b, c, d, e, g int64) bool {
		x, y, z := small(a, b), small(c, d), small(e, g)
		lhs := x.Mul(y.Add(z))
		rhs := x.Mul(y).Add(x.Mul(z))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubInverse(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		x, y := small(a, b), small(c, d)
		return x.Add(y).Sub(y).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropFloorCeilConsistent(t *testing.T) {
	f := func(a, b int64) bool {
		x := small(a, b)
		fl, ce := x.Floor(), x.Ceil()
		if FromInt(fl).Cmp(x) > 0 || x.Cmp(FromInt(ce)) > 0 {
			return false
		}
		if x.IsInt() {
			return fl == ce
		}
		return ce == fl+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDivMulInverse(t *testing.T) {
	f := func(a, b, c, d int64) bool {
		x, y := small(a, b), small(c, d)
		if y.IsZero() {
			return true
		}
		return x.Div(y).Mul(y).Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropStringParseRoundTrip(t *testing.T) {
	f := func(a, b int64) bool {
		x := small(a, b)
		got, err := Parse(x.String())
		return err == nil && got.Equal(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Reporting(t *testing.T) {
	if got := MustNew(1, 2).Float64(); got != 0.5 {
		t.Errorf("Float64(1/2) = %v, want 0.5", got)
	}
	if got := MustNew(256, 5).Float64(); got != 51.2 {
		t.Errorf("Float64(256/5) = %v, want 51.2", got)
	}
}

func TestCmpExtremeValuesNoPanic(t *testing.T) {
	// Regression: Cmp used to route through Sub/Neg, panicking on
	// MinInt64 numerators. Comparisons are always well-defined.
	min := FromInt(math.MinInt64)
	max := FromInt(math.MaxInt64)
	if min.Cmp(max) != -1 || max.Cmp(min) != 1 {
		t.Error("extreme comparison wrong")
	}
	if min.Cmp(min) != 0 {
		t.Error("MinInt64 != itself")
	}
	if !min.Less(Zero) || !Zero.Less(max) {
		t.Error("sign comparisons wrong")
	}
	big1 := MustNew(math.MaxInt64, 3)
	big2 := MustNew(math.MaxInt64-1, 3)
	if big1.Cmp(big2) != 1 {
		t.Error("large same-denominator comparison wrong")
	}
	// Cross products that overflow int64 but not the 128-bit path.
	a := MustNew(math.MaxInt64, math.MaxInt64-2)
	b := MustNew(math.MaxInt64-1, math.MaxInt64-3)
	// a ≈ 1+2/M, b ≈ 1+2/M — exact: a−b = (M(M−3)−(M−1)(M−2))/... =
	// (−3M+3M−2+... ) compute: M(M−3) = M²−3M; (M−1)(M−2) = M²−3M+2, so
	// a < b.
	if a.Cmp(b) != -1 {
		t.Errorf("128-bit comparison wrong: %v vs %v", a, b)
	}
}
