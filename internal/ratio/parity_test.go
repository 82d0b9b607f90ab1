package ratio

import (
	"errors"
	"math"
	"math/big"
	"testing"
)

// The reference arithmetic below is the earlier implementation, kept
// verbatim in substance: every result is routed through New, and overflow
// is detected by dividing the wrapped product back. FuzzArithParity holds
// the canonical-by-construction fast paths to it, value for value and
// error for error.

func refAbs64(n int64) int64 {
	if n < 0 {
		return -n // wraps for MinInt64, as the earlier code did
	}
	return n
}

func refGcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func refMul64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, false
	}
	return p, true
}

func refAdd(r, s Rat) (Rat, error) {
	r, s = r.normalised(), s.normalised()
	g := refGcd64(r.den, s.den)
	db := s.den / g
	n1, ok := refMul64(r.num, db)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	n2, ok := refMul64(s.num, r.den/g)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	n, ok := add64(n1, n2)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	d, ok := refMul64(r.den, db)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	return New(n, d)
}

func refSub(r, s Rat) (Rat, error) {
	neg, err := s.NegChecked()
	if err != nil {
		return Rat{}, err
	}
	return refAdd(r, neg)
}

func refMul(r, s Rat) (Rat, error) {
	r, s = r.normalised(), s.normalised()
	g1 := refGcd64(refAbs64(r.num), s.den)
	g2 := refGcd64(refAbs64(s.num), r.den)
	n, ok := refMul64(r.num/g1, s.num/g2)
	if !ok {
		return Rat{}, &OverflowError{Op: "mul"}
	}
	d, ok := refMul64(r.den/g2, s.den/g1)
	if !ok {
		return Rat{}, &OverflowError{Op: "mul"}
	}
	return New(n, d)
}

func refDiv(r, s Rat) (Rat, error) {
	s = s.normalised()
	if s.num == 0 {
		return Rat{}, errors.New("ratio: division by zero")
	}
	inv, err := New(s.den, s.num)
	if err != nil {
		return Rat{}, err
	}
	return refMul(r, inv)
}

// recovered runs a panicking operation and returns its panic as an error.
func recovered(op func() Rat) (v Rat, err error) {
	defer func() {
		if p := recover(); p != nil {
			e, ok := p.(error)
			if !ok {
				panic(p)
			}
			err = e
		}
	}()
	return op(), nil
}

// sameOutcome reports whether two results agree: the identical canonical
// value, or errors of the same kind — an *OverflowError with the same Op,
// or the same non-overflow error such as division by zero.
func sameOutcome(got Rat, gotErr error, want Rat, wantErr error) bool {
	if gotErr == nil || wantErr == nil {
		return gotErr == nil && wantErr == nil && got == want
	}
	var g, w *OverflowError
	if errors.As(gotErr, &g) != errors.As(wantErr, &w) {
		return false
	}
	if g != nil {
		return g.Op == w.Op
	}
	return gotErr.Error() == wantErr.Error()
}

// checkCanonical fails unless v has a positive denominator coprime to its
// numerator — the invariant every arithmetic result must satisfy.
func checkCanonical(t *testing.T, op string, v Rat) {
	t.Helper()
	if v.den <= 0 || gcdU64(absU64(v.num), uint64(v.den)) != 1 {
		t.Fatalf("%s returned non-canonical {%d, %d}", op, v.num, v.den)
	}
}

// FuzzArithParity checks Add, Sub, Mul, Div (checked and panicking) and
// MulInt and DivInt against the reference arithmetic on full-range int64
// operands.
func FuzzArithParity(f *testing.F) {
	min, max := int64(math.MinInt64), int64(math.MaxInt64)
	for _, seed := range [][5]int64{
		{min, 1, 1, 6, 6}, // MinInt64 · 1/6: the signed gcd was −2 here
		{min, 1, min, 1, -1}, {max, 1, max, 1, max}, {min, 3, max, 2, min},
		{1, 6, min, 1, 2}, {-5, 6, 7, 10, -3}, {max, max - 1, min + 1, max, 0},
		{3, 4, 0, 1, 7}, {min, 7, 1, min + 1, 1 << 62},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3], seed[4])
	}
	f.Fuzz(func(t *testing.T, num, den, num2, den2, n int64) {
		r, err := New(num, den)
		if err != nil {
			return
		}
		s, err := New(num2, den2)
		if err != nil {
			return
		}
		checkArithParity(t, r, s, n)
	})
}

// spuriousNewOverflow reports the one way the reference may lose to the
// fast paths: for a MinInt64 numerator its signed gcd could come out as
// −1, MinInt64/−1 wrapped to MinInt64, and New then rejected the
// mis-signed pair with "overflow in new" although the exact product is
// representable. The fast paths return that exact product instead.
func spuriousNewOverflow(got Rat, gotErr, wantErr error, exact *big.Rat) bool {
	var w *OverflowError
	return gotErr == nil && errors.As(wantErr, &w) && w.Op == "new" && toBig(got).Cmp(exact) == 0
}

// checkArithParity compares every arithmetic form on r and s (and the
// integer forms on n) with the reference.
func checkArithParity(t *testing.T, r, s Rat, n int64) {
	t.Helper()
	check := func(op string, arg Rat, got Rat, gotErr error, want Rat, wantErr error, exact func(x, y *big.Rat) *big.Rat) {
		t.Helper()
		if !sameOutcome(got, gotErr, want, wantErr) &&
			!spuriousNewOverflow(got, gotErr, wantErr, exact(toBig(r), toBig(arg))) {
			t.Fatalf("%s(%v, %v) = (%v, %v), reference (%v, %v)", op, r, arg, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			checkCanonical(t, op, got)
		}
	}
	type binop struct {
		name      string
		checked   func(Rat) (Rat, error)
		panicking func(Rat) Rat
		ref       func(Rat, Rat) (Rat, error)
		intForm   func(int64) Rat
		exact     func(z, x, y *big.Rat) *big.Rat
	}
	for _, op := range []binop{
		{name: "add", checked: r.AddChecked, panicking: r.Add, ref: refAdd, exact: (*big.Rat).Add},
		{name: "sub", checked: r.SubChecked, panicking: r.Sub, ref: refSub, exact: (*big.Rat).Sub},
		{name: "mul", checked: r.MulChecked, panicking: r.Mul, ref: refMul, intForm: r.MulInt, exact: (*big.Rat).Mul},
		{name: "div", checked: r.DivChecked, panicking: r.Div, ref: refDiv, intForm: r.DivInt, exact: (*big.Rat).Quo},
	} {
		exact := func(x, y *big.Rat) *big.Rat { return op.exact(new(big.Rat), x, y) }
		want, wantErr := op.ref(r, s)
		got, gotErr := op.checked(s)
		check(op.name+"Checked", s, got, gotErr, want, wantErr, exact)
		got, gotErr = recovered(func() Rat { return op.panicking(s) })
		check(op.name, s, got, gotErr, want, wantErr, exact)
		if op.intForm != nil {
			want, wantErr = op.ref(r, FromInt(n))
			got, gotErr = recovered(func() Rat { return op.intForm(n) })
			check(op.name+"Int", FromInt(n), got, gotErr, want, wantErr, exact)
		}
	}
}

// TestArithParityBoundaries runs the parity check over every combination
// of operands built from magnitudes near the int64 limits, near √2⁶³ and
// with shared small factors, where overflow and reduction paths meet.
func TestArithParityBoundaries(t *testing.T) {
	min, max := int64(math.MinInt64), int64(math.MaxInt64)
	vals := []int64{0, 1, -1, 2, 3, -6, 1 << 31, 3037000499, -(1 << 62), min / 6, max - 1, max, min + 1, min}
	var rats []Rat
	for _, n := range vals {
		for _, d := range vals {
			if v, err := New(n, d); err == nil {
				rats = append(rats, v)
			}
		}
	}
	for i, r := range rats {
		for j, s := range rats {
			checkArithParity(t, r, s, vals[(i+j)%len(vals)])
		}
	}
}
