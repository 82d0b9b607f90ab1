// Package ratio implements exact rational arithmetic on int64 numerators and
// denominators.
//
// The buffer-capacity analysis of Wiggers et al. (DATE 2008) manipulates
// token-transfer rates such as τ/γ̂(e) and response-time quotients whose exact
// floor and ceiling decide the published capacities (Equation 4 of the
// paper). Floating point mis-floors these quantities near integer
// boundaries, so every rate, period and bound offset in this library is a
// Rat.
//
// A Rat is always kept in canonical form: the denominator is strictly
// positive and gcd(|num|, den) == 1. The zero value is the rational number
// 0/1 and is ready to use. The arithmetic methods build their results in
// canonical form directly from canonical operands; New, which runs a full
// reduction, is for components not already known to be reduced.
//
// All operations are overflow-checked. Overflow in this domain indicates a
// malformed model (the magnitudes involved are sample rates and frame sizes,
// far below 2^63), so the arithmetic methods panic with an *OverflowError.
// Boundary code that consumes untrusted input can use the Checked variants,
// which return an error instead.
package ratio

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// Rat is an exact rational number num/den with den > 0 and
// gcd(|num|, den) == 1.
type Rat struct {
	num int64
	den int64
}

// Common constants.
var (
	// Zero is the rational number 0.
	Zero = Rat{0, 1}
	// One is the rational number 1.
	One = Rat{1, 1}
)

// OverflowError reports that an exact rational operation would exceed the
// range of int64 even after normalisation.
type OverflowError struct {
	Op string // the operation that overflowed, e.g. "mul"
}

func (e *OverflowError) Error() string {
	return "ratio: int64 overflow in " + e.Op
}

// New returns the canonical rational num/den. It returns an error if den is
// zero or the canonical form is not representable — which can only happen
// around math.MinInt64, whose magnitude 2⁶³ has no int64 negation (e.g.
// 3/MinInt64 would need the denominator 2⁶³).
func New(num, den int64) (Rat, error) {
	if den == 0 {
		return Rat{}, fmt.Errorf("ratio: zero denominator")
	}
	if num == 0 {
		return Rat{0, 1}, nil
	}
	// Reduce with an unsigned gcd: |MinInt64| overflows int64, so the
	// magnitudes must be taken in uint64 before any division.
	g := gcdU64(absU64(num), absU64(den))
	if g == 1<<63 {
		// Both magnitudes are 2⁶³: num == den == MinInt64, the value 1.
		return One, nil
	}
	num /= int64(g)
	den /= int64(g)
	if den < 0 {
		// A reduced MinInt64 component cannot be negated; the canonical
		// form (positive denominator) is out of int64 range.
		if num == math.MinInt64 || den == math.MinInt64 {
			return Rat{}, &OverflowError{Op: "new"}
		}
		num, den = -num, -den
	}
	return Rat{num, den}, nil
}

// MustNew is like New but panics on error. Use for literals known to be
// valid at compile time.
func MustNew(num, den int64) Rat {
	r, err := New(num, den)
	if err != nil {
		panic(err)
	}
	return r
}

// FromInt returns the rational number n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Num returns the canonical numerator.
func (r Rat) Num() int64 { return r.normalised().num }

// Den returns the canonical (positive) denominator.
func (r Rat) Den() int64 { return r.normalised().den }

// normalised maps the zero value Rat{} onto 0/1 so that the zero value is
// usable; any Rat produced by the constructors is already canonical.
func (r Rat) normalised() Rat {
	if r.den == 0 {
		return Rat{0, 1}
	}
	return r
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.normalised().num == 0 }

// Sign returns -1, 0 or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch n := r.normalised().num; {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.normalised().den == 1 }

// Add returns r + s, panicking on overflow.
func (r Rat) Add(s Rat) Rat {
	v, err := r.AddChecked(s)
	if err != nil {
		panic(err)
	}
	return v
}

// AddChecked returns r + s, or an error on overflow.
func (r Rat) AddChecked(s Rat) (Rat, error) {
	r, s = r.normalised(), s.normalised()
	// a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)) with g = gcd(b, d).
	g := int64(gcdU64(uint64(r.den), uint64(s.den)))
	bg, dg := r.den, s.den
	if g != 1 {
		bg, dg = bg/g, dg/g
	}
	n1, ok := mul64(r.num, dg)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	n2, ok := mul64(s.num, bg)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	n, ok := add64(n1, n2)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	d, ok := mul64(r.den, dg)
	if !ok {
		return Rat{}, &OverflowError{Op: "add"}
	}
	if n == 0 {
		return Zero, nil
	}
	// The numerator is coprime to both b/g and d/g, so only a common
	// factor of g can remain (Knuth, TAOCP 4.5.1); with g == 1 the sum
	// is already reduced.
	if g != 1 {
		if g2 := int64(gcdU64(absU64(n), uint64(g))); g2 != 1 {
			n /= g2
			d /= g2
		}
	}
	return Rat{n, d}, nil
}

// Sub returns r - s, panicking on overflow.
func (r Rat) Sub(s Rat) Rat {
	v, err := r.SubChecked(s)
	if err != nil {
		panic(err)
	}
	return v
}

// SubChecked returns r - s, or an error on overflow.
func (r Rat) SubChecked(s Rat) (Rat, error) {
	neg, err := s.NegChecked()
	if err != nil {
		return Rat{}, err
	}
	return r.AddChecked(neg)
}

// Neg returns -r, panicking on overflow (only possible for num==MinInt64).
func (r Rat) Neg() Rat {
	v, err := r.NegChecked()
	if err != nil {
		panic(err)
	}
	return v
}

// NegChecked returns -r, or an error if -r is not representable.
func (r Rat) NegChecked() (Rat, error) {
	r = r.normalised()
	if r.num == math.MinInt64 {
		return Rat{}, &OverflowError{Op: "neg"}
	}
	return Rat{-r.num, r.den}, nil
}

// Mul returns r * s, panicking on overflow.
func (r Rat) Mul(s Rat) Rat {
	v, err := r.MulChecked(s)
	if err != nil {
		panic(err)
	}
	return v
}

// MulChecked returns r * s, or an error on overflow.
func (r Rat) MulChecked(s Rat) (Rat, error) {
	r, s = r.normalised(), s.normalised()
	if r.num == 0 || s.num == 0 {
		return Zero, nil
	}
	// Cross-reduce before multiplying to keep intermediates small. With
	// both operands canonical the cross-reduced product is canonical
	// too: each numerator factor is coprime to both denominator factors,
	// and the denominator stays positive. The gcds are unsigned so that
	// a MinInt64 numerator reduces by a positive divisor.
	a, b, c, d := r.num, r.den, s.num, s.den
	if g1 := int64(gcdU64(absU64(a), uint64(d))); g1 != 1 {
		a, d = a/g1, d/g1
	}
	if g2 := int64(gcdU64(absU64(c), uint64(b))); g2 != 1 {
		c, b = c/g2, b/g2
	}
	n, ok := mul64(a, c)
	if !ok {
		return Rat{}, &OverflowError{Op: "mul"}
	}
	d, ok = mul64(b, d)
	if !ok {
		return Rat{}, &OverflowError{Op: "mul"}
	}
	return Rat{n, d}, nil
}

// Div returns r / s, panicking on overflow or division by zero.
func (r Rat) Div(s Rat) Rat {
	v, err := r.DivChecked(s)
	if err != nil {
		panic(err)
	}
	return v
}

// DivChecked returns r / s, or an error on overflow or if s is zero.
func (r Rat) DivChecked(s Rat) (Rat, error) {
	s = s.normalised()
	if s.num == 0 {
		return Rat{}, fmt.Errorf("ratio: division by zero")
	}
	// The reciprocal of a canonical s is canonical once the sign moves to
	// the numerator; only a MinInt64 numerator has no positive
	// denominator form.
	inv := Rat{s.den, s.num}
	if inv.den < 0 {
		if inv.den == math.MinInt64 {
			return Rat{}, &OverflowError{Op: "new"}
		}
		inv = Rat{-inv.num, -inv.den}
	}
	return r.MulChecked(inv)
}

// MulInt returns r * n, panicking on overflow.
func (r Rat) MulInt(n int64) Rat { return r.Mul(FromInt(n)) }

// DivInt returns r / n, panicking on overflow or if n is zero.
func (r Rat) DivInt(n int64) Rat { return r.Div(FromInt(n)) }

// Cmp compares r and s and returns -1, 0 or +1. Unlike the arithmetic
// methods it never overflows: the cross products are evaluated in 128 bits.
func (r Rat) Cmp(s Rat) int {
	r, s = r.normalised(), s.normalised()
	rs, ss := r.Sign(), s.Sign()
	switch {
	case rs < ss:
		return -1
	case rs > ss:
		return 1
	case rs == 0:
		return 0
	}
	// Same non-zero sign: compare |r.num|·s.den with |s.num|·r.den
	// exactly, then flip for negatives.
	hi1, lo1 := bits.Mul64(absU64(r.num), uint64(s.den))
	hi2, lo2 := bits.Mul64(absU64(s.num), uint64(r.den))
	c := 0
	if hi1 != hi2 {
		if hi1 < hi2 {
			c = -1
		} else {
			c = 1
		}
	} else if lo1 != lo2 {
		if lo1 < lo2 {
			c = -1
		} else {
			c = 1
		}
	}
	if rs < 0 {
		c = -c
	}
	return c
}

// absU64 returns |n| as a uint64; well-defined for MinInt64.
func absU64(n int64) uint64 {
	if n < 0 {
		return uint64(-(n + 1)) + 1
	}
	return uint64(n)
}

// Less reports whether r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports whether r <= s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool { return r.Cmp(s) == 0 }

// Floor returns the largest integer <= r.
func (r Rat) Floor() int64 {
	r = r.normalised()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num < 0 {
		q--
	}
	return q
}

// Ceil returns the smallest integer >= r.
func (r Rat) Ceil() int64 {
	r = r.normalised()
	q := r.num / r.den
	if r.num%r.den != 0 && r.num > 0 {
		q++
	}
	return q
}

// Float64 returns the nearest float64 approximation of r. It is intended for
// reporting only; the analysis never rounds through floats.
func (r Rat) Float64() float64 {
	r = r.normalised()
	return float64(r.num) / float64(r.den)
}

// String formats r as "n" when integral and "n/d" otherwise.
func (r Rat) String() string {
	var buf [41]byte // "-9223372036854775808/9223372036854775807"
	b, _ := r.AppendText(buf[:0])
	return string(b)
}

// AppendText implements encoding.TextAppender: it appends the String
// format of r to b. It never fails.
func (r Rat) AppendText(b []byte) ([]byte, error) {
	r = r.normalised()
	b = strconv.AppendInt(b, r.num, 10)
	if r.den != 1 {
		b = append(b, '/')
		b = strconv.AppendInt(b, r.den, 10)
	}
	return b, nil
}

// Parse parses "n", "n/d" or a decimal like "1.25" into a Rat.
func Parse(s string) (Rat, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Rat{}, fmt.Errorf("ratio: empty input")
	}
	if i := strings.IndexByte(s, '/'); i >= 0 {
		n, err := strconv.ParseInt(strings.TrimSpace(s[:i]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("ratio: bad numerator %q: %w", s[:i], err)
		}
		d, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("ratio: bad denominator %q: %w", s[i+1:], err)
		}
		return New(n, d)
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		intPart, fracPart := s[:i], s[i+1:]
		if fracPart == "" {
			return Rat{}, fmt.Errorf("ratio: bad decimal %q", s)
		}
		neg := strings.HasPrefix(intPart, "-")
		whole := int64(0)
		if intPart != "" && intPart != "-" && intPart != "+" {
			w, err := strconv.ParseInt(intPart, 10, 64)
			if err != nil {
				return Rat{}, fmt.Errorf("ratio: bad decimal %q: %w", s, err)
			}
			whole = w
		}
		frac, err := strconv.ParseInt(fracPart, 10, 64)
		if err != nil || frac < 0 {
			return Rat{}, fmt.Errorf("ratio: bad decimal %q", s)
		}
		den := int64(1)
		for range fracPart {
			var ok bool
			den, ok = mul64(den, 10)
			if !ok {
				return Rat{}, &OverflowError{Op: "parse"}
			}
		}
		f, err := New(frac, den)
		if err != nil {
			return Rat{}, err
		}
		// The fraction extends the integer part away from zero. Adding it
		// to the signed part, rather than negating a magnitude, keeps
		// "-9223372036854775808.0" in range.
		if neg {
			return FromInt(whole).SubChecked(f)
		}
		return FromInt(whole).AddChecked(f)
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Rat{}, fmt.Errorf("ratio: bad integer %q: %w", s, err)
	}
	return FromInt(n), nil
}

// MarshalText implements encoding.TextMarshaler using the String format.
func (r Rat) MarshalText() ([]byte, error) { return r.AppendText(nil) }

// UnmarshalText implements encoding.TextUnmarshaler accepting the Parse
// formats.
func (r *Rat) UnmarshalText(b []byte) error {
	v, err := Parse(string(b))
	if err != nil {
		return err
	}
	*r = v
	return nil
}

// GCD returns the greatest common divisor of a and b, both of which must be
// non-negative. GCD(0, 0) == 0.
func GCD(a, b int64) int64 {
	if a < 0 || b < 0 {
		panic("ratio: GCD of negative value")
	}
	return int64(gcdU64(uint64(a), uint64(b)))
}

// LCM returns the least common multiple of a and b (both positive),
// panicking on overflow.
func LCM(a, b int64) int64 {
	if a <= 0 || b <= 0 {
		panic("ratio: LCM of non-positive value")
	}
	v, ok := mul64(a/GCD(a, b), b)
	if !ok {
		panic(&OverflowError{Op: "lcm"})
	}
	return v
}

// gcdU64 is the unsigned Euclid, well-defined for magnitudes of 2⁶³.
func gcdU64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// mul64 returns a·b and whether it fits an int64. The product of the
// magnitudes is taken in 128 bits, so the check needs no division.
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(absU64(a), absU64(b))
	if hi != 0 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		// A negative product may reach magnitude 2⁶³ (MinInt64).
		if lo > 1<<63 {
			return 0, false
		}
		return int64(-lo), true
	}
	if lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}
