package capacity

import (
	"math"
	"math/bits"

	"vrdfcap/internal/ratio"
	"vrdfcap/internal/taskgraph"
)

// closedForm decides a period's validity and total capacity without
// building a Result. By §4.3/§4.4 every rate and start distance of a chain
// is the period τ times a constant the quanta extremes fix: μᵢ = κᵢ·τ and
// φ(w) = c_w·τ. Equation (4) then reads
//
//	δᵢ(τ) = p̂ + ĉ − 1 + ⌊Aᵢ/τ⌋,   Aᵢ = (ρ(vx) + ρ(vy))/κᵢ,
//
// the constant-rate baseline ⌈Aᵢ/(g·τ)⌉·g + p + c − 2g with g = gcd(p, c),
// and the checks ρ(w) ≤ φ(w) reduce to one threshold τ ≥ T = max_w ρ(w)/c_w.
//
// At evaluates the same quantities with checked int64 rationals, so it
// fails at a period where one of its magnitudes leaves int64; the closed
// form must not answer there. Let τ = n/d in lowest terms. Every value At
// computes is exact and canonical, so the products a Mul or Div checks are
// the canonical result's numerator and denominator, and every magnitude At
// checks is at most X·d + Y·n for non-negative integers X and Y fixed at
// compile time. Per buffer, with ρₚ = aₚ/bₚ and ρ꜀ = a꜀/b꜀ the response
// times, p̂ and ĉ the maximum quanta and M = lcm(bₚ, b꜀, κ.den):
//
//   - μ = κ·τ and φ = c·τ: num ≤ κ.num·n and c.num·n, den ≤ κ.den·d and
//     c.den·d.
//   - The gaps ρ + μ·(q̂−1) of Equations (1) and (2), q̂ = p̂ or ĉ: the
//     lead μ·(q̂−1) has num ≤ κ.num·(q̂−1)·n and a den dividing κ.den·d, so
//     the sum's denominator lcm(b, den(lead)) divides M·d and AddChecked
//     checks at most ρ·M·d + κ·M·(q̂−1)·n (ρ·M and κ·M are integers).
//   - Equation (3), the sum x + y of the two gaps: AddChecked checks x·L,
//     y·L, (x+y)·L and L, where L, the lcm of their denominators, divides
//     M·d. So at most X₃·d + Y₃·n with X₃ = (ρₚ+ρ꜀)·M and Y₃ =
//     κ·M·(p̂+ĉ−2), and L ≤ M·d; these also bound the gaps.
//   - Equation (4), gap/μ + 1 = A·d/n + p̂ + ĉ − 1 (DivChecked, then
//     AddChecked with 1): at most X₄·d + Y₄·n with X₄ = A.num and Y₄ =
//     (p̂+ĉ−1)·A.den, and den ≤ A.den·n.
//   - The baseline, which At computes on every constant buffer whatever
//     the policy, with g = gcd(p, c) ≤ p + c − 1: A·d/(g·n) has num ≤
//     A.num·d and den ≤ A.den·g·n; ⌈A·d/(g·n)⌉·g ≤ A·d/n + g; adding p − g
//     and c − g keeps it at most A.num·d + (p + c − g)·n. All within the
//     Equation (4) bound.
//
// With X < 2^x and Y < 2^y, X·d + Y·n < 2^(x+len(d)) + 2^(y+len(n)) ≤
// 2^63 whenever len(d) ≤ 62 − x and len(n) ≤ 62 − y, len being the bit
// length. Compiling takes the largest x and y over these bounds, so
// comparing the bit lengths of n and d against denBits and numBits proves
// every checked operation of At in range at that period, and the closed
// form then equals At exactly. The Equation (4) bound also keeps verdict's
// divisors (A.den·n and (A/g).den·n) and products (A.num·d) within 63
// bits. Any other period goes through At.
type closedForm struct {
	numBits, denBits int       // the largest admitted bit lengths of τ's numerator and denominator
	threshold        ratio.Rat // T: valid from this period on, unless a zero quantum rules every period out
	feasible         bool      // no zero quantum invalidates every period
	buffers          []closedBuffer
}

// closedBuffer holds one buffer's Equation (4) and baseline constants.
type closedBuffer struct {
	aNum, aDen uint64 // A = (ρ(vx) + ρ(vy))/κ
	k          int64  // p̂ + ĉ − 1
	eq4        bool   // the policy counts Equation (4)
	// g is gcd(p, c) when the policy counts the baseline (a constant
	// buffer under PolicyBaseline or PolicyHybrid), else 0.
	g          int64
	bNum, bDen uint64 // A/g
	base       int64  // p + c − 2g
}

// compileClosedForm returns a's closed form, or nil when every period must
// go through At: when At would fail at every period for a reason that does
// not depend on it (the baseline policy on variable quanta, an unknown
// policy, a non-positive response time, a maximum quantum below 1), when a
// compiled constant is outside int64, or when no period passes the bound.
func compileClosedForm(a *Analysis) *closedForm {
	switch a.policy {
	case PolicyEquation4, PolicyBaseline, PolicyHybrid:
	default:
		return nil
	}
	for _, w := range a.tasks {
		if w.WCRT.Sign() <= 0 {
			return nil
		}
	}
	cf := &closedForm{feasible: true, buffers: make([]closedBuffer, len(a.buffers))}
	var x, y int // the largest bit lengths of the X and Y bounds
	need := func(bx, by int64) {
		x, y = max(x, bits.Len64(uint64(bx))), max(y, bits.Len64(uint64(by)))
	}
	// Walk the chain from the constrained task as propagatePhi does, with
	// τ = 1: phi is c_w of the task reached, kappa κᵢ of the buffer crossed.
	nb := len(a.buffers)
	sink := a.direction == SinkConstrained
	w := a.tasks[0]
	if sink {
		w = a.tasks[nb]
	}
	phi := ratio.One
	cf.threshold = w.WCRT
	need(1, 1)
	for j := range nb {
		i, div, mul := j, a.buffers[j].prodMax, a.buffers[j].consMin
		w = a.tasks[j+1]
		if sink {
			i = nb - 1 - j
			div, mul, w = a.buffers[i].consMax, a.buffers[i].prodMin, a.tasks[i]
		}
		b, cb := &a.buffers[i], &cf.buffers[i]
		if b.prodMax < 1 || b.consMax < 1 {
			return nil
		}
		var ck checked
		kappa := ck.div(phi, ratio.FromInt(div))
		phi = kappa // At's placeholder φ after a zero quantum
		if mul == 0 {
			cf.feasible = false // and no period is valid
		} else {
			phi = ck.mul(kappa, ratio.FromInt(mul))
		}
		if t := ck.div(w.WCRT, phi); cf.threshold.Less(t) {
			cf.threshold = t
		}
		rp, rc := b.prod.WCRT, b.cons.WCRT
		m := ratio.FromInt(ck.lcm(ck.lcm(rp.Den(), rc.Den()), kappa.Den()))
		rho := ck.add(rp, rc)
		A := ck.div(rho, kappa)
		k2 := ck.add(ratio.FromInt(b.prodMax-1), ratio.FromInt(b.consMax-1)) // p̂ + ĉ − 2
		k := ck.add(k2, ratio.One)
		x3, y3 := ck.mul(rho, m), ck.mul(ck.mul(kappa, m), k2)
		y4 := ck.mul(k, ratio.FromInt(A.Den()))
		if ck.err != nil {
			return nil
		}
		need(phi.Den(), phi.Num())
		need(kappa.Den(), kappa.Num())
		need(x3.Num(), y3.Num())
		need(m.Num(), 0)
		need(A.Num(), y4.Num())
		*cb = closedBuffer{aNum: uint64(A.Num()), aDen: uint64(A.Den()), k: k.Num(), eq4: a.policy != PolicyBaseline}
		if !b.constant {
			if a.policy == PolicyBaseline {
				return nil
			}
			continue
		}
		if a.policy == PolicyEquation4 {
			continue
		}
		g := ratio.GCD(b.prodMax, b.consMax)
		B, err := A.DivChecked(ratio.FromInt(g))
		if err != nil {
			return nil
		}
		cb.g, cb.bNum, cb.bDen = g, uint64(B.Num()), uint64(B.Den())
		cb.base = b.prodMax - g + (b.consMax - g)
	}
	cf.numBits, cf.denBits = 62-y, 62-x
	if cf.numBits < 1 || cf.denBits < 1 {
		return nil
	}
	return cf
}

// checked chains overflow-checked ratio operations and keeps the first
// error.
type checked struct{ err error }

func (c *checked) keep(v ratio.Rat, err error) ratio.Rat {
	if c.err == nil {
		c.err = err
	}
	return v
}

func (c *checked) add(a, b ratio.Rat) ratio.Rat { return c.keep(a.AddChecked(b)) }
func (c *checked) mul(a, b ratio.Rat) ratio.Rat { return c.keep(a.MulChecked(b)) }
func (c *checked) div(a, b ratio.Rat) ratio.Rat { return c.keep(a.DivChecked(b)) }

// lcm returns the least common multiple of the positive a and b.
func (c *checked) lcm(a, b int64) int64 {
	return c.mul(ratio.FromInt(a), ratio.FromInt(b/ratio.GCD(a, b))).Num()
}

// verdict returns what At(tau) reports as Valid and TotalCapacity(), or
// At's error, byte for byte. Where the closed form's bound admits tau it
// makes no allocation and no gcd; elsewhere it asks At.
func (a *Analysis) verdict(tau ratio.Rat) (valid bool, total int64, err error) {
	if err := taskgraph.CheckPeriod(tau); err != nil {
		return false, 0, err
	}
	cf := a.closed
	n, d := uint64(tau.Num()), uint64(tau.Den())
	if !cf.admits(n, d) {
		res, err := a.At(tau)
		if err != nil {
			return false, 0, err
		}
		return res.Valid, res.TotalCapacity(), nil
	}
	for i := range cf.buffers {
		total += cf.buffers[i].capacity(n, d)
	}
	return cf.feasible && tau.Cmp(cf.threshold) >= 0, total, nil
}

// admits reports whether the closed form answers at the positive period
// n/d, in lowest terms.
func (cf *closedForm) admits(n, d uint64) bool {
	return cf != nil && bits.Len64(n) <= cf.numBits && bits.Len64(d) <= cf.denBits
}

// capacity is the capacity the policy selects at τ = n/d, within the
// closed form's bound.
func (b *closedBuffer) capacity(n, d uint64) int64 {
	c := int64(math.MaxInt64)
	if b.eq4 {
		hi, lo := bits.Mul64(b.aNum, d)
		q, _ := bits.Div64(hi, lo, b.aDen*n)
		c = int64(q) + b.k
	}
	if b.g != 0 {
		hi, lo := bits.Mul64(b.bNum, d)
		q, r := bits.Div64(hi, lo, b.bDen*n)
		if r != 0 {
			q++
		}
		c = min(c, int64(q)*b.g+b.base)
	}
	return c
}
