package sim

import (
	"fmt"

	"vrdfcap/internal/ratio"
)

// TimeBase converts between exact rational time values and the integer tick
// counts the simulator runs on. All rational times handled by an engine must
// be exactly representable in its base, which NewTimeBase guarantees by
// taking the least common multiple of the denominators involved.
type TimeBase struct {
	// TicksPerUnit is the number of ticks in one time unit (the unit of
	// the rational values, e.g. seconds).
	TicksPerUnit int64
}

// NewTimeBase returns a base in which every given rational is an integer
// number of ticks.
func NewTimeBase(times ...ratio.Rat) (TimeBase, error) {
	return TimeBase{TicksPerUnit: 1}.extend(times...)
}

// extend returns the smallest base in which b's ticks and the given times
// are all integers.
func (b TimeBase) extend(times ...ratio.Rat) (TimeBase, error) {
	lcm := b.TicksPerUnit
	for _, t := range times {
		d := t.Den()
		g := ratio.GCD(lcm, d)
		prod := lcm / g
		if d != 0 && prod > (1<<62)/d {
			return TimeBase{}, fmt.Errorf("sim: time base overflow combining denominators (lcm so far %d, next %d)", lcm, d)
		}
		lcm = prod * d
	}
	return TimeBase{TicksPerUnit: lcm}, nil
}

// Ticks converts a rational time to ticks; it fails if the value is not an
// integer number of ticks in this base.
func (b TimeBase) Ticks(t ratio.Rat) (int64, error) {
	v, err := t.MulChecked(ratio.FromInt(b.TicksPerUnit))
	if err != nil {
		return 0, err
	}
	if !v.IsInt() {
		return 0, fmt.Errorf("sim: %v is not representable in a base of %d ticks per unit", t, b.TicksPerUnit)
	}
	return v.Num(), nil
}

// Rat converts ticks back to a rational time value.
func (b TimeBase) Rat(ticks int64) ratio.Rat {
	return ratio.MustNew(ticks, b.TicksPerUnit)
}
