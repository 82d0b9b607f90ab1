package taskgraph

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
)

// QuantaSet is a finite, non-empty set of non-negative integers describing
// the possible transfer quanta of a task on a buffer — the codomain Pf(N) of
// the paper's ξ and λ functions. Pf(N) excludes the empty set and the set
// consisting only of zero: a task that never transfers anything on a buffer
// would disconnect the graph.
//
// The zero value is invalid; construct QuantaSets with NewQuantaSet or
// Constant.
type QuantaSet struct {
	values []int64 // sorted ascending, deduplicated
}

// smallQuanta backs every singleton set {v} with 0 < v < len(smallQuanta).
// Sets are immutable, so they can share this read-only array, and such a
// singleton costs no allocation.
var smallQuanta = func() (a [4096]int64) {
	for i := range a {
		a[i] = int64(i)
	}
	return a
}()

// NewQuantaSet returns the quanta set holding the given values.
func NewQuantaSet(values ...int64) (QuantaSet, error) {
	switch len(values) {
	case 0:
		return QuantaSet{}, fmt.Errorf("taskgraph: empty quanta set")
	case 1:
		return singleton(values[0])
	}
	sorted := make([]int64, len(values))
	copy(sorted, values)
	slices.Sort(sorted)
	out := sorted[:1]
	for _, v := range sorted[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	for _, v := range out {
		if v < 0 {
			return QuantaSet{}, fmt.Errorf("taskgraph: negative quantum %d", v)
		}
	}
	if len(out) == 1 && out[0] == 0 {
		return QuantaSet{}, fmt.Errorf("taskgraph: quanta set {0} is not allowed")
	}
	return QuantaSet{values: out}, nil
}

// singleton returns {v} without copying: from smallQuanta when v is small,
// else in a one-element array.
func singleton(v int64) (QuantaSet, error) {
	switch {
	case v < 0:
		return QuantaSet{}, fmt.Errorf("taskgraph: negative quantum %d", v)
	case v == 0:
		return QuantaSet{}, fmt.Errorf("taskgraph: quanta set {0} is not allowed")
	case v < int64(len(smallQuanta)):
		return QuantaSet{values: smallQuanta[v : v+1 : v+1]}, nil
	}
	return QuantaSet{values: []int64{v}}, nil
}

// MustQuanta is like NewQuantaSet but panics on error; for literals.
func MustQuanta(values ...int64) QuantaSet {
	q, err := NewQuantaSet(values...)
	if err != nil {
		panic(err)
	}
	return q
}

// Constant returns the singleton quanta set {v}.
func Constant(v int64) (QuantaSet, error) { return NewQuantaSet(v) }

// Range returns the quanta set {lo, lo+1, …, hi}.
func Range(lo, hi int64) (QuantaSet, error) {
	if lo > hi {
		return QuantaSet{}, fmt.Errorf("taskgraph: empty range [%d, %d]", lo, hi)
	}
	// Width in uint64: hi-lo overflows int64 for ranges wider than 2^63
	// (e.g. MinInt64..MaxInt64), which would slip past the guard and make
	// the loop below run effectively forever.
	if uint64(hi)-uint64(lo) > 1<<20 {
		return QuantaSet{}, fmt.Errorf("taskgraph: range [%d, %d] too large to enumerate", lo, hi)
	}
	vs := make([]int64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		vs = append(vs, v)
	}
	return NewQuantaSet(vs...)
}

// IsValid reports whether q was constructed by one of the constructors.
func (q QuantaSet) IsValid() bool { return len(q.values) > 0 }

// Min returns the minimum quantum (π̌ or γ̌ in the paper).
func (q QuantaSet) Min() int64 {
	q.mustValid()
	return q.values[0]
}

// Max returns the maximum quantum (π̂ or γ̂ in the paper).
func (q QuantaSet) Max() int64 {
	q.mustValid()
	return q.values[len(q.values)-1]
}

// IsConstant reports whether the set is a singleton, i.e. the transfer
// quantum is data-independent.
func (q QuantaSet) IsConstant() bool { return len(q.values) == 1 }

// ContainsZero reports whether 0 is a possible quantum (a firing that skips
// the edge entirely, allowed by the paper in §4.2).
func (q QuantaSet) ContainsZero() bool { return q.IsValid() && q.values[0] == 0 }

// Contains reports whether v is a member of the set.
func (q QuantaSet) Contains(v int64) bool {
	i := sort.Search(len(q.values), func(i int) bool { return q.values[i] >= v })
	return i < len(q.values) && q.values[i] == v
}

// Values returns a copy of the members in ascending order.
func (q QuantaSet) Values() []int64 {
	return q.AppendValues(make([]int64, 0, len(q.values)))
}

// AppendValues appends the members in ascending order to dst and returns
// the extended slice.
func (q QuantaSet) AppendValues(dst []int64) []int64 {
	return append(dst, q.values...)
}

// Len returns the number of members.
func (q QuantaSet) Len() int { return len(q.values) }

// Equal reports whether q and r hold the same members.
func (q QuantaSet) Equal(r QuantaSet) bool {
	if len(q.values) != len(r.values) {
		return false
	}
	for i, v := range q.values {
		if r.values[i] != v {
			return false
		}
	}
	return true
}

// String formats the set as "{a,b,c}" or "a" for singletons, matching the
// notation used in the paper's figures.
func (q QuantaSet) String() string {
	var buf [64]byte
	b, _ := q.AppendText(buf[:0])
	return string(b)
}

// AppendText implements encoding.TextAppender: it appends the String
// format of q to b ("{}" for the invalid zero value). It never fails.
func (q QuantaSet) AppendText(b []byte) ([]byte, error) {
	if q.IsConstant() {
		return strconv.AppendInt(b, q.values[0], 10), nil
	}
	b = append(b, '{')
	for i, v := range q.values {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, '}'), nil
}

func (q QuantaSet) mustValid() {
	if !q.IsValid() {
		panic("taskgraph: use of invalid (zero-value) QuantaSet")
	}
}
