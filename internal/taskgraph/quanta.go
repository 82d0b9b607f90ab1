package taskgraph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
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

// NewQuantaSet returns the quanta set holding the given values.
func NewQuantaSet(values ...int64) (QuantaSet, error) {
	if len(values) == 0 {
		return QuantaSet{}, fmt.Errorf("taskgraph: empty quanta set")
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
	out := make([]int64, len(q.values))
	copy(out, q.values)
	return out
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
	if !q.IsValid() {
		return "{}"
	}
	if q.IsConstant() {
		return fmt.Sprintf("%d", q.values[0])
	}
	parts := make([]string, len(q.values))
	for i, v := range q.values {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (q QuantaSet) mustValid() {
	if !q.IsValid() {
		panic("taskgraph: use of invalid (zero-value) QuantaSet")
	}
}
