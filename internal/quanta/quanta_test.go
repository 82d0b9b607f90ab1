package quanta

import (
	"testing"
	"testing/quick"

	"vrdfcap/internal/taskgraph"
)

func TestConstant(t *testing.T) {
	s := Constant(7)
	for _, k := range []int64{0, 1, 100, 1 << 40} {
		if got := s.At(k); got != 7 {
			t.Errorf("At(%d) = %d, want 7", k, got)
		}
	}
}

func TestConstantValue(t *testing.T) {
	if v, ok := ConstantValue(Constant(7)); !ok || v != 7 {
		t.Errorf("ConstantValue(Constant(7)) = %d, %v; want 7, true", v, ok)
	}
	if v, ok := ConstantValue(Constant(0)); !ok || v != 0 {
		t.Errorf("ConstantValue(Constant(0)) = %d, %v; want 0, true", v, ok)
	}
	for _, s := range []Sequence{Cycle(7), Sticky(7), Func(func(int64) int64 { return 7 })} {
		if _, ok := ConstantValue(s); ok {
			t.Errorf("ConstantValue(%T) reported constant; only Constant sequences qualify", s)
		}
	}
}

func TestCycle(t *testing.T) {
	s := Cycle(2, 3)
	want := []int64{2, 3, 2, 3, 2}
	for k, w := range want {
		if got := s.At(int64(k)); got != w {
			t.Errorf("At(%d) = %d, want %d", k, got, w)
		}
	}
}

func TestCyclePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cycle() did not panic")
		}
	}()
	Cycle()
}

func TestCycleCopiesInput(t *testing.T) {
	vals := []int64{1, 2}
	s := Cycle(vals...)
	vals[0] = 99
	if got := s.At(0); got != 1 {
		t.Errorf("Cycle aliased caller slice: At(0) = %d", got)
	}
}

func TestSticky(t *testing.T) {
	s := Sticky(5, 6, 7)
	cases := map[int64]int64{0: 5, 1: 6, 2: 7, 3: 7, 1000: 7}
	for k, w := range cases {
		if got := s.At(k); got != w {
			t.Errorf("At(%d) = %d, want %d", k, got, w)
		}
	}
}

func TestMinMaxOf(t *testing.T) {
	set := taskgraph.MustQuanta(2, 3, 9)
	if got := MinOf(set).At(5); got != 2 {
		t.Errorf("MinOf = %d, want 2", got)
	}
	if got := MaxOf(set).At(5); got != 9 {
		t.Errorf("MaxOf = %d, want 9", got)
	}
	// Zero-containing sets: MinOf skips the zero.
	zset := taskgraph.MustQuanta(0, 4, 8)
	if got := MinOf(zset).At(0); got != 4 {
		t.Errorf("MinOf({0,4,8}) = %d, want 4", got)
	}
	alt := AlternateMinMax(set)
	if alt.At(0) != 2 || alt.At(1) != 9 || alt.At(2) != 2 {
		t.Errorf("AlternateMinMax = %d,%d,%d", alt.At(0), alt.At(1), alt.At(2))
	}
}

func TestUniformDeterministicAndInSet(t *testing.T) {
	set := taskgraph.MustQuanta(96, 120, 960)
	a := Uniform(set, 42)
	b := Uniform(set, 42)
	c := Uniform(set, 43)
	same, diff := true, false
	for k := int64(0); k < 1000; k++ {
		va := a.At(k)
		if !set.Contains(va) {
			t.Fatalf("At(%d) = %d outside set", k, va)
		}
		if va != b.At(k) {
			same = false
		}
		if va != c.At(k) {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different sequences")
	}
	if !diff {
		t.Error("different seeds produced identical sequences (suspicious)")
	}
	// Purity: out-of-order access equals in-order access.
	if a.At(500) != b.At(500) {
		t.Error("out-of-order access changed value")
	}
}

func TestUniformCoversSet(t *testing.T) {
	set := taskgraph.MustQuanta(1, 2, 3, 4)
	s := Uniform(set, 7)
	seen := map[int64]bool{}
	for k := int64(0); k < 400; k++ {
		seen[s.At(k)] = true
	}
	for _, v := range set.Values() {
		if !seen[v] {
			t.Errorf("value %d never drawn in 400 samples", v)
		}
	}
}

func TestWalkStaysInSetAndMovesSlowly(t *testing.T) {
	set := taskgraph.MustQuanta(10, 20, 30, 40, 50)
	s := Walk(set, 99)
	vals := set.Values()
	idx := func(v int64) int {
		for i, x := range vals {
			if x == v {
				return i
			}
		}
		return -1
	}
	prev := s.At(0)
	if idx(prev) < 0 {
		t.Fatalf("At(0) = %d outside set", prev)
	}
	for k := int64(1); k < 500; k++ {
		v := s.At(k)
		if idx(v) < 0 {
			t.Fatalf("At(%d) = %d outside set", k, v)
		}
		// Within an epoch, consecutive values move at most one position.
		if k%64 != 0 {
			d := idx(v) - idx(prev)
			if d < -1 || d > 1 {
				t.Errorf("At(%d): jumped %d positions", k, d)
			}
		}
		prev = v
	}
	// Determinism.
	if Walk(set, 99).At(123) != s.At(123) {
		t.Error("Walk not deterministic")
	}
}

func TestFromSlice(t *testing.T) {
	s := FromSlice([]int64{4, 5})
	if s.At(0) != 4 || s.At(1) != 5 {
		t.Error("FromSlice values wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("reading past trace end did not panic")
		}
	}()
	s.At(2)
}

func TestChecked(t *testing.T) {
	set := taskgraph.MustQuanta(2, 3)
	ok := Checked(Cycle(2, 3), set)
	if ok.At(0) != 2 || ok.At(1) != 3 {
		t.Error("Checked altered values")
	}
	bad := Checked(Constant(5), set)
	defer func() {
		if recover() == nil {
			t.Error("out-of-set value did not panic")
		}
	}()
	bad.At(0)
}

func TestValidate(t *testing.T) {
	set := taskgraph.MustQuanta(2, 3)
	if err := Validate(Cycle(3, 2), set, 100); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
	if err := Validate(Sticky(2, 3, 4), set, 100); err == nil {
		t.Error("invalid sequence accepted")
	}
	// Violation beyond the horizon is not seen.
	if err := Validate(Sticky(2, 3, 4), set, 2); err != nil {
		t.Errorf("horizon-limited validation flagged too much: %v", err)
	}
}

func TestPropSequencesPure(t *testing.T) {
	set := taskgraph.MustQuanta(1, 5, 9)
	seqs := []Sequence{
		Constant(5),
		Cycle(1, 5, 9),
		Sticky(9, 5),
		Uniform(set, 3),
		Walk(set, 3),
	}
	f := func(k16 uint16) bool {
		k := int64(k16)
		for _, s := range seqs {
			if s.At(k) != s.At(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFuncAdapter(t *testing.T) {
	s := Func(func(k int64) int64 { return k * 2 })
	if s.At(21) != 42 {
		t.Error("Func adapter broken")
	}
}

func TestBursty(t *testing.T) {
	set := taskgraph.MustQuanta(2, 5, 9)
	s := Bursty(set, 3, 2)
	want := []int64{2, 2, 2, 9, 9, 2, 2, 2, 9, 9}
	for k, w := range want {
		if got := s.At(int64(k)); got != w {
			t.Errorf("At(%d) = %d, want %d", k, got, w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive run length did not panic")
		}
	}()
	Bursty(set, 0, 1)
}
