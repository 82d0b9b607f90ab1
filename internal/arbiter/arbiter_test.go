package arbiter

import (
	"testing"
	"testing/quick"

	"vrdfcap/internal/ratio"
)

func r(n, d int64) ratio.Rat { return ratio.MustNew(n, d) }

func TestTDMResponseTime(t *testing.T) {
	cases := []struct {
		name         string
		slice, frame ratio.Rat
		wcet         ratio.Rat
		want         ratio.Rat
	}{
		// C <= S: one slice; wait P-S then run C.
		{"single slice", r(2, 1), r(10, 1), r(1, 1), r(9, 1)},
		// C == S exactly: rho = P.
		{"full slice", r(2, 1), r(10, 1), r(2, 1), r(10, 1)},
		// C == 2S: two slices -> 2(P-S) + C = 2P.
		{"two slices", r(2, 1), r(10, 1), r(4, 1), r(20, 1)},
		// Fractional: C = 3, S = 2 -> 2 slices: 2*8 + 3 = 19.
		{"ceil", r(2, 1), r(10, 1), r(3, 1), r(19, 1)},
		// Slice == frame: dedicated resource, rho = C.
		{"dedicated", r(10, 1), r(10, 1), r(7, 2), r(7, 2)},
	}
	for _, c := range cases {
		got, err := TDM{Slice: c.slice, Frame: c.frame}.ResponseTime(c.wcet)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !got.Equal(c.want) {
			t.Errorf("%s: ρ = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTDMValidation(t *testing.T) {
	if _, err := (TDM{Slice: ratio.Zero, Frame: r(10, 1)}).ResponseTime(r(1, 1)); err == nil {
		t.Error("zero slice accepted")
	}
	if _, err := (TDM{Slice: r(11, 1), Frame: r(10, 1)}).ResponseTime(r(1, 1)); err == nil {
		t.Error("slice > frame accepted")
	}
	if _, err := (TDM{Slice: r(1, 1), Frame: r(10, 1)}).ResponseTime(ratio.Zero); err == nil {
		t.Error("zero WCET accepted")
	}
}

func TestRoundRobinResponseTime(t *testing.T) {
	rr := RoundRobin{
		OwnSlice:    r(2, 1),
		OtherSlices: []ratio.Rat{r(3, 1), r(1, 1)},
	}
	// C = 2 -> 1 own slice, 1 round of others (4): rho = 6.
	got, err := rr.ResponseTime(r(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r(6, 1)) {
		t.Errorf("ρ = %v, want 6", got)
	}
	// C = 5 -> 3 own slices: rho = 5 + 3*4 = 17.
	got, err = rr.ResponseTime(r(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r(17, 1)) {
		t.Errorf("ρ = %v, want 17", got)
	}
	// Alone on the resource: rho = C.
	alone := RoundRobin{OwnSlice: r(2, 1)}
	got, err = alone.ResponseTime(r(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r(5, 1)) {
		t.Errorf("alone ρ = %v, want 5", got)
	}
}

func TestRoundRobinValidation(t *testing.T) {
	if _, err := (RoundRobin{OwnSlice: ratio.Zero}).ResponseTime(r(1, 1)); err == nil {
		t.Error("zero own slice accepted")
	}
	bad := RoundRobin{OwnSlice: r(1, 1), OtherSlices: []ratio.Rat{ratio.Zero}}
	if _, err := bad.ResponseTime(r(1, 1)); err == nil {
		t.Error("zero other slice accepted")
	}
	ok := RoundRobin{OwnSlice: r(1, 1)}
	if _, err := ok.ResponseTime(r(-1, 1)); err == nil {
		t.Error("negative WCET accepted")
	}
}

func TestDedicated(t *testing.T) {
	got, err := Dedicated{}.ResponseTime(r(3, 2))
	if err != nil || !got.Equal(r(3, 2)) {
		t.Errorf("Dedicated ρ = %v, %v; want 3/2", got, err)
	}
	if _, err := (Dedicated{}).ResponseTime(ratio.Zero); err == nil {
		t.Error("zero WCET accepted")
	}
}

func TestPropTDMMonotoneInWCET(t *testing.T) {
	f := func(c8 uint8) bool {
		tdm := TDM{Slice: r(2, 1), Frame: r(10, 1)}
		c := r(int64(c8%40)+1, 2)
		r1, err1 := tdm.ResponseTime(c)
		r2, err2 := tdm.ResponseTime(c.Add(r(1, 2)))
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.LessEq(r2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTDMDominatesWCET(t *testing.T) {
	// The arbiter can only add delay: rho >= C always.
	f := func(c8, s8 uint8) bool {
		s := r(int64(s8%9)+1, 1)
		tdm := TDM{Slice: s, Frame: r(10, 1)}
		c := r(int64(c8%40)+1, 2)
		rt, err := tdm.ResponseTime(c)
		if err != nil {
			return false
		}
		return c.LessEq(rt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
