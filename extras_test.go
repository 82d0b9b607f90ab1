package vrdfcap

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"vrdfcap/internal/mp3"
)

func pairForExtras(t *testing.T) *Graph {
	t.Helper()
	g, err := Pair("wa", Rat(1, 1), "wb", Rat(1, 1), Quanta(3), Quanta(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAnchoredScheduleFacade(t *testing.T) {
	g := pairForExtras(t)
	res, err := Analyze(g, Constraint{Task: "wb", Period: Rat(3, 1)}, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := AnchoredSchedule(res)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.SinkOffset.Equal(Rat(3, 1)) || !cs.LatencyBound.Equal(Rat(4, 1)) {
		t.Errorf("offset %v latency %v, want 3 and 4", cs.SinkOffset, cs.LatencyBound)
	}
}

func TestSweepPeriodsFacade(t *testing.T) {
	g := pairForExtras(t)
	periods, err := GeometricPeriods(Rat(1, 1), 2, 1, 4) // 1, 2, 4, 8
	if err != nil {
		t.Fatal(err)
	}
	if len(periods) != 4 || !periods[3].Equal(Rat(8, 1)) {
		t.Fatalf("GeometricPeriods = %v", periods)
	}
	pts, err := SweepPeriods(g, "wb", periods, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Total > pts[i-1].Total {
			t.Errorf("capacity not monotone across sweep: %v", pts)
		}
	}
	// The facade's options reach the sweep: every worker count gives the
	// same points, and a canceled context stops it with ErrCanceled.
	for _, parallel := range []int{0, 1, 2} {
		opt, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(opt, pts) {
			t.Errorf("Parallel %d: %v, want %v", parallel, opt, pts)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepPeriodsOpt(g, "wb", periods, PolicyEquation4, SweepOptions{Context: ctx}); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled sweep: %v, want ErrCanceled", err)
	}
	min, err := MinimalFeasiblePeriod(g, "wb", periods, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if !min.Period.Equal(Rat(1, 1)) {
		t.Errorf("minimal feasible period = %v", min.Period)
	}
}

func TestGeometricPeriodsValidation(t *testing.T) {
	if _, err := GeometricPeriods(Rat(1, 1), 2, 1, 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := GeometricPeriods(Rat(1, 1), 1, 0, 3); err == nil {
		t.Error("zero denominator accepted")
	}
}

func TestArbiterFacade(t *testing.T) {
	tdm := TDM{Slice: Rat(1, 1000), Frame: Rat(1, 250)}
	rho, err := ResponseTime(tdm, Rat(1, 4000))
	if err != nil {
		t.Fatal(err)
	}
	// 1 slice: (1/250 - 1/1000) + 1/4000 = 13/4000.
	if !rho.Equal(Rat(13, 4000)) {
		t.Errorf("TDM response = %v, want 13/4000", rho)
	}
	rr := RoundRobin{OwnSlice: Rat(1, 1), OtherSlices: []RatNum{Rat(2, 1)}}
	rho, err = ResponseTime(rr, Rat(1, 1))
	if err != nil || !rho.Equal(Rat(3, 1)) {
		t.Errorf("RR response = %v, %v; want 3", rho, err)
	}
}

func TestSweepOnMP3Chain(t *testing.T) {
	g, err := mp3.Graph()
	if err != nil {
		t.Fatal(err)
	}
	base := mp3.Constraint().Period
	// Faster than 44.1 kHz is infeasible (the WCRTs are exactly
	// critical); 44.1 kHz and slower are feasible.
	periods := []RatNum{base.DivInt(2), base, base.MulInt(2)}
	pts, err := SweepPeriods(g, mp3.TaskDAC, periods, PolicyEquation4)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Valid {
		t.Error("88.2 kHz reported feasible with critical response times")
	}
	if !pts[1].Valid || !pts[2].Valid {
		t.Error("44.1 kHz or slower reported infeasible")
	}
	if pts[1].Total != 6015+3263+883 {
		t.Errorf("44.1 kHz total = %d", pts[1].Total)
	}
	if pts[2].Total >= pts[1].Total {
		t.Errorf("relaxing the period did not shrink capacity: %d >= %d", pts[2].Total, pts[1].Total)
	}
}
