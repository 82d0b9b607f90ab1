// Package arbiter derives worst-case response times for tasks scheduled by
// run-time arbiters.
//
// The task model of Wiggers et al. (DATE 2008), §3.1, assumes that "all
// shared resources have run-time arbiters" that "can guarantee a worst-case
// response time given the worst-case execution times and the scheduler
// settings", independently of the rate with which tasks start — the class
// that includes time-division multiplex (TDM) and round-robin. This package
// supplies those guarantees: it turns a task's worst-case execution time
// (WCET) plus arbiter settings into the κ(w) that the task graph and the
// buffer-capacity analysis consume.
//
// The TDM bound is the classical latency-rate bound for a slice S out of a
// frame P: an execution needing ⌈C/S⌉ slices waits at most P−S before each,
// so ρ = ⌈C/S⌉·(P−S) + C. The round-robin bound charges one full round of
// the other tasks' slices per own slice: ρ = C + ⌈C/S⌉·ΣS_other. Both are
// independent of arrival rate, as required.
package arbiter

import (
	"fmt"

	"vrdfcap/internal/ratio"
)

// TDM is a time-division-multiplex arbiter allocation: the task owns Slice
// time units out of every Frame.
type TDM struct {
	// Slice is the contiguous budget per frame; 0 < Slice <= Frame.
	Slice ratio.Rat
	// Frame is the TDM wheel period.
	Frame ratio.Rat
}

// Validate checks the allocation.
func (t TDM) Validate() error {
	if t.Slice.Sign() <= 0 {
		return fmt.Errorf("arbiter: TDM slice must be positive, got %v", t.Slice)
	}
	if t.Frame.Sign() <= 0 {
		return fmt.Errorf("arbiter: TDM frame must be positive, got %v", t.Frame)
	}
	if t.Frame.Less(t.Slice) {
		return fmt.Errorf("arbiter: TDM slice %v exceeds frame %v", t.Slice, t.Frame)
	}
	return nil
}

// ResponseTime returns the worst-case response time of a task with the
// given worst-case execution time under this allocation:
//
//	ρ = ⌈C/S⌉ · (P − S) + C
//
// The bound holds for any enabling pattern: in the worst case the task is
// enabled immediately after its slice ends and every needed slice is
// preceded by the full P−S of foreign time.
func (t TDM) ResponseTime(wcet ratio.Rat) (ratio.Rat, error) {
	if err := t.Validate(); err != nil {
		return ratio.Rat{}, err
	}
	if wcet.Sign() <= 0 {
		return ratio.Rat{}, fmt.Errorf("arbiter: WCET must be positive, got %v", wcet)
	}
	slices := wcet.Div(t.Slice).Ceil()
	gap := t.Frame.Sub(t.Slice)
	return gap.MulInt(slices).Add(wcet), nil
}

// RoundRobin is a round-robin arbiter: the task owns OwnSlice and shares
// the resource with tasks owning OtherSlices.
type RoundRobin struct {
	OwnSlice    ratio.Rat
	OtherSlices []ratio.Rat
}

// Validate checks the configuration.
func (rr RoundRobin) Validate() error {
	if rr.OwnSlice.Sign() <= 0 {
		return fmt.Errorf("arbiter: round-robin own slice must be positive, got %v", rr.OwnSlice)
	}
	for i, s := range rr.OtherSlices {
		if s.Sign() <= 0 {
			return fmt.Errorf("arbiter: round-robin other slice %d must be positive, got %v", i, s)
		}
	}
	return nil
}

// ResponseTime returns the worst-case response time of a task with the
// given WCET:
//
//	ρ = C + ⌈C/S⌉ · Σ S_other
//
// In the worst case every own slice is preceded by a full round of every
// other task exhausting its slice.
func (rr RoundRobin) ResponseTime(wcet ratio.Rat) (ratio.Rat, error) {
	if err := rr.Validate(); err != nil {
		return ratio.Rat{}, err
	}
	if wcet.Sign() <= 0 {
		return ratio.Rat{}, fmt.Errorf("arbiter: WCET must be positive, got %v", wcet)
	}
	round := ratio.Zero
	for _, s := range rr.OtherSlices {
		round = round.Add(s)
	}
	slices := wcet.Div(rr.OwnSlice).Ceil()
	return wcet.Add(round.MulInt(slices)), nil
}

// Dedicated models a task with a resource to itself: the response time is
// just the WCET. Useful as the degenerate arbiter in examples.
type Dedicated struct{}

// ResponseTime returns the WCET unchanged.
func (Dedicated) ResponseTime(wcet ratio.Rat) (ratio.Rat, error) {
	if wcet.Sign() <= 0 {
		return ratio.Rat{}, fmt.Errorf("arbiter: WCET must be positive, got %v", wcet)
	}
	return wcet, nil
}

// Arbiter is any scheduler that can bound a task's response time from its
// WCET independently of enabling rate — the scheduler class the paper
// admits.
type Arbiter interface {
	ResponseTime(wcet ratio.Rat) (ratio.Rat, error)
}

var (
	_ Arbiter = TDM{}
	_ Arbiter = RoundRobin{}
	_ Arbiter = Dedicated{}
)
