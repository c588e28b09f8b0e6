package mac

// Boundary behavior of the beacon's 16-bit CFP duration field. A full
// 65536-client CFP is too slow to run end to end here (the strike loop
// is quadratic in the roster), so the clamp itself is pinned at the
// exact boundaries and a small RunCFP checks the in-range path never
// counts a clamp.

import (
	"math"
	"testing"
)

func TestClampCFPDurationBoundaries(t *testing.T) {
	cases := []struct {
		slots int
		want  uint16
	}{
		{-1, 0},
		{0, 0},
		{1, 1},
		{math.MaxUint16, math.MaxUint16},     // last in-range value passes through
		{math.MaxUint16 + 1, math.MaxUint16}, // the old uint16() cast made this 0
		{1 << 20, math.MaxUint16},
	}
	for _, c := range cases {
		if got := ClampCFPDuration(c.slots); got != c.want {
			t.Errorf("ClampCFPDuration(%d) = %d, want %d", c.slots, got, c.want)
		}
	}
}

func TestRunCFPInRangeDurationNotClamped(t *testing.T) {
	sim := countBeacons(NewSimulator(Config{GroupSize: 1, CPSlots: 1}, FIFOPicker{}, constRate, okRunner))
	for c := ClientID(0); c < 5; c++ {
		sim.Enqueue(c)
	}
	beacon := sim.RunCFP()
	if beacon.CFPDurationSlots != 5 {
		t.Fatalf("CFP duration %d, want 5", beacon.CFPDurationSlots)
	}
	if sim.WireClamps() != 0 {
		t.Fatalf("WireClamps %d, want 0 for an in-range CFP", sim.WireClamps())
	}
}
