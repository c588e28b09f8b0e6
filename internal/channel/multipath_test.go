package channel

import (
	"math"
	"testing"
)

func TestMultipathFromFlat(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(4, 0)
	mc := w.MultipathFrom(a, b, 1, 0)
	if len(mc.Taps) != 1 {
		t.Fatalf("taps %d", len(mc.Taps))
	}
	// Single tap, decay 0: tap 0 is exactly the flat channel.
	if mc.Taps[0].Sub(w.Channel(a, b)).MaxAbs() > 1e-12 {
		t.Fatal("single-tap channel should equal flat channel")
	}
	// Frequency response of a 1-tap channel is flat across subcarriers.
	h0 := mc.FrequencyResponse(0, 16)
	h7 := mc.FrequencyResponse(7, 16)
	if h0.Sub(h7).MaxAbs() > 1e-12 {
		t.Fatal("1-tap channel not flat in frequency")
	}
}

func TestMultipathPowerNormalized(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	p.HardwareSpreadDB = 0
	w := NewWorld(p, 5)
	a := w.AddNode(0, 0)
	b := w.AddNode(4, 0)
	flatPow := 0.0
	multiPow := 0.0
	const trials = 300
	for i := 0; i < trials; i++ {
		w.Redraw(a, b)
		f := w.Channel(a, b)
		flatPow += f.FrobeniusNorm() * f.FrobeniusNorm()
		mc := w.MultipathFrom(a, b, 4, 0.5)
		for _, tap := range mc.Taps {
			multiPow += tap.FrobeniusNorm() * tap.FrobeniusNorm()
		}
	}
	ratio := multiPow / flatPow
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("multipath power ratio %v, want ~1", ratio)
	}
}

func TestMultipathSelectivityOrdering(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(4, 0)
	flat := w.MultipathFrom(a, b, 1, 0).CoherenceSelectivity(64)
	moderate := w.MultipathFrom(a, b, 3, 0.3).CoherenceSelectivity(64)
	severe := w.MultipathFrom(a, b, 8, 0.8).CoherenceSelectivity(64)
	if flat > 1e-12 {
		t.Fatalf("flat selectivity %v", flat)
	}
	if !(moderate > flat && severe > moderate) {
		t.Fatalf("selectivity ordering: %v %v %v", flat, moderate, severe)
	}
}

func TestMultipathFrequencyResponseMatchesDFT(t *testing.T) {
	// FrequencyResponse at k=0 is the sum of taps.
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(4, 0)
	mc := w.MultipathFrom(a, b, 3, 0.4)
	sum := mc.Taps[0].Add(mc.Taps[1]).Add(mc.Taps[2])
	if mc.FrequencyResponse(0, 64).Sub(sum).MaxAbs() > 1e-9 {
		t.Fatal("DC response mismatch")
	}
	// Response at k and k+n are periodic.
	if mc.FrequencyResponse(3, 16).Sub(mc.FrequencyResponse(19, 16)).MaxAbs() > 1e-9 {
		t.Fatal("frequency response not periodic")
	}
}

func TestMultipathValidation(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(4, 0)
	for _, f := range []func(){
		func() { w.MultipathFrom(a, b, 0, 0) },
		func() { w.MultipathFrom(a, b, 2, 1.0) },
		func() { w.MultipathFrom(a, b, 2, -0.1) },
		func() { (MultipathChannel{}).FrequencyResponse(0, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMultipathSevereSelectivityIsLarge(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(4, 0)
	sel := w.MultipathFrom(a, b, 8, 0.8).CoherenceSelectivity(64)
	if sel < 0.01 {
		t.Fatalf("severe channel selectivity %v suspiciously flat", sel)
	}
	if math.IsNaN(sel) {
		t.Fatal("NaN selectivity")
	}
}
