package channel

import (
	"math"

	"iaclan/internal/cmplxmat"
)

// This file extends the flat-fading world with frequency-selective
// (multi-tap) channels for the OFDM extension. The paper's USRP channels
// are accurately flat (Section 6c); wider channels develop delay spread,
// and the paper conjectures alignment then works per OFDM subcarrier.

// MultipathChannel is an L-tap MIMO FIR channel: Taps[l] is the MxM
// matrix of the l-th delay tap, so y[t] = sum_l Taps[l] x[t-l] (+noise).
type MultipathChannel struct {
	Taps []*cmplxmat.Matrix
}

// MultipathFrom expands a pair's flat channel into an L-tap channel with
// an exponentially decaying power-delay profile. Tap 0 carries the
// world's flat matrix; later taps are fresh Rayleigh draws scaled so tap
// l has relative power decay^l, and the whole response is renormalized
// to keep the pair's average power equal to the flat channel's. decay in
// (0,1); decay near 0 is almost flat, near 1 strongly selective.
//
// Determinism: the extra taps are drawn from the world's RNG stream, so
// the same call sequence on a same-seed world reproduces exactly.
func (w *World) MultipathFrom(tx, rx *Node, numTaps int, decay float64) MultipathChannel {
	if numTaps < 1 {
		panic("channel: numTaps must be >= 1")
	}
	if decay < 0 || decay >= 1 {
		panic("channel: decay must be in [0,1)")
	}
	flat := w.Channel(tx, rx)
	taps := make([]*cmplxmat.Matrix, numTaps)
	var totalPower float64
	for l := 0; l < numTaps; l++ {
		rel := math.Pow(decay, float64(l))
		totalPower += rel
		if l == 0 {
			taps[0] = flat
			continue
		}
		amp := math.Sqrt(rel) * math.Sqrt(w.MeanSNR(tx, rx))
		taps[l] = cmplxmat.RandomGaussian(w.rng, w.params.Antennas, w.params.Antennas).Scale(complex(amp, 0))
	}
	norm := complex(1/math.Sqrt(totalPower), 0)
	for l := range taps {
		taps[l] = taps[l].Scale(norm)
	}
	return MultipathChannel{Taps: taps}
}

// FrequencyResponse returns the channel matrix seen by subcarrier k of
// an n-subcarrier OFDM system: H(k) = sum_l Taps[l] e^{-j 2 pi k l / n}.
func (mc MultipathChannel) FrequencyResponse(k, n int) *cmplxmat.Matrix {
	if len(mc.Taps) == 0 {
		panic("channel: empty multipath channel")
	}
	m := mc.Taps[0].Rows()
	h := cmplxmat.New(m, mc.Taps[0].Cols())
	for l, tap := range mc.Taps {
		ang := -2 * math.Pi * float64(k) * float64(l) / float64(n)
		rot := complex(math.Cos(ang), math.Sin(ang))
		h = h.Add(tap.Scale(rot))
	}
	return h
}
