package phy

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/radio"
)

// Failure-injection tests: the PHY must degrade gracefully, not panic or
// return corrupt data as success, when its inputs are bad.

func TestDecodeFailsCleanlyAtVeryLowSNR(t *testing.T) {
	w := testWorld(20, 0)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	// Noise power far above signal.
	m := radio.NewMedium(w, fs, 1e6, 21)
	rng := rand.New(rand.NewSource(22))
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	payload := make([]byte, 60)
	rng.Read(payload)
	burst := radio.Burst{From: tx, Start: 5, Samples: PrecodeFrame(payload, v, 1)}
	y := m.Receive(rx, burst.Len()+20, []radio.Burst{burst})
	hTrue := w.Channel(tx, rx)
	dir := hTrue.MulVec(v)
	wv := dir.Normalize()
	_, err := DecodeProjected(Project(y, wv), wv.Dot(dir), len(payload), fs, 0.5)
	// CRC or detection must reject; silent corruption would be the bug.
	if err == nil {
		t.Fatal("decode at -60 dB SNR claimed success")
	}
}

func TestCancellationWithWrongChannelEstimateLeavesEnergy(t *testing.T) {
	w := testWorld(23, 0)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	m := radio.NewMedium(w, fs, 0.001, 24)
	rng := rand.New(rand.NewSource(25))
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	payload := make([]byte, 60)
	rng.Read(payload)
	burst := radio.Burst{From: tx, Start: 0, Samples: PrecodeFrame(payload, v, 1)}
	dur := burst.Len()
	y := m.Receive(rx, dur, []radio.Burst{burst})
	before := totalEnergy(y)

	// Correct estimate: near-complete cancellation.
	good := EstimateLink(m, tx, rx, 8)
	resGood, _ := CancelWithJitterSearch(y, payload, v, 1, good.H, good.CFO, fs, 0, 0)
	if totalEnergy(resGood) > before/20 {
		t.Fatal("good estimate failed to cancel")
	}

	// A completely wrong channel matrix: the scalar LS fit cannot fake
	// the spatial signature, so substantial energy remains.
	wrongH := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(good.H.FrobeniusNorm()/2, 0))
	resBad, _ := CancelWithJitterSearch(y, payload, v, 1, wrongH, good.CFO, fs, 0, 0)
	if totalEnergy(resBad) < before/4 {
		t.Fatalf("cancellation with a wrong channel removed too much: %v of %v",
			totalEnergy(resBad), before)
	}
}

func TestCancellationWithWrongBitsDoesNotCancel(t *testing.T) {
	// Cancelling a DIFFERENT packet's bits must leave the signal mostly
	// intact (random payloads decorrelate).
	w := testWorld(26, 0)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	m := radio.NewMedium(w, fs, 0.001, 27)
	rng := rand.New(rand.NewSource(28))
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	payload := make([]byte, 200)
	rng.Read(payload)
	other := make([]byte, 200)
	rng.Read(other)
	burst := radio.Burst{From: tx, Start: 0, Samples: PrecodeFrame(payload, v, 1)}
	dur := burst.Len()
	y := m.Receive(rx, dur, []radio.Burst{burst})
	before := totalEnergy(y)
	est := EstimateLink(m, tx, rx, 8)
	res, _ := CancelWithJitterSearch(y, other, v, 1, est.H, est.CFO, fs, 0, 0)
	// Shared preamble gives some correlation; the payload (94% of the
	// frame) must survive.
	if totalEnergy(res) < before/2 {
		t.Fatalf("wrong-bits cancellation removed %v of %v", before-totalEnergy(res), before)
	}
}

func TestEqualizeAndTrackSurvivesLargeResidualCFO(t *testing.T) {
	// The tracking loop's pull-in range: 150 Hz residual at 1 MHz is
	// within it for BPSK; verify bit errors stay rare over a long frame.
	rng := rand.New(rand.NewSource(29))
	bits := make([]byte, 8000)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	clean := modulateForTest(bits)
	z := applyCFOForTest(clean, 150, fs)
	eq := EqualizeAndTrack(z, 1, 0.15)
	errs := 0
	for i := range bits {
		got := byte(0)
		if real(eq[i]) < 0 {
			got = 1
		}
		if got != bits[i] {
			errs++
		}
	}
	// The loop needs a few symbols to pull in; afterwards errors vanish.
	if errs > len(bits)/50 {
		t.Fatalf("%d bit errors under 150 Hz residual CFO", errs)
	}
}

func modulateForTest(bits []byte) []complex128 {
	out := make([]complex128, len(bits))
	for i, b := range bits {
		if b == 0 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

func applyCFOForTest(s []complex128, cfo, rate float64) []complex128 {
	out := make([]complex128, len(s))
	for i := range s {
		ang := complex(0, 2*math.Pi*cfo*float64(i)/rate)
		out[i] = s[i] * cmplx.Exp(ang)
	}
	return out
}
