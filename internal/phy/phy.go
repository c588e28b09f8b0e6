// Package phy implements the MIMO physical layer on top of the sample
// medium: encoding-vector precoding at the transmitter, least-squares
// channel and CFO estimation from training bursts, projection decoding
// with decision-directed phase tracking at the receiver, and signal-level
// interference cancellation (reconstruct-and-subtract).
//
// IAC only needs the subtraction half of interference cancellation
// (paper Section 6); the decoding half is replaced by alignment. Both
// live here.
package phy

import (
	"math"
	"math/cmplx"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/sig"
)

// PrecodeFrame spreads a framed payload across M antennas along the unit
// encoding vector v with transmit amplitude amp: antenna a transmits
// amp * v[a] * s[t]. This is the paper's core transmitter operation —
// "multiply packet p_i by a vector v_i ... and transmit the two elements
// of the resulting 2-dimensional vector, one on each antenna".
func PrecodeFrame(payload []byte, v cmplxmat.Vector, amp float64) [][]complex128 {
	s := sig.FrameSamples(payload)
	return PrecodeSamples(s, v, amp)
}

// PrecodeSamples precodes an arbitrary scalar sample stream.
func PrecodeSamples(s []complex128, v cmplxmat.Vector, amp float64) [][]complex128 {
	out := make([][]complex128, v.Dim())
	for a := range out {
		out[a] = make([]complex128, len(s))
	}
	precodeInto(out, s, v, amp)
	return out
}

// Project collapses a multi-antenna sample stream onto the unit decoding
// vector w: z[t] = w^H y[t]. Interference aligned orthogonally to w
// vanishes sample by sample, independent of modulation or symbol
// boundaries — the property that makes alignment work without
// synchronization (paper Section 6c).
func Project(rx [][]complex128, w cmplxmat.Vector) []complex128 {
	if len(rx) != w.Dim() {
		panic("phy: projection dimension mismatch")
	}
	out := make([]complex128, len(rx[0]))
	projectInto(out, rx, w)
	return out
}

// EqualizeAndTrack removes the complex link gain g and then runs a
// first-order decision-directed phase tracking loop over the BPSK stream,
// absorbing residual frequency offset and phase noise the preamble-based
// CFO estimate missed. loopGain around 0.1 tracks USRP-class residuals.
func EqualizeAndTrack(z []complex128, g complex128, loopGain float64) []complex128 {
	out := make([]complex128, len(z))
	if g == 0 {
		copy(out, z)
		return out
	}
	phase := 0.0
	freq := 0.0
	for t, s := range z {
		eq := s / g * cmplx.Exp(complex(0, -phase))
		out[t] = eq
		// BPSK decision-directed error: angle to the nearest of +-1.
		var ref complex128 = 1
		if real(eq) < 0 {
			ref = -1
		}
		err := cmplx.Phase(eq * cmplx.Conj(ref))
		// Second-order loop: integrate frequency, apply proportional term.
		freq += loopGain * loopGain / 4 * err
		phase += freq + loopGain*err
	}
	return out
}

// DecodeResult reports a decoded packet and its link quality.
type DecodeResult struct {
	Payload []byte
	// SNR is the decision-directed EVM SNR of the equalized symbols, the
	// per-packet quantity the paper feeds into its rate metric (Eq. 9).
	SNR float64
	// Offset is where the frame started within the projected stream.
	Offset int
}

// DecodeProjected runs the receive chain on an already-projected scalar
// stream: preamble detection, CFO estimation and correction, gain
// equalization, phase tracking, demodulation, and CRC check.
//
// gEst is the receiver's estimate of the post-projection link gain
// w^H H v (times amplitude); payloadLen the expected payload size in
// bytes; sampleRate the medium's rate. minCorr rejects detections whose
// preamble correlation is weaker (0.5 is a good default).
func DecodeProjected(z []complex128, gEst complex128, payloadLen int, sampleRate, minCorr float64) (DecodeResult, error) {
	frameLen := sig.FrameLenBits(payloadLen)
	off, corr := sig.DetectPreamble(z)
	if off < 0 || corr < minCorr || off+frameLen > len(z) {
		return DecodeResult{}, ErrNoPacket
	}
	frame := z[off : off+frameLen]
	// CFO from the preamble portion against the known reference.
	pre := sig.Preamble()
	// Scale reference by estimated gain so the delay-and-correlate sees
	// matched magnitudes (only phase matters, but keep it clean).
	ref := make([]complex128, len(pre))
	for i := range pre {
		ref[i] = pre[i] * gEst
	}
	cfo := sig.EstimateCFO(frame, ref, sampleRate)
	corrected := sig.CorrectCFO(frame, cfo, sampleRate, 0)
	eq := EqualizeAndTrack(corrected, gEst, 0.15)
	bits := sig.DemodulateBPSK(eq)
	payload, err := sig.DeframeBits(bits)
	if err != nil {
		return DecodeResult{}, err
	}
	// Measure SNR over the data portion only (preamble already used).
	snr := sig.MeasureEVMSNR(eq[sig.PreambleBits:])
	return DecodeResult{Payload: payload, SNR: snr, Offset: off}, nil
}

// ErrNoPacket is returned when preamble detection finds nothing usable.
var ErrNoPacket = errNoPacket{}

type errNoPacket struct{}

func (errNoPacket) Error() string { return "phy: no packet detected" }

// CancelWithJitterSearch cancels a packet whose exact start sample is
// only known to within +-maxJitter samples (transmitters key up with
// slot-clock jitter). It tries every offset in the window and keeps the
// one with the smallest residual energy.
//
// The offsets are scored over the packet's PAYLOAD region only, on a
// window fixed by the nominal start: every concurrent frame carries the
// same pseudo-noise preamble, so preamble samples correlate with the
// wrong packet and would bias the search; payload bits are unique.
func CancelWithJitterSearch(rx [][]complex128, payload []byte, v cmplxmat.Vector, amp float64, hEst *cmplxmat.Matrix, cfoHz, sampleRate float64, nominalStart, maxJitter int) ([][]complex128, int) {
	dur := len(rx[0])
	frameLen := sig.FrameLenBits(len(payload))
	winLo := clampIdx(nominalStart+sig.PreambleBits, 0, dur)
	winHi := clampIdx(nominalStart+frameLen, 0, dur)

	// The whole search runs on two reusable workspace buffers: the frame
	// samples and the channel product are computed once, each offset's
	// reconstruction and residual overwrite the same arena rows, and only
	// the winning residual is copied out to the heap.
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	s := frameSamplesWS(ws, payload)
	hv := hEst.MulVecWS(ws.Mat, v).ScaleWS(ws.Mat, complex(amp, 0))
	w := 2 * math.Pi * cfoHz / sampleRate
	mAnt := len(rx)
	recon := ws.AntSamples(mAnt, dur)
	res := ws.AntSamples(mAnt, dur)
	best := ws.AntSamples(mAnt, dur)

	bestEnergy := math.Inf(1)
	bestStart := nominalStart
	for d := -maxJitter; d <= maxJitter; d++ {
		for a := range recon {
			clear(recon[a])
		}
		reconstructInto(recon, s, hv, w, nominalStart+d)
		cancelInto(res, rx, recon)
		e := windowEnergy(res, winLo, winHi)
		if e < bestEnergy {
			bestEnergy = e
			bestStart = nominalStart + d
			res, best = best, res
		}
	}
	out := make([][]complex128, mAnt)
	for a := range out {
		out[a] = make([]complex128, dur)
		copy(out[a], best[a])
	}
	return out, bestStart
}

func clampIdx(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func windowEnergy(x [][]complex128, lo, hi int) float64 {
	var e float64
	for a := range x {
		for t := lo; t < hi && t < len(x[a]); t++ {
			s := x[a][t]
			e += real(s)*real(s) + imag(s)*imag(s)
		}
	}
	return e
}
