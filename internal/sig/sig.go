// Package sig provides the baseband digital signal processing substrate
// that GNU-Radio supplied in the paper's prototype: BPSK modulation and
// demodulation, pseudo-noise preambles, packet framing with a CRC,
// correlation-based packet detection, and carrier-frequency-offset
// rotation and compensation.
//
// IAC sits below modulation and coding and treats the modem as a black
// box (paper Section 4). The rest of this repository only exchanges
// []complex128 sample slices with this package, so a different modem
// could be dropped in without touching alignment or cancellation.
package sig

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/cmplx"
)

// PreambleBits is the length of the packet preamble in bits. The paper's
// implementation uses a 32-bit preamble (Section 10c).
const PreambleBits = 32

// Preamble returns the fixed 32-symbol pseudo-noise preamble as BPSK
// samples. The sequence is a maximal-length LFSR output, which has a
// sharply peaked autocorrelation — the property packet detection and
// channel estimation rely on.
func Preamble() []complex128 {
	bits := preambleBits()
	return ModulateBPSK(bits)
}

// preambleSamples is the preamble, modulated once for FrameSamplesInto.
var preambleSamples = Preamble()

func preambleBits() []byte {
	// 5-stage LFSR (taps 5,3), period 31, plus one extra bit to reach 32.
	bits := make([]byte, PreambleBits)
	state := byte(0x1f)
	for i := range bits {
		bit := state & 1
		bits[i] = bit
		fb := ((state >> 0) ^ (state >> 2)) & 1
		state = (state >> 1) | (fb << 4)
	}
	return bits
}

// ModulateBPSK maps bits (0/1 values, one per byte) onto unit-energy BPSK
// symbols: 0 -> +1, 1 -> -1. One sample per symbol, matching the paper's
// flat-channel regime where no pulse shaping is needed.
func ModulateBPSK(bits []byte) []complex128 {
	out := make([]complex128, len(bits))
	for i, b := range bits {
		switch b {
		case 0:
			out[i] = 1
		case 1:
			out[i] = -1
		default:
			panic(fmt.Sprintf("sig: bit value %d out of range", b))
		}
	}
	return out
}

// DemodulateBPSK slices samples back to bits by the sign of the real part.
func DemodulateBPSK(samples []complex128) []byte {
	bits := make([]byte, len(samples))
	for i, s := range samples {
		if real(s) < 0 {
			bits[i] = 1
		}
	}
	return bits
}

// BitsToBytes packs bits (MSB first) into bytes. The bit count must be a
// multiple of 8.
func BitsToBytes(bits []byte) ([]byte, error) {
	if len(bits)%8 != 0 {
		return nil, fmt.Errorf("sig: bit count %d not a byte multiple", len(bits))
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b > 1 {
			return nil, fmt.Errorf("sig: bit value %d out of range", b)
		}
		out[i/8] |= b << uint(7-i%8)
	}
	return out, nil
}

// ErrBadCRC is returned when a decoded frame fails its checksum.
var ErrBadCRC = errors.New("sig: frame CRC mismatch")

// FrameSamples modulates a full frame for a payload.
func FrameSamples(payload []byte) []complex128 {
	out := make([]complex128, FrameLenBits(len(payload)))
	FrameSamplesInto(out, payload)
	return out
}

// FrameSamplesInto writes the BPSK samples of the frame for a payload
// into dst, which must hold exactly FrameLenBits(len(payload)) samples.
// This is the one encoding of the frame layout: preamble, then the
// payload bits, then the big-endian CRC-32 (IEEE) of the payload, each
// byte most significant bit first. The preamble doubles as the
// channel-estimation training sequence.
func FrameSamplesInto(dst []complex128, payload []byte) {
	if len(dst) != FrameLenBits(len(payload)) {
		panic(fmt.Sprintf("sig: frame of %d bytes into %d samples", len(payload), len(dst)))
	}
	crc := crc32.ChecksumIEEE(payload)
	cb := [4]byte{byte(crc >> 24), byte(crc >> 16), byte(crc >> 8), byte(crc)}
	n := copy(dst, preambleSamples)
	for _, part := range [2][]byte{payload, cb[:]} {
		for _, b := range part {
			for s := 7; s >= 0; s-- {
				dst[n] = 1 // ModulateBPSK's 0 -> +1, 1 -> -1
				if b>>s&1 == 1 {
					dst[n] = -1
				}
				n++
			}
		}
	}
}

// FrameLenBits returns the total frame length in bits for a payload of n
// bytes: preamble + payload + CRC-32.
func FrameLenBits(payloadBytes int) int {
	return PreambleBits + payloadBytes*8 + 32
}

// DeframeBits validates and strips preamble and CRC from a received frame
// bit stream, returning the payload. It returns ErrBadCRC if the checksum
// fails. The caller must pass exactly FrameLenBits worth of bits.
func DeframeBits(bits []byte) ([]byte, error) {
	if len(bits) < PreambleBits+32 || (len(bits)-PreambleBits-32)%8 != 0 {
		return nil, fmt.Errorf("sig: bad frame length %d bits", len(bits))
	}
	body, err := BitsToBytes(bits[PreambleBits:])
	if err != nil {
		return nil, err
	}
	payload := body[:len(body)-4]
	crcBytes := body[len(body)-4:]
	want := uint32(crcBytes[0])<<24 | uint32(crcBytes[1])<<16 | uint32(crcBytes[2])<<8 | uint32(crcBytes[3])
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrBadCRC
	}
	return payload, nil
}

// ApplyCFO rotates samples by a carrier frequency offset of cfoHz at the
// given sample rate, starting from the phase accumulated after
// startSample samples: s'[k] = s[k] * e^{j 2 pi cfo (startSample+k)/rate}.
// This is the time-varying channel rotation of paper Section 6(a).
func ApplyCFO(samples []complex128, cfoHz, sampleRate float64, startSample int) []complex128 {
	out := make([]complex128, len(samples))
	w := 2 * math.Pi * cfoHz / sampleRate
	for k := range samples {
		phase := w * float64(startSample+k)
		out[k] = samples[k] * cmplx.Exp(complex(0, phase))
	}
	return out
}

// EstimateCFO estimates a frequency offset from the phase drift of the
// received preamble against the known reference, using the standard
// delay-and-correlate estimator with lag L: the angle of
// sum r[k+L] conj(ref[k+L]) conj(r[k] conj(ref[k])) equals 2 pi cfo L / rate.
// The unambiguous range is |cfo| < rate/(2L).
func EstimateCFO(received, reference []complex128, sampleRate float64) float64 {
	n := len(reference)
	if len(received) < n || n < 8 {
		panic("sig: EstimateCFO needs at least the full reference")
	}
	lag := n / 2
	var acc complex128
	for k := 0; k+lag < n; k++ {
		a := received[k] * cmplx.Conj(reference[k])
		b := received[k+lag] * cmplx.Conj(reference[k+lag])
		acc += b * cmplx.Conj(a)
	}
	angle := cmplx.Phase(acc)
	return angle * sampleRate / (2 * math.Pi * float64(lag))
}

// CorrectCFO derotates samples by the estimated offset, starting at the
// accumulated phase of startSample.
func CorrectCFO(samples []complex128, cfoHz, sampleRate float64, startSample int) []complex128 {
	return ApplyCFO(samples, -cfoHz, sampleRate, startSample)
}

// DetectPreamble slides the known preamble over rx and returns the offset
// with the highest normalized correlation magnitude along with that
// correlation (0..1). Detection succeeds when the correlation exceeds the
// caller's threshold (0.5 works at the SNRs of interest).
func DetectPreamble(rx []complex128) (offset int, corr float64) {
	ref := Preamble()
	n := len(ref)
	if len(rx) < n {
		return -1, 0
	}
	var refEnergy float64
	for _, s := range ref {
		refEnergy += real(s)*real(s) + imag(s)*imag(s)
	}
	best, bestOff := 0.0, -1
	for off := 0; off+n <= len(rx); off++ {
		var dot complex128
		var rxEnergy float64
		for k := 0; k < n; k++ {
			dot += rx[off+k] * cmplx.Conj(ref[k])
			rxEnergy += real(rx[off+k])*real(rx[off+k]) + imag(rx[off+k])*imag(rx[off+k])
		}
		if rxEnergy == 0 {
			continue
		}
		c := cmplx.Abs(dot) / math.Sqrt(refEnergy*rxEnergy)
		if c > best {
			best, bestOff = c, off
		}
	}
	return bestOff, best
}

// MeasureEVMSNR estimates the signal-to-noise ratio of equalized BPSK
// samples from their error vector magnitude: the decision-directed
// estimator SNR = E[|s|^2] / E[|s - ŝ|^2], where ŝ is the nearest
// constellation point. This is how the testbed measures per-packet SNR
// for the rate metric (Eq. 9) without knowing the transmitted bits.
func MeasureEVMSNR(equalized []complex128) float64 {
	if len(equalized) == 0 {
		return 0
	}
	var sigPow, errPow float64
	for _, s := range equalized {
		var ref complex128 = 1
		if real(s) < 0 {
			ref = -1
		}
		d := s - ref
		sigPow += 1
		errPow += real(d)*real(d) + imag(d)*imag(d)
	}
	if errPow == 0 {
		return math.Inf(1)
	}
	return sigPow / errPow
}
