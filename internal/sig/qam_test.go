package sig

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The square-QAM modem: Gray-coded constellations of unit average
// energy. No binary sends QAM samples; the modem is the oracle behind
// TestAlignmentIsModulationAgnostic (paper Section 6b) and the error-rate
// ordering the MCS ladder assumes (TestQAMErrorRateOrdering).

// pamLevels returns the per-axis Gray-coded amplitude levels of the
// square constellation with the given bits per axis, normalized later.
func pamLevels(bitsPerAxis int) []float64 {
	n := 1 << uint(bitsPerAxis)
	levels := make([]float64, n)
	for i := 0; i < n; i++ {
		levels[i] = float64(2*i - n + 1)
	}
	return levels
}

// grayEncode maps a natural index to its Gray code.
func grayEncode(i int) int { return i ^ (i >> 1) }

// Modulate maps bits onto unit-average-energy constellation symbols.
// len(bits) must be a multiple of BitsPerSymbol.
func Modulate(m Modulation, bits []byte) ([]complex128, error) {
	bps := m.BitsPerSymbol()
	if len(bits)%bps != 0 {
		return nil, fmt.Errorf("sig: %d bits not a multiple of %d", len(bits), bps)
	}
	if m == BPSK {
		return ModulateBPSK(bits), nil
	}
	half := bps / 2
	levels := pamLevels(half)
	scale := 1 / math.Sqrt(avgEnergy(levels)*2)
	out := make([]complex128, 0, len(bits)/bps)
	for i := 0; i < len(bits); i += bps {
		ii, err := bitsToIndex(bits[i : i+half])
		if err != nil {
			return nil, err
		}
		qi, err := bitsToIndex(bits[i+half : i+bps])
		if err != nil {
			return nil, err
		}
		// Gray mapping: adjacent levels differ by one bit.
		re := levels[grayIndexToLevel(ii, half)]
		im := levels[grayIndexToLevel(qi, half)]
		out = append(out, complex(re*scale, im*scale))
	}
	return out, nil
}

// Demodulate slices symbols back to bits by nearest constellation point.
func Demodulate(m Modulation, symbols []complex128) []byte {
	if m == BPSK {
		return DemodulateBPSK(symbols)
	}
	bps := m.BitsPerSymbol()
	half := bps / 2
	levels := pamLevels(half)
	scale := 1 / math.Sqrt(avgEnergy(levels)*2)
	bits := make([]byte, 0, len(symbols)*bps)
	for _, s := range symbols {
		bits = append(bits, axisBits(real(s)/scale, levels, half)...)
		bits = append(bits, axisBits(imag(s)/scale, levels, half)...)
	}
	return bits
}

func avgEnergy(levels []float64) float64 {
	var e float64
	for _, l := range levels {
		e += l * l
	}
	return e / float64(len(levels))
}

func bitsToIndex(bits []byte) (int, error) {
	v := 0
	for _, b := range bits {
		if b > 1 {
			return 0, fmt.Errorf("sig: bit value %d out of range", b)
		}
		v = v<<1 | int(b)
	}
	return v, nil
}

// grayIndexToLevel maps the Gray-coded bit pattern to a level index so
// that neighboring levels differ in exactly one bit.
func grayIndexToLevel(grayBits, bitsPerAxis int) int {
	// Invert the Gray code: find i with grayEncode(i) == grayBits.
	i := grayBits
	for shift := 1; shift < bitsPerAxis; shift <<= 1 {
		i ^= i >> uint(shift)
	}
	return i
}

func axisBits(v float64, levels []float64, bitsPerAxis int) []byte {
	// Nearest level.
	best, bestDist := 0, math.Inf(1)
	for i, l := range levels {
		if d := math.Abs(v - l); d < bestDist {
			best, bestDist = i, d
		}
	}
	g := grayEncode(best)
	bits := make([]byte, bitsPerAxis)
	for b := 0; b < bitsPerAxis; b++ {
		bits[bitsPerAxis-1-b] = byte((g >> uint(b)) & 1)
	}
	return bits
}

func TestModulationProperties(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		if m.BitsPerSymbol() < 1 {
			t.Fatalf("%v bits per symbol", m)
		}
		if m.String() == "" {
			t.Fatalf("%v name", m)
		}
	}
	if Modulation(99).String() == "" {
		t.Fatal("unknown modulation string")
	}
}

func TestModulateRoundTripAll(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		bps := m.BitsPerSymbol()
		bits := randomBits(rng, bps*200)
		syms, err := Modulate(m, bits)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(syms) != 200 {
			t.Fatalf("%v: %d symbols", m, len(syms))
		}
		back := Demodulate(m, syms)
		if !bytes.Equal(back, bits) {
			t.Fatalf("%v: round trip failed", m)
		}
	}
}

func TestModulateUnitAverageEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range []Modulation{QPSK, QAM16, QAM64} {
		bits := randomBits(rng, m.BitsPerSymbol()*5000)
		syms, err := Modulate(m, bits)
		if err != nil {
			t.Fatal(err)
		}
		var e float64
		for _, s := range syms {
			e += real(s)*real(s) + imag(s)*imag(s)
		}
		e /= float64(len(syms))
		if e < 0.9 || e > 1.1 {
			t.Fatalf("%v average energy %v", m, e)
		}
	}
}

func TestModulateValidation(t *testing.T) {
	if _, err := Modulate(QPSK, []byte{1}); err == nil {
		t.Fatal("misaligned bits accepted")
	}
	if _, err := Modulate(QAM16, []byte{2, 0, 0, 0}); err == nil {
		t.Fatal("invalid bit accepted")
	}
}

func TestGrayMappingNeighborProperty(t *testing.T) {
	// Adjacent 16-QAM levels along one axis must differ in exactly one
	// bit — the property that keeps noisy symbol errors to 1 bit.
	m := QAM16
	half := m.BitsPerSymbol() / 2
	levels := pamLevels(half)
	prev := axisBits(levels[0], levels, half)
	for i := 1; i < len(levels); i++ {
		cur := axisBits(levels[i], levels, half)
		diff := 0
		for b := range cur {
			if cur[b] != prev[b] {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("levels %d-%d differ in %d bits", i-1, i, diff)
		}
		prev = cur
	}
}

func TestQAMErrorRateOrdering(t *testing.T) {
	// At a fixed SNR, denser constellations suffer more bit errors.
	rng := rand.New(rand.NewSource(3))
	const snr = 30.0 // linear
	var prevBER float64 = -1
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		bits := randomBits(rng, m.BitsPerSymbol()*4000)
		syms, err := Modulate(m, bits)
		if err != nil {
			t.Fatal(err)
		}
		noisy := AddNoise(syms, 1/snr, rng)
		errs := BitErrors(Demodulate(m, noisy), bits)
		ber := float64(errs) / float64(len(bits))
		if ber < prevBER-0.005 {
			t.Fatalf("%v BER %v below sparser constellation's %v", m, ber, prevBER)
		}
		prevBER = ber
	}
}

// TestAlignmentIsModulationAgnostic verifies paper Section 6(b): the
// spatial alignment nulls interference sample by sample regardless of
// which constellation the samples carry. Two interferers along the same
// spatial direction are projected away exactly even when one sends BPSK
// and the other 64-QAM.
func TestAlignmentIsModulationAgnostic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dir := []complex128{complex(0.6, 0.3), complex(-0.4, 0.62)} // shared spatial direction
	// Projection vector with w^H dir = 0: w = [-conj(dir1), conj(dir0)]
	// gives conj(w) = [-dir1, dir0], and conj(w)·dir = 0.
	w := []complex128{-cmplx.Conj(dir[1]), cmplx.Conj(dir[0])}
	for _, m := range []Modulation{BPSK, QPSK, QAM16, QAM64} {
		bits := randomBits(rng, m.BitsPerSymbol()*64)
		syms, err := Modulate(m, bits)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range syms {
			// Interference sample along dir carrying this symbol.
			y := []complex128{dir[0] * s, dir[1] * s}
			leak := cmplx.Conj(w[0])*y[0] + cmplx.Conj(w[1])*y[1]
			if cmplx.Abs(leak) > 1e-12 {
				t.Fatalf("%v symbol %d leaked %v through the projection", m, i, leak)
			}
		}
	}
}
