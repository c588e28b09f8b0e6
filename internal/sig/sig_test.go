package sig

import (
	"bytes"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPreambleProperties(t *testing.T) {
	p := Preamble()
	if len(p) != PreambleBits {
		t.Fatalf("preamble length %d", len(p))
	}
	// Deterministic.
	p2 := Preamble()
	for i := range p {
		if p[i] != p2[i] {
			t.Fatal("preamble not deterministic")
		}
	}
	// Unit energy symbols.
	for i, s := range p {
		if math.Abs(cmplx.Abs(s)-1) > 1e-12 {
			t.Fatalf("symbol %d not unit energy", i)
		}
	}
	// Roughly balanced (PN property): between 10 and 22 of each bit.
	var ones int
	for _, s := range p {
		if real(s) < 0 {
			ones++
		}
	}
	if ones < 10 || ones > 22 {
		t.Fatalf("preamble unbalanced: %d ones", ones)
	}
}

func TestPreambleAutocorrelation(t *testing.T) {
	// Shifted autocorrelation must be well below the zero-lag peak.
	p := Preamble()
	var peak complex128
	for _, s := range p {
		peak += s * cmplx.Conj(s)
	}
	for lag := 3; lag < 20; lag++ {
		var c complex128
		for i := 0; i+lag < len(p); i++ {
			c += p[i+lag] * cmplx.Conj(p[i])
		}
		if cmplx.Abs(c) > 0.6*cmplx.Abs(peak) {
			t.Fatalf("autocorrelation at lag %d too high: %v vs peak %v", lag, cmplx.Abs(c), cmplx.Abs(peak))
		}
	}
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	bits := []byte{0, 1, 1, 0, 1, 0, 0, 1}
	got := DemodulateBPSK(ModulateBPSK(bits))
	if !bytes.Equal(got, bits) {
		t.Fatalf("round trip: %v -> %v", bits, got)
	}
}

func TestModulateRejectsBadBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ModulateBPSK([]byte{2})
}

func TestBytesBitsRoundTrip(t *testing.T) {
	data := []byte{0x00, 0xff, 0xa5, 0x3c}
	bits := []byte{
		0, 0, 0, 0, 0, 0, 0, 0,
		1, 1, 1, 1, 1, 1, 1, 1,
		1, 0, 1, 0, 0, 1, 0, 1,
		0, 0, 1, 1, 1, 1, 0, 0,
	}
	back, err := BitsToBytes(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("round trip %x -> %x", data, back)
	}
	if _, err := BitsToBytes([]byte{0, 1, 0}); err == nil {
		t.Fatal("expected error for non-multiple of 8")
	}
	if _, err := BitsToBytes(bytes.Repeat([]byte{3}, 8)); err == nil {
		t.Fatal("expected error for invalid bit")
	}
}

// TestQuickBytesBitsRoundTrip packs the payload bits of a modulated
// frame back into bytes: BitsToBytes inverts FrameSamplesInto's bit
// order, most significant bit first.
func TestQuickBytesBitsRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := DemodulateBPSK(FrameSamples(data))[PreambleBits:]
		back, err := BitsToBytes(bits[:8*len(data)])
		return err == nil && bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameDeframeRoundTrip(t *testing.T) {
	payload := []byte("hello, interference alignment")
	bits := DemodulateBPSK(FrameSamples(payload))
	if len(bits) != FrameLenBits(len(payload)) {
		t.Fatalf("frame length %d want %d", len(bits), FrameLenBits(len(payload)))
	}
	got, err := DeframeBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestDeframeDetectsCorruption(t *testing.T) {
	payload := []byte("packet data here")
	bits := DemodulateBPSK(FrameSamples(payload))
	// Flip a payload bit.
	bits[PreambleBits+5] ^= 1
	if _, err := DeframeBits(bits); !errors.Is(err, ErrBadCRC) {
		t.Fatalf("want ErrBadCRC, got %v", err)
	}
	// Truncated frame.
	if _, err := DeframeBits(bits[:10]); err == nil {
		t.Fatal("expected error for short frame")
	}
	// Non-byte-aligned body.
	if _, err := DeframeBits(bits[:len(bits)-3]); err == nil {
		t.Fatal("expected error for misaligned frame")
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		got, err := DeframeBits(DemodulateBPSK(FrameSamples(payload)))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyCFORotates(t *testing.T) {
	samples := []complex128{1, 1, 1, 1}
	rate := 1e6
	cfo := 1e3
	out := ApplyCFO(samples, cfo, rate, 0)
	// First sample: zero phase.
	if cmplx.Abs(out[0]-1) > 1e-12 {
		t.Fatalf("sample 0 rotated: %v", out[0])
	}
	// Phase advances linearly.
	wantPhase := 2 * math.Pi * cfo / rate
	if got := cmplx.Phase(out[1]); math.Abs(got-wantPhase) > 1e-9 {
		t.Fatalf("phase step %v want %v", got, wantPhase)
	}
	// Magnitude preserved.
	for i, s := range out {
		if math.Abs(cmplx.Abs(s)-1) > 1e-12 {
			t.Fatalf("sample %d magnitude changed", i)
		}
	}
	// startSample shifts the initial phase.
	out2 := ApplyCFO(samples, cfo, rate, 10)
	if cmplx.Abs(out2[0]-cmplx.Exp(complex(0, wantPhase*10))) > 1e-9 {
		t.Fatalf("startSample phase wrong")
	}
}

func TestCFOCorrectInvertsApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]complex128, 64)
	for i := range samples {
		samples[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	rotated := ApplyCFO(samples, 740, 1e6, 17)
	back := CorrectCFO(rotated, 740, 1e6, 17)
	for i := range samples {
		if cmplx.Abs(back[i]-samples[i]) > 1e-9 {
			t.Fatalf("sample %d not restored", i)
		}
	}
}

func TestEstimateCFO(t *testing.T) {
	ref := Preamble()
	rate := 1e6
	for _, cfo := range []float64{0, 200, -350, 1000} {
		rx := ApplyCFO(ref, cfo, rate, 0)
		got := EstimateCFO(rx, ref, rate)
		if math.Abs(got-cfo) > 1 {
			t.Fatalf("cfo %v: estimated %v", cfo, got)
		}
	}
}

func TestEstimateCFOWithNoise(t *testing.T) {
	ref := Preamble()
	rate := 1e6
	rng := rand.New(rand.NewSource(2))
	cfo := 500.0
	// Over a 32-sample preamble the estimator's standard deviation is
	// roughly sqrt(noise)*rate/(2*pi*lag*sqrt(lag)); average several
	// packets to test the mean instead of one high-variance draw.
	var sum float64
	const trials = 30
	for i := 0; i < trials; i++ {
		rx := AddNoise(ApplyCFO(ref, cfo, rate, 0), 0.01, rng)
		sum += EstimateCFO(rx, ref, rate)
	}
	got := sum / trials
	if math.Abs(got-cfo) > 150 {
		t.Fatalf("noisy cfo estimate %v want ~%v", got, cfo)
	}
}

func TestDetectPreamble(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payload := []byte("x")
	frame := FrameSamples(payload)
	// Prepend noise-only gap of 17 samples.
	gap := AddNoise(make([]complex128, 17), 0.01, rng)
	rx := append(gap, AddNoise(frame, 0.01, rng)...)
	off, corr := DetectPreamble(rx)
	if off != 17 {
		t.Fatalf("detected offset %d want 17 (corr %v)", off, corr)
	}
	if corr < 0.9 {
		t.Fatalf("correlation too low: %v", corr)
	}
	// Pure noise: correlation stays low.
	noise := AddNoise(make([]complex128, 100), 1, rng)
	if _, c := DetectPreamble(noise); c > 0.6 {
		t.Fatalf("noise correlation too high: %v", c)
	}
	// Too-short input.
	if off, _ := DetectPreamble(noise[:3]); off != -1 {
		t.Fatalf("short input should return -1, got %d", off)
	}
}

func TestDetectPreambleUnderCFO(t *testing.T) {
	// Detection must survive a realistic frequency offset across the
	// 32-sample preamble (paper: alignment needs no synchronization).
	rng := rand.New(rand.NewSource(4))
	frame := FrameSamples([]byte("y"))
	rotated := ApplyCFO(frame, 800, 1e6, 0)
	rx := append(make([]complex128, 9), AddNoise(rotated, 0.02, rng)...)
	off, corr := DetectPreamble(rx)
	if off != 9 || corr < 0.8 {
		t.Fatalf("detection under CFO failed: off=%d corr=%v", off, corr)
	}
}

func TestAddNoisePower(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 10000
	silent := make([]complex128, n)
	noisy := AddNoise(silent, 0.25, rng)
	var p float64
	for _, s := range noisy {
		p += real(s)*real(s) + imag(s)*imag(s)
	}
	p /= float64(n)
	if p < 0.2 || p > 0.3 {
		t.Fatalf("noise power %v want ~0.25", p)
	}
}

func TestMeasureEVMSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	clean := ModulateBPSK(randomBits(rng, 4000))
	for _, wantSNR := range []float64{10, 100, 1000} {
		noisy := AddNoise(clean, 1/wantSNR, rng)
		got := MeasureEVMSNR(noisy)
		if got < 0.6*wantSNR || got > 1.6*wantSNR {
			t.Fatalf("EVM SNR at %v: got %v", wantSNR, got)
		}
	}
	if !math.IsInf(MeasureEVMSNR(ModulateBPSK([]byte{0, 1})), 1) {
		t.Fatal("noiseless SNR should be +Inf")
	}
	if MeasureEVMSNR(nil) != 0 {
		t.Fatal("empty SNR should be 0")
	}
}

func TestBitErrors(t *testing.T) {
	if n := BitErrors([]byte{0, 1, 1}, []byte{0, 0, 1}); n != 1 {
		t.Fatalf("bit errors %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BitErrors([]byte{0}, []byte{0, 1})
}

func TestEndToEndModemAtSNR(t *testing.T) {
	// A complete frame should decode error-free at 20 dB SNR.
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 200)
	rng.Read(payload)
	tx := FrameSamples(payload)
	rx := AddNoise(tx, 0.01, rng) // 20 dB
	bits := DemodulateBPSK(rx)
	got, err := DeframeBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted at 20 dB")
	}
}

func TestBPSKBERCurveShape(t *testing.T) {
	// Bit error rate must decrease monotonically with SNR and roughly
	// match Q(sqrt(2 SNR)) for BPSK.
	rng := rand.New(rand.NewSource(8))
	const nbits = 20000
	bits := randomBits(rng, nbits)
	tx := ModulateBPSK(bits)
	var prev float64 = 1
	for _, snrDB := range []float64{0, 4, 8} {
		snr := math.Pow(10, snrDB/10)
		rx := AddNoise(tx, 1/snr, rng)
		ber := float64(BitErrors(DemodulateBPSK(rx), bits)) / nbits
		if ber > prev+0.01 {
			t.Fatalf("BER not decreasing at %v dB: %v after %v", snrDB, ber, prev)
		}
		theory := 0.5 * math.Erfc(math.Sqrt(snr))
		if theory > 1e-4 && (ber < theory/4 || ber > theory*4) {
			t.Fatalf("BER at %v dB: got %v theory %v", snrDB, ber, theory)
		}
		prev = ber
	}
}

func randomBits(rng *rand.Rand, n int) []byte {
	bits := make([]byte, n)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	return bits
}

// AddNoise returns samples plus i.i.d. complex Gaussian noise of the given
// power (variance split evenly between real and imaginary parts).
func AddNoise(samples []complex128, noisePower float64, rng *rand.Rand) []complex128 {
	out := make([]complex128, len(samples))
	sigma := math.Sqrt(noisePower / 2)
	for i, s := range samples {
		out[i] = s + complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return out
}

// BitErrors counts positions where a and b differ; slices must have equal
// length.
func BitErrors(a, b []byte) int {
	if len(a) != len(b) {
		panic("sig: BitErrors length mismatch")
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
