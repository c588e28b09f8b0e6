package phy

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/radio"
	"iaclan/internal/sig"
)

const fs = 1e6

func testWorld(seed int64, cfoStd float64) *channel.World {
	p := channel.DefaultParams()
	p.CFOStdHz = cfoStd
	p.ShadowSigmaDB = 0
	return channel.NewWorld(p, seed)
}

func TestPrecodeFrameSpreadsAcrossAntennas(t *testing.T) {
	v := cmplxmat.Vector{complex(0.6, 0), complex(0, 0.8)}
	x := PrecodeFrame([]byte("a"), v, 2)
	if len(x) != 2 {
		t.Fatalf("antenna count %d", len(x))
	}
	s := sig.FrameSamples([]byte("a"))
	if len(x[0]) != len(s) {
		t.Fatalf("length %d want %d", len(x[0]), len(s))
	}
	for tt := range s {
		if cmplx.Abs(x[0][tt]-2*v[0]*s[tt]) > 1e-12 {
			t.Fatalf("antenna 0 sample %d wrong", tt)
		}
		if cmplx.Abs(x[1][tt]-2*v[1]*s[tt]) > 1e-12 {
			t.Fatalf("antenna 1 sample %d wrong", tt)
		}
	}
}

func TestProjectRemovesOrthogonalInterference(t *testing.T) {
	// Build a 2-antenna stream: desired along [1,0], interference along
	// [0,1]. Projecting on [1,0] must null the interference exactly.
	n := 50
	rx := make([][]complex128, 2)
	rx[0] = make([]complex128, n)
	rx[1] = make([]complex128, n)
	for tt := 0; tt < n; tt++ {
		rx[0][tt] = complex(float64(tt), 0)       // desired
		rx[1][tt] = complex(0, float64(100+3*tt)) // interference
	}
	z := Project(rx, cmplxmat.Vector{1, 0})
	for tt := 0; tt < n; tt++ {
		if cmplx.Abs(z[tt]-complex(float64(tt), 0)) > 1e-12 {
			t.Fatalf("sample %d leaked interference: %v", tt, z[tt])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	Project(rx, cmplxmat.Vector{1})
}

func TestEqualizeAndTrackRemovesGainAndResidualCFO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bits := make([]byte, 2000)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	clean := sig.ModulateBPSK(bits)
	g := complex(0.7, -1.1)
	z := make([]complex128, len(clean))
	// Residual CFO of 30 Hz at 1 MHz after coarse correction.
	for tt := range clean {
		rot := cmplx.Exp(complex(0, 2*math.Pi*30*float64(tt)/fs))
		z[tt] = clean[tt] * g * rot
	}
	eq := EqualizeAndTrack(z, g, 0.15)
	errs := 0
	for i, b := range sig.DemodulateBPSK(eq) {
		if b != bits[i] {
			errs++
		}
	}
	if errs > len(bits)/100 {
		t.Fatalf("%d bit errors after tracking", errs)
	}
	// Zero gain: passthrough, no crash.
	if out := EqualizeAndTrack(z, 0, 0.15); len(out) != len(z) {
		t.Fatal("zero-gain path broken")
	}
}

func TestEstimateLinkAccuracy(t *testing.T) {
	w := testWorld(2, 300)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	m := radio.NewMedium(w, fs, 0.01, 3)
	est := EstimateLink(m, tx, rx, 8)
	hTrue := w.Channel(tx, rx)
	relErr := hTrue.Sub(est.H).FrobeniusNorm() / hTrue.FrobeniusNorm()
	if relErr > 0.05 {
		t.Fatalf("channel estimate error %v", relErr)
	}
	cfoTrue := w.CFO(tx, rx)
	if math.Abs(est.CFO-cfoTrue) > 40 {
		t.Fatalf("CFO estimate %v want %v", est.CFO, cfoTrue)
	}
}

func TestEstimateLinkRepImprovesAccuracy(t *testing.T) {
	w := testWorld(4, 0)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	hTrue := w.Channel(tx, rx)
	errAt := func(rep int, seed int64) float64 {
		m := radio.NewMedium(w, fs, 0.05, seed)
		var total float64
		const trials = 10
		for i := 0; i < trials; i++ {
			est := EstimateLink(m, tx, rx, rep)
			total += hTrue.Sub(est.H).FrobeniusNorm() / hTrue.FrobeniusNorm()
		}
		return total / trials
	}
	if e1, e8 := errAt(1, 5), errAt(8, 6); e8 >= e1 {
		t.Fatalf("rep=8 error %v not below rep=1 error %v", e8, e1)
	}
}

func TestEstimateLinkValidation(t *testing.T) {
	w := testWorld(3, 0)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	m := radio.NewMedium(w, fs, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EstimateLink(m, tx, rx, 0)
}

func TestSingleLinkEndToEnd(t *testing.T) {
	// One client, one AP, one packet along a random encoding vector:
	// estimate, transmit, project, decode.
	w := testWorld(5, 200)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	m := radio.NewMedium(w, fs, 0.01, 7)
	est := EstimateLink(m, tx, rx, 8)

	rng := rand.New(rand.NewSource(8))
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	payload := make([]byte, 100)
	rng.Read(payload)
	burst := radio.Burst{From: tx, Start: 13, Samples: PrecodeFrame(payload, v, 1)}
	dur := burst.Len() + 40
	y := m.Receive(rx, dur, []radio.Burst{burst})

	// Matched filter (no interference): project on estimated direction.
	dir := est.H.MulVec(v)
	wvec := dir.Normalize()
	z := Project(y, wvec)
	g := wvec.Dot(dir)
	res, err := DecodeProjected(z, g, len(payload), fs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("payload mismatch")
	}
	if res.Offset != 13 {
		t.Fatalf("offset %d want 13", res.Offset)
	}
	if res.SNR < 10 {
		t.Fatalf("SNR %v too low", res.SNR)
	}
}

func TestDecodeProjectedNoPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	noise := make([]complex128, 500)
	for i := range noise {
		noise[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if _, err := DecodeProjected(noise, 1, 10, fs, 0.7); err == nil {
		t.Fatal("expected failure on pure noise")
	}
	// Window too short for the claimed payload length.
	short := sig.FrameSamples([]byte("ab"))
	if _, err := DecodeProjected(short, 1, 5000, fs, 0.5); err == nil {
		t.Fatal("expected failure on truncated window")
	}
}

func TestCancelRemovesKnownPacket(t *testing.T) {
	w := testWorld(6, 250)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	m := radio.NewMedium(w, fs, 0.001, 11)
	est := EstimateLink(m, tx, rx, 8)

	rng := rand.New(rand.NewSource(12))
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	payload := make([]byte, 80)
	rng.Read(payload)
	burst := radio.Burst{From: tx, Start: 20, Samples: PrecodeFrame(payload, v, 1)}
	dur := burst.Len() + 40
	y := m.Receive(rx, dur, []radio.Burst{burst})

	before := totalEnergy(y)
	residual, start := CancelWithJitterSearch(y, payload, v, 1, est.H, est.CFO, fs, 20, 0)
	after := totalEnergy(residual)
	if after > before/50 {
		t.Fatalf("cancellation left %.2f%% of energy", 100*after/before)
	}
	if start != 20 {
		t.Fatalf("cancelled at sample %d, want the nominal 20", start)
	}
}

func TestCancelWithJitterSearchFindsOffset(t *testing.T) {
	w := testWorld(7, 150)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	m := radio.NewMedium(w, fs, 0.001, 13)
	est := EstimateLink(m, tx, rx, 8)

	rng := rand.New(rand.NewSource(14))
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	payload := make([]byte, 60)
	rng.Read(payload)
	trueStart := 23
	burst := radio.Burst{From: tx, Start: trueStart, Samples: PrecodeFrame(payload, v, 1)}
	dur := burst.Len() + 60
	y := m.Receive(rx, dur, []radio.Burst{burst})

	residual, found := CancelWithJitterSearch(y, payload, v, 1, est.H, est.CFO, fs, 20, 5)
	if found != trueStart {
		t.Fatalf("jitter search found %d want %d", found, trueStart)
	}
	if totalEnergy(residual) > totalEnergy(y)/50 {
		t.Fatal("jitter-searched cancellation ineffective")
	}
}

func TestCancelValidation(t *testing.T) {
	// cancelInto, the subtraction behind CancelWithJitterSearch.
	a := [][]complex128{{1, 2}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		cancelInto([][]complex128{{0, 0}}, a, [][]complex128{{1, 2, 3}})
	}()
	// Zero reconstruction: alpha 0, residual = rx.
	res := [][]complex128{{0, 0}}
	if alpha := cancelInto(res, a, [][]complex128{{0, 0}}); alpha != 0 || res[0][0] != 1 {
		t.Fatal("zero reconstruction mishandled")
	}
	// A scaled copy: the least-squares fit finds the scale and leaves
	// nothing behind.
	if alpha := cancelInto(res, [][]complex128{{2i, 4i}}, a); cmplx.Abs(alpha-2i) > 1e-15 || totalEnergy(res) > 1e-28 {
		t.Fatalf("alpha %v, residual %v", alpha, res)
	}
}

// TestIACThreePacketsSignalLevel is the repository's headline integration
// test: the full Fig. 4b pipeline at the sample level. Two unsynchronized
// 2-antenna clients with distinct oscillator offsets upload three packets
// to two APs through Rayleigh channels with noise. AP0 decodes packet 0
// behind aligned interference, "ships it over the Ethernet", and AP1
// cancels it and decodes packets 1 and 2.
func TestIACThreePacketsSignalLevel(t *testing.T) {
	w := testWorld(8, 300)
	c0 := w.AddNode(0, 0)
	c1 := w.AddNode(0, 6)
	ap0 := w.AddNode(5, 2)
	ap1 := w.AddNode(5, 4)
	m := radio.NewMedium(w, fs, 0.003, 17)

	// Phase 1: training (association / acks in the paper's MAC).
	ests := EstimateAllLinks(m, []*channel.Node{c0, c1}, []*channel.Node{ap0, ap1}, 8)
	estCS := core.ChannelSet(ChannelSetFromEstimates(ests))

	// Phase 2: solve alignment on the ESTIMATED channels.
	rng := rand.New(rand.NewSource(18))
	plan, err := core.SolveUplinkThree(estCS, rng)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 3: concurrent transmission with start jitter.
	payloads := make([][]byte, 3)
	for i := range payloads {
		payloads[i] = make([]byte, 120)
		rng.Read(payloads[i])
	}
	amp := 1.0
	starts := []int{10, 10, 14} // client 1 keys up 4 samples late
	// Client 0 sends packets 0 and 1 summed on its antennas; client 1
	// sends packet 2.
	x0a := PrecodeFrame(payloads[0], plan.Encoding[0], amp/math.Sqrt2)
	x0b := PrecodeFrame(payloads[1], plan.Encoding[1], amp/math.Sqrt2)
	x0 := make([][]complex128, 2)
	for a := 0; a < 2; a++ {
		x0[a] = make([]complex128, len(x0a[a]))
		for tt := range x0[a] {
			x0[a][tt] = x0a[a][tt] + x0b[a][tt]
		}
	}
	bursts := []radio.Burst{
		{From: c0, Start: starts[0], Samples: x0},
		{From: c1, Start: starts[2], Samples: PrecodeFrame(payloads[2], plan.Encoding[2], amp)},
	}
	dur := len(x0[0]) + 60
	y0 := m.Receive(ap0, dur, bursts)
	y1 := m.Receive(ap1, dur, bursts)

	// Phase 4: AP0 decodes packet 0 by projecting orthogonal to the
	// aligned interference (estimated directions of packets 1 and 2).
	d1 := ests[0][0].H.MulVec(plan.Encoding[1])
	d2 := ests[1][0].H.MulVec(plan.Encoding[2])
	w0 := cmplxmat.OrthogonalComplementVector(2, 1e-9, d1, d2)
	if w0 == nil {
		t.Fatal("no decoding vector at AP0 (alignment failed)")
	}
	g0 := w0.Dot(ests[0][0].H.MulVec(plan.Encoding[0])) * complex(amp/math.Sqrt2, 0)
	res0, err := DecodeProjected(Project(y0, w0), g0, len(payloads[0]), fs, 0.5)
	if err != nil {
		t.Fatalf("AP0 decode: %v", err)
	}
	if !bytes.Equal(res0.Payload, payloads[0]) {
		t.Fatal("AP0 payload mismatch")
	}

	// Phase 5: AP1 cancels packet 0 (received over the wire) and decodes
	// packets 1 and 2 by zero forcing.
	y1res, _ := CancelWithJitterSearch(y1, res0.Payload, plan.Encoding[0], amp/math.Sqrt2,
		ests[0][1].H, ests[0][1].CFO, fs, 10, 6)

	e1 := ests[0][1].H.MulVec(plan.Encoding[1])
	e2 := ests[1][1].H.MulVec(plan.Encoding[2])
	w1 := cmplxmat.OrthogonalComplementVector(2, 1e-9, e2)
	w2 := cmplxmat.OrthogonalComplementVector(2, 1e-9, e1)
	if w1 == nil || w2 == nil {
		t.Fatal("no ZF vectors at AP1")
	}
	g1 := w1.Dot(e1) * complex(amp/math.Sqrt2, 0)
	g2 := w2.Dot(e2) * complex(amp, 0)
	dec1, err := DecodeProjected(Project(y1res, w1), g1, len(payloads[1]), fs, 0.4)
	if err != nil {
		t.Fatalf("AP1 decode pkt1: %v", err)
	}
	dec2, err := DecodeProjected(Project(y1res, w2), g2, len(payloads[2]), fs, 0.4)
	if err != nil {
		t.Fatalf("AP1 decode pkt2: %v", err)
	}
	if !bytes.Equal(dec1.Payload, payloads[1]) {
		t.Fatal("AP1 payload 1 mismatch")
	}
	if !bytes.Equal(dec2.Payload, payloads[2]) {
		t.Fatal("AP1 payload 2 mismatch")
	}
	// All three packets recovered: IAC delivered 3 packets with 2-antenna
	// nodes — beyond the antennas-per-AP limit.
}

// TestAlignmentSurvivesCFOSignalLevel verifies the Section 6(a) claim at
// the sample level: with zero noise and perfect channel knowledge but
// distinct nonzero frequency offsets, the projection at AP0 still nulls
// the aligned interference to numerical precision at EVERY sample.
func TestAlignmentSurvivesCFOSignalLevel(t *testing.T) {
	p := channel.DefaultParams()
	p.CFOStdHz = 800 // strong offsets
	p.ShadowSigmaDB = 0
	w := channel.NewWorld(p, 9)
	c0 := w.AddNode(0, 0)
	c1 := w.AddNode(0, 6)
	ap0 := w.AddNode(5, 2)
	ap1 := w.AddNode(5, 4)
	m := radio.NewMedium(w, fs, 0, 19) // no noise

	trueCS := core.NewChannelSet(2, 2)
	for i, c := range []*channel.Node{c0, c1} {
		for j, ap := range []*channel.Node{ap0, ap1} {
			trueCS[i][j] = w.Channel(c, ap)
		}
	}
	rng := rand.New(rand.NewSource(20))
	plan, err := core.SolveUplinkThree(trueCS, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Only interference transmits: packets 1 (client 0) and 2 (client 1).
	payload := make([]byte, 100)
	rng.Read(payload)
	bursts := []radio.Burst{
		{From: c0, Samples: PrecodeFrame(payload, plan.Encoding[1], 1)},
		{From: c1, Samples: PrecodeFrame(payload, plan.Encoding[2], 1)},
	}
	dur := bursts[0].Len()
	y := m.Receive(ap0, dur, bursts)
	d1 := trueCS[0][0].MulVec(plan.Encoding[1])
	w0 := cmplxmat.OrthogonalComplementVector(2, 1e-9, d1)
	z := Project(y, w0)
	// Despite both interferers rotating at different CFO rates, the
	// projection output must be ~zero at every sample...
	var maxLeak float64
	for _, s := range z {
		if a := cmplx.Abs(s); a > maxLeak {
			maxLeak = a
		}
	}
	// ...relative to the raw received power.
	var rxMag float64
	for _, s := range y[0] {
		if a := cmplx.Abs(s); a > rxMag {
			rxMag = a
		}
	}
	if maxLeak > 1e-9*rxMag {
		t.Fatalf("interference leaked through projection: %v (rx %v)", maxLeak, rxMag)
	}
}

// totalEnergy is the sum of |x|^2 over every antenna and sample.
func totalEnergy(x [][]complex128) float64 {
	var e float64
	for a := range x {
		for _, s := range x[a] {
			e += real(s)*real(s) + imag(s)*imag(s)
		}
	}
	return e
}

func TestTotalEnergy(t *testing.T) {
	if e := totalEnergy([][]complex128{{3, 4i}}); math.Abs(e-25) > 1e-12 {
		t.Fatalf("energy %v", e)
	}
}
