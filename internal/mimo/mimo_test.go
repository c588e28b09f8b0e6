package mimo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/stats"
)

// ws is the tests' workspace for the *WS forms. No test resets it.
var ws = cmplxmat.NewWorkspace()

// waterfill returns waterfillInto's allocation in a fresh slice.
func waterfill(gains []float64, totalPower float64) []float64 {
	powers := make([]float64, len(gains))
	waterfillInto(powers, gains, totalPower, make([]int, len(gains)))
	return powers
}

// activeStreams returns how many streams of p carry positive power.
func activeStreams(p Precoding) int {
	n := 0
	for _, pw := range p.Powers {
		if pw > 0 {
			n++
		}
	}
	return n
}

// equalPowerRate returns the rate with equal power across all
// eigenmodes, the simpler strategy 802.11n devices use without
// waterfilling: at most the eigenmode rate, with the gap closing at
// high SNR.
func equalPowerRate(h *cmplxmat.Matrix, totalPower, noise float64) float64 {
	_, s, _ := h.SVDWS(ws)
	active := 0
	for _, sv := range s {
		if sv > 0 {
			active++
		}
	}
	if active == 0 {
		return 0
	}
	per := totalPower / float64(active)
	var r float64
	for _, sv := range s {
		if sv > 0 {
			r += stats.ShannonRate(per * sv * sv / noise)
		}
	}
	return r
}

func TestWaterfillConservesPower(t *testing.T) {
	cases := [][]float64{
		{1, 1, 1},
		{10, 1, 0.1},
		{100, 0.001},
		{5},
	}
	for _, gains := range cases {
		for _, total := range []float64{0.1, 1, 10} {
			p := waterfill(gains, total)
			var sum float64
			for i, pw := range p {
				if pw < 0 {
					t.Fatalf("gains %v: negative power %v", gains, pw)
				}
				if gains[i] == 0 && pw != 0 {
					t.Fatalf("power on zero-gain channel")
				}
				sum += pw
			}
			if math.Abs(sum-total) > 1e-9 {
				t.Fatalf("gains %v total %v: allocated %v", gains, total, sum)
			}
		}
	}
}

func TestWaterfillEdgeCases(t *testing.T) {
	if p := waterfill([]float64{0, 0}, 1); p[0] != 0 || p[1] != 0 {
		t.Fatalf("zero gains: %v", p)
	}
	if p := waterfill([]float64{1, 2}, 0); p[0] != 0 || p[1] != 0 {
		t.Fatalf("zero power: %v", p)
	}
	if p := waterfill(nil, 1); len(p) != 0 {
		t.Fatalf("empty gains: %v", p)
	}
}

func TestWaterfillPrefersStrongChannels(t *testing.T) {
	// At low power, everything goes to the best channel.
	p := waterfill([]float64{10, 0.01}, 0.05)
	if p[1] != 0 {
		t.Fatalf("weak channel got power at low budget: %v", p)
	}
	if math.Abs(p[0]-0.05) > 1e-12 {
		t.Fatalf("strong channel allocation: %v", p)
	}
	// At high power, allocations order by gain.
	p = waterfill([]float64{10, 1}, 100)
	if p[0] <= p[1] {
		t.Fatalf("expected more power on stronger channel: %v", p)
	}
}

func TestWaterfillOptimalityAgainstPerturbations(t *testing.T) {
	// Property: shifting epsilon of power between any two active channels
	// cannot increase the sum rate.
	gains := []float64{8, 3, 1, 0.2}
	total := 4.0
	p := waterfill(gains, total)
	rate := func(powers []float64) float64 {
		var r float64
		for i, pw := range powers {
			r += stats.ShannonRate(pw * gains[i])
		}
		return r
	}
	base := rate(p)
	const eps = 1e-4
	for i := range gains {
		for j := range gains {
			if i == j || p[i] < eps {
				continue
			}
			q := append([]float64(nil), p...)
			q[i] -= eps
			q[j] += eps
			if rate(q) > base+1e-9 {
				t.Fatalf("perturbation %d->%d improved rate: %v > %v", i, j, rate(q), base)
			}
		}
	}
}

func TestQuickWaterfillConserves(t *testing.T) {
	f := func(rawGains []float64, rawTotal float64) bool {
		var gains []float64
		for _, g := range rawGains {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				continue
			}
			gains = append(gains, math.Min(math.Abs(g), 1e6))
		}
		if len(gains) == 0 {
			return true
		}
		total := math.Min(math.Abs(rawTotal), 1e6)
		p := waterfill(gains, total)
		var sum float64
		for _, pw := range p {
			if pw < -1e-12 {
				return false
			}
			sum += pw
		}
		if total == 0 {
			return sum == 0
		}
		hasPositive := false
		for _, g := range gains {
			if g > 0 {
				hasPositive = true
			}
		}
		if !hasPositive {
			return sum == 0
		}
		return math.Abs(sum-total) < 1e-6*(1+total)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEigenmodeRateMatchesCapacityFormula(t *testing.T) {
	// For an identity channel, capacity = M * log2(1 + P/M / noise)
	// (equal gains, waterfilling splits evenly).
	h := cmplxmat.Diagonal(1, 1)
	rate := EigenmodeRateWS(ws, h, 2, 0.01)
	want := 2 * stats.ShannonRate(1/0.01)
	if math.Abs(rate-want) > 1e-9 {
		t.Fatalf("identity rate %v want %v", rate, want)
	}
}

func TestEigenmodeStreamsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		h := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(10, 0))
		p := EigenmodeWS(ws, h, 1, 0.001)
		if len(p.TxVectors) != 2 || len(p.RxVectors) != 2 {
			t.Fatalf("stream counts %d %d", len(p.TxVectors), len(p.RxVectors))
		}
		for i := range p.TxVectors {
			if math.Abs(p.TxVectors[i].Norm()-1) > 1e-8 {
				t.Fatalf("tx vector %d not unit", i)
			}
			if math.Abs(p.RxVectors[i].Norm()-1) > 1e-8 {
				t.Fatalf("rx vector %d not unit", i)
			}
		}
		// The channel maps tx vector i onto rx vector i scaled by the
		// singular value; cross terms vanish: u_j^H H v_i = 0 for i != j.
		for i := range p.TxVectors {
			for j := range p.RxVectors {
				c := p.RxVectors[j].Dot(h.MulVec(p.TxVectors[i]))
				mag := math.Hypot(real(c), imag(c))
				if i == j {
					if mag < 1e-9 && p.Gains[i] > 1e-9 {
						t.Fatalf("diagonal gain %d vanished", i)
					}
				} else if mag > 1e-7*h.MaxAbs() {
					t.Fatalf("cross talk %d->%d: %v", i, j, mag)
				}
			}
		}
		// At high SNR both streams are active for a generic channel.
		if activeStreams(p) != 2 {
			t.Fatalf("active streams %d", activeStreams(p))
		}
	}
}

func TestEigenmodeBeatsEqualPower(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		h := cmplxmat.RandomGaussian(rng, 2, 2)
		wf := EigenmodeRateWS(ws, h, 1, 0.1)
		eq := equalPowerRate(h, 1, 0.1)
		if wf < eq-1e-9 {
			t.Fatalf("trial %d: waterfilling %v below equal power %v", trial, wf, eq)
		}
	}
}

func TestEigenmodeRateIncreasesWithPower(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := cmplxmat.RandomGaussian(rng, 2, 2)
	prev := 0.0
	for _, pw := range []float64{0.1, 1, 10, 100} {
		r := EigenmodeRateWS(ws, h, pw, 0.1)
		if r <= prev {
			t.Fatalf("rate not increasing: %v after %v at power %v", r, prev, pw)
		}
		prev = r
	}
}

func TestEigenmodeNoisePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EigenmodeWS(ws, cmplxmat.Diagonal(1, 1), 1, 0)
}

func TestBestAPSelects(t *testing.T) {
	weak := cmplxmat.Diagonal(1, 1).Scale(complex(0.1, 0))
	strong := cmplxmat.Diagonal(1, 1).Scale(complex(10, 0))
	idx, rate := BestAPWS(ws, []*cmplxmat.Matrix{weak, strong}, 1, 0.01)
	if idx != 1 {
		t.Fatalf("picked AP %d", idx)
	}
	if rate != EigenmodeRateWS(ws, strong, 1, 0.01) {
		t.Fatalf("rate %v", rate)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty channels")
		}
	}()
	BestAPWS(ws, nil, 1, 0.01)
}

func TestBestAPDiversityGain(t *testing.T) {
	// Selection over two i.i.d. APs must beat always using AP 0 on
	// average — the diversity the paper grants the 802.11 baseline.
	rng := rand.New(rand.NewSource(4))
	var fixed, selected float64
	const trials = 200
	for i := 0; i < trials; i++ {
		h0 := cmplxmat.RandomGaussian(rng, 2, 2)
		h1 := cmplxmat.RandomGaussian(rng, 2, 2)
		fixed += EigenmodeRateWS(ws, h0, 1, 0.1)
		_, r := BestAPWS(ws, []*cmplxmat.Matrix{h0, h1}, 1, 0.1)
		selected += r
	}
	if selected <= fixed {
		t.Fatalf("no diversity gain: selected %v fixed %v", selected, fixed)
	}
}

func TestRankDeficientChannel(t *testing.T) {
	// A rank-1 channel supports one stream; rate must be finite and the
	// zero mode must get no power at low-to-moderate budgets.
	h := cmplxmat.New(2, 2)
	for i := 0; i < 4; i++ {
		h.SetAt(i/2, i%2, 1)
	}
	p := EigenmodeWS(ws, h, 1, 0.1)
	if activeStreams(p) != 1 {
		t.Fatalf("active streams %d want 1", activeStreams(p))
	}
	if p.Rate() <= 0 {
		t.Fatal("rank-1 rate should be positive")
	}
	if equalPowerRate(cmplxmat.New(2, 2), 1, 0.1) != 0 {
		t.Fatal("zero channel rate must be 0")
	}
}

// TestEigenmodeRate2MatchesGeneral runs the 2x2 baseline rate, which
// waterfills the closed-form singular values (SingularValues2), beside
// the same waterfilling on SVDWS's values, over 10^4 Gaussian channels
// with the noise drawn from 10^-3 to 10^2, so that both strong and
// weak second modes occur. The rates agree to 1e-12 relative, the
// waterfill drops the weak mode on the same inputs, and the rate is
// EigenmodeWS(...).Rate()'s bits (EigenmodeWS runs the closed-form
// SVD2, whose values are SingularValues2's).
func TestEigenmodeRate2MatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	w := cmplxmat.NewWorkspace()
	dropped, kept := 0, 0
	for i := 0; i < 10000; i++ {
		h := cmplxmat.RandomGaussian(rng, 2, 2)
		noise := math.Pow(10, -3+5*rng.Float64())
		got := EigenmodeRateWS(w, h, 1, noise)
		if full := EigenmodeWS(w, h, 1, noise).Rate(); math.Float64bits(got) != math.Float64bits(full) {
			t.Fatalf("channel %d: rate %v, EigenmodeWS's %v", i, got, full)
		}
		_, s, _ := h.SVDWS(w)
		general := Precoding{Powers: make([]float64, 2), Gains: make([]float64, 2)}
		general.waterfill(s, 1, noise, make([]int, 2))
		if d := math.Abs(got - general.Rate()); d > 1e-12*general.Rate() {
			t.Fatalf("channel %d: rate %v, SVDWS path %v", i, got, general.Rate())
		}
		s0, s1, _ := h.SingularValues2()
		closed := Precoding{Powers: make([]float64, 2), Gains: make([]float64, 2)}
		closed.waterfill([]float64{s0, s1}, 1, noise, make([]int, 2))
		if (closed.Powers[1] == 0) != (general.Powers[1] == 0) {
			t.Fatalf("channel %d: weak mode power %v, SVDWS path %v", i, closed.Powers[1], general.Powers[1])
		}
		if closed.Powers[1] == 0 {
			dropped++
		} else {
			kept++
		}
		w.Reset()
	}
	t.Logf("weak mode dropped on %d channels, kept on %d", dropped, kept)
	if dropped == 0 || kept == 0 {
		t.Fatalf("the draw never exercised one side of the waterfill: %d dropped, %d kept", dropped, kept)
	}
}

// BenchmarkEigenmodeRate2 times one 2x2 EigenmodeRateWS, the rate the
// 802.11-MIMO baseline (BestAPWS) takes per candidate AP, over 16
// Gaussian channels cycled, at an SNR where the weak mode is sometimes
// dropped.
func BenchmarkEigenmodeRate2(b *testing.B) {
	rng := rand.New(rand.NewSource(149))
	hs := make([]*cmplxmat.Matrix, 16)
	for i := range hs {
		hs[i] = cmplxmat.RandomGaussian(rng, 2, 2)
	}
	w := cmplxmat.NewWorkspace()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		EigenmodeRateWS(w, hs[i%len(hs)], 1, 0.3)
	}
}
