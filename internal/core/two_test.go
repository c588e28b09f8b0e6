package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"iaclan/internal/cmplxmat"
)

// campusFadingAlignment reads the 256 pairs (G1, G2) of alignment
// matrices in testdata/campus_fading_dd.bin, sampled evenly from the
// 364,716 M = 2 dependent-direction calls of a seed-1 campus_fading run
// (bench/iacperf's workload, one worker): eight complex values each,
// G1 then G2 row-major, as little-endian float64 pairs.
func campusFadingAlignment(t testing.TB) [][]*cmplxmat.Matrix {
	raw, err := os.ReadFile("testdata/campus_fading_dd.bin")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]*cmplxmat.Matrix
	for ; len(raw) >= 128; raw = raw[128:] {
		var z [8]complex128
		for i := range z {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			z[i] = complex(re, im)
		}
		g1, g2 := cmplxmat.View(2, 2, z[:4]), cmplxmat.View(2, 2, z[4:])
		out = append(out, []*cmplxmat.Matrix{g1.Clone(), g2.Clone()})
	}
	return out
}

// TestDependentDirection2MatchesGeneral runs the closed-form M = 2
// dependent direction beside the general path (interpolated LU
// determinants, Durand-Kerner, RankWS; dependentDirectionOracleWS) with
// twin RNGs, on the campus_fading corpus's alignment matrices, on the
// G = H0 H1^-1 products the chain solver prepares from Gaussian
// channels, scaled by 1e-8 and 1e8, and on degenerate pencils (g2 a
// multiple of g1, where every direction is dependent and the
// polynomial vanishes; g1 of rank one). The decisions must match —
// found or not, on the same random line, at the same root — and the
// directions agree to 1e-9 wherever they are determined.
func TestDependentDirection2MatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	corpus := map[string][][]*cmplxmat.Matrix{"campus_fading": campusFadingAlignment(t)}
	ws := cmplxmat.NewWorkspace()
	for i := 0; i < 200; i++ {
		cs := RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR)
		prep := PrepareUplinkChainWS(ws, cs)
		if prep.err != nil {
			t.Fatal(prep.err)
		}
		g := []*cmplxmat.Matrix{prep.gs[0].Clone(), prep.gs[1].Clone()}
		corpus["channels"] = append(corpus["channels"], g)
		for _, s := range []complex128{1e-8, 1e8} {
			corpus["scaled"] = append(corpus["scaled"], []*cmplxmat.Matrix{g[0].Scale(s), g[1].Scale(s)})
		}
		ws.Reset()
	}
	keep := cmplxmat.NewWorkspace()
	for i := 0; i < 20; i++ {
		g1 := cmplxmat.RandomGaussian(rng, 2, 2)
		v, w := cmplxmat.RandomGaussianVector(rng, 2), cmplxmat.RandomGaussianVector(rng, 2)
		rank1 := fromColumnsWS(keep, []cmplxmat.Vector{v, v.Scale(complex(rng.NormFloat64(), 1))})
		corpus["degenerate"] = append(corpus["degenerate"],
			[]*cmplxmat.Matrix{g1, g1},
			[]*cmplxmat.Matrix{g1, g1.Scale(complex(rng.NormFloat64(), rng.NormFloat64()))},
			[]*cmplxmat.Matrix{rank1, fromColumnsWS(keep, []cmplxmat.Vector{w, v})})
	}
	for _, kind := range []string{"campus_fading", "channels", "scaled", "degenerate"} {
		found := 0
		for i, g := range corpus[kind] {
			seed := rng.Int63()
			rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, gotErr := dependentDirectionWS(ws, g, rngA)
			want, wantErr := dependentDirectionOracleWS(ws, g, rngB)
			name := fmt.Sprintf("%s %d", kind, i)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, general path %v", name, gotErr, wantErr)
			}
			if rngA.Int63() != rngB.Int63() {
				t.Fatalf("%s: the paths stopped on different random lines", name)
			}
			if gotErr == nil {
				found++
				// A degenerate pencil makes every direction, or every
				// point of the line, dependent: both answers are right
				// and neither is determined.
				if d := got.Sub(want).Norm(); d > 1e-9 && kind != "degenerate" {
					t.Fatalf("%s: direction %v, general path %v (%.3g apart)", name, got, want, d)
				}
			}
			ws.Reset()
		}
		t.Logf("%s: %d of %d inputs found a direction on both paths", kind, found, len(corpus[kind]))
	}
}

// BenchmarkDependentDirectionM2 times one M = 2 dependent-direction
// search, the alignment step of every uplink-chain solver attempt, on
// the G matrices the chain solver prepares from a Gaussian channel set.
func BenchmarkDependentDirectionM2(b *testing.B) {
	rng := rand.New(rand.NewSource(109))
	ws := cmplxmat.NewWorkspace()
	prep := PrepareUplinkChainWS(ws, RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR))
	g := []*cmplxmat.Matrix{prep.gs[0].Clone(), prep.gs[1].Clone()}
	run := cmplxmat.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.Reset()
		if _, err := dependentDirectionWS(run, g, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveUplinkChainM2 times the role search's unit of work on one
// M = 2 channel set of three APs: PrepareUplinkChainWS, then three
// solver attempts (dependent direction and tail), on Gaussian channel
// sets cycled so that no one set's conditioning decides the time. A
// draw can make an attempt legitimately infeasible (the aligned
// subspace comes out two-dimensional; the general tail rejects the same
// inputs), as the planner's search expects: such attempts are counted,
// reported as infeasible/op, and any other error fails.
func BenchmarkSolveUplinkChainM2(b *testing.B) {
	rng := rand.New(rand.NewSource(113))
	sets := make([]ChannelSet, 16)
	for i := range sets {
		sets[i] = RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR)
	}
	ws := cmplxmat.NewWorkspace()
	infeasible := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		prep := PrepareUplinkChainWS(ws, sets[i%len(sets)])
		for attempt := 0; attempt < 3; attempt++ {
			if _, err := prep.SolveWS(ws, rng); errors.Is(err, ErrInfeasible) {
				infeasible++
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(infeasible)/float64(b.N), "infeasible/op")
}

// BenchmarkZFDecoderM2 times the slot evaluator's M = 2 zero-forcing
// decoder over the interference counts of the four-packet chain's
// schedule: three interferers at AP 0, two at AP 1 after cancelling
// packet 0, one at AP 2; one call of each per op, on Gaussian
// directions cycled over 16 draws.
func BenchmarkZFDecoderM2(b *testing.B) {
	rng := rand.New(rand.NewSource(127))
	type zfCase struct {
		sig    cmplxmat.Vector
		interf []cmplxmat.Vector
	}
	cases := make([]zfCase, 48)
	for i := range cases {
		interf := make([]cmplxmat.Vector, 1+i%3)
		for j := range interf {
			interf[j] = cmplxmat.RandomGaussianVector(rng, 2)
		}
		cases[i] = zfCase{cmplxmat.RandomGaussianVector(rng, 2), interf}
	}
	ws := cmplxmat.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		for k := 0; k < 3; k++ {
			c := cases[(3*i+k)%len(cases)]
			if zfDecodingVectorWS(ws, c.sig, c.interf, 2) == nil {
				b.Fatal("no decoder")
			}
		}
	}
}

// tail2Case is one input of the M = 2 solver tail: a prepared channel
// set and the dependent direction the tail starts from. undetermined
// marks inputs whose B-set row is rounding noise (H_b's columns lie on
// the aligned line), where neither path's B-set and packet-0 vectors
// are determined.
type tail2Case struct {
	prep         UplinkPrep
	d            cmplxmat.Vector
	undetermined bool
}

// newTail2Case prepares cs, takes the dependent direction from a
// seeded search and applies the degeneracy degen%4: 1 aligns the
// pencil (G_2 a multiple of G_1, so every direction is dependent), 2
// zeroes the B-set channel H_b (a zero row, whose null space is the
// whole plane), 3 puts H_b's columns on the aligned line G_1 d (a row
// of rounding noise). ok is false when the set does not prepare or no
// direction is found.
func newTail2Case(ws *cmplxmat.Workspace, cs ChannelSet, degen byte, seed int64) (c tail2Case, ok bool) {
	switch degen % 4 {
	case 1:
		cs[2][0], cs[2][1] = cs[1][0].Scale(complex(0.5, -2)), cs[1][1]
	case 2:
		cs[0][0] = cmplxmat.New(2, 2)
	}
	prep := PrepareUplinkChainWS(ws, cs)
	if prep.err != nil {
		return c, false
	}
	d, err := dependentDirectionWS(ws, prep.gs, rand.New(rand.NewSource(seed)))
	if err != nil {
		return c, false
	}
	if degen%4 == 3 {
		x := prep.gs[0].MulVec(d)
		cs[0][0] = fromColumnsWS(ws, []cmplxmat.Vector{x, x.Scale(complex(-1, 3))})
	}
	return tail2Case{prep: prep, d: d, undetermined: degen%4 == 3}, true
}

// checkTail2 runs tail2WS and the general tailWS on one case with twin
// RNGs. The errors must be the same, and on a determined input the RNG
// streams after the tail too (a row of rounding noise may round to
// exactly zero on one path only, which then draws a second null-space
// coefficient or packet 0's vector); when both succeed on a determined
// input, the encoding vectors must
// span the same lines to 1e-9, or the closed form's B-set residual and
// packet-0 error against the math/big construction (tail2Errors) must
// be below 1e-12 or no worse than the general tail's. It returns both
// sides' errors, -1 when not measured.
func checkTail2(t testing.TB, name string, ws *cmplxmat.Workspace, c tail2Case, seed int64) (closed, general [2]float64) {
	rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	encA, encB := ws.Vectors(4), ws.Vectors(4)
	errA := c.prep.tail2WS(ws, rngA, c.d, encA)
	errB := c.prep.tailWS(ws, rngB, c.d, encB)
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("%s: error %v, general tail %v", name, errA, errB)
	}
	if rngA.Int63() != rngB.Int63() && !c.undetermined {
		t.Fatalf("%s: the tails drew differently", name)
	}
	if errA != nil || c.undetermined {
		return [2]float64{-1, -1}, [2]float64{-1, -1}
	}
	closed[0], closed[1] = tail2Errors(&c.prep, c.d, encA)
	general[0], general[1] = tail2Errors(&c.prep, c.d, encB)
	for i := range encA {
		if gap := projectorGap(encA[i], encB[i]); gap > 1e-9 {
			if !(closed[0] <= max(general[0], 1e-12) && closed[1] <= max(general[1], 1e-12)) {
				t.Fatalf("%s: encoding %d %v, general tail %v (projectors %.3g apart; errors %v closed, %v general)", name, i, encA[i], encB[i], gap, closed, general)
			}
		}
	}
	return closed, general
}

// TestTail2MatchesGeneral runs the closed-form M = 2 solver tail beside
// the general one (Gram-Schmidt basis, standard-basis complement, LU
// null space) on Gaussian channel sets, sets scaled by 1e-8 and 1e8,
// the campus_fading corpus's alignment matrices, aligned pencils, a
// zero B-set row and a B-set row of rounding noise. The errors and the
// draws must match, the encoding vectors agree as projectors to 1e-9
// wherever they are determined, and the closed form's errors against
// the math/big construction are no worse than the general tail's in
// the largest and the mean, or below 1e-14, where both are the rounding
// noise of a few channel products.
func TestTail2MatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	ws := cmplxmat.NewWorkspace()
	newSet := func() ChannelSet {
		return RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR)
	}
	corpus := map[string][]tail2Case{}
	add := func(kind string, cs ChannelSet, degen byte) {
		if c, ok := newTail2Case(ws, cs, degen, rng.Int63()); ok {
			corpus[kind] = append(corpus[kind], c)
		}
	}
	for i := 0; i < 200; i++ {
		add("channels", newSet(), 0)
		for _, s := range []complex128{1e-8, 1e8} {
			cs := newSet()
			for _, row := range cs {
				for j := range row {
					row[j] = row[j].Scale(s)
				}
			}
			add("scaled", cs, 0)
		}
	}
	for _, g := range campusFadingAlignment(t) {
		c, ok := newTail2Case(ws, newSet(), 0, rng.Int63())
		if !ok {
			continue
		}
		c.prep.gs = g
		d, err := dependentDirectionWS(ws, g, rng)
		if err != nil {
			continue
		}
		c.d = d
		corpus["campus_fading"] = append(corpus["campus_fading"], c)
	}
	for i := 0; i < 40; i++ {
		add("aligned", newSet(), 1)
		add("zero row", newSet(), 2)
		add("noise row", newSet(), 3)
	}
	const floor = 1e-14
	for _, kind := range []string{"channels", "scaled", "campus_fading", "aligned", "zero row", "noise row"} {
		var worst, mean [2][2]float64 // [closed, general][B-set, packet 0]
		n := 0
		for i, c := range corpus[kind] {
			closed, general := checkTail2(t, fmt.Sprintf("%s %d", kind, i), ws, c, rng.Int63())
			if closed[0] < 0 {
				continue
			}
			n++
			for k := 0; k < 2; k++ {
				worst[0][k], worst[1][k] = max(worst[0][k], closed[k]), max(worst[1][k], general[k])
				mean[0][k] += (closed[k] - mean[0][k]) / float64(n)
				mean[1][k] += (general[k] - mean[1][k]) / float64(n)
			}
		}
		t.Logf("%s: %d of %d inputs measured; B-set residual max/mean %.3g/%.3g closed, %.3g/%.3g general; packet 0 %.3g/%.3g closed, %.3g/%.3g general",
			kind, n, len(corpus[kind]), worst[0][0], mean[0][0], worst[1][0], mean[1][0], worst[0][1], mean[0][1], worst[1][1], mean[1][1])
		for k := 0; k < 2; k++ {
			if worst[0][k] > max(worst[1][k], floor) || mean[0][k] > max(mean[1][k], floor) {
				t.Errorf("%s: closed-form tail's error %d (max %.3g, mean %.3g) above the general tail's (max %.3g, mean %.3g)", kind, k, worst[0][k], mean[0][k], worst[1][k], mean[1][k])
			}
		}
	}
}

// FuzzSolveTail2 drives the closed-form M = 2 solver tail beside the
// general one (checkTail2) on Gaussian channel sets whose B-set channel
// has two fuzzed entries, under the degeneracies of newTail2Case:
// aligned interferers (an aligned pencil), a zero B-set row and a row
// of rounding noise. Wherever every channel entry lies within 2^±400,
// where the general tail's norms cannot overflow or underflow, the
// errors and the draws must match and the vectors agree or the closed
// form's errors are the smaller or below 1e-12; outside it the general tail is not a
// reference and only the closed form's running without a panic is
// checked.
func FuzzSolveTail2(f *testing.F) {
	for degen := byte(0); degen < 4; degen++ {
		f.Add(int64(1), degen, 0.5, -1.0, 2.0, 0.25)
	}
	f.Add(int64(2), byte(0), 0.0, 0.0, 0.0, 0.0)
	f.Add(int64(3), byte(0), 1e300, 0.0, -1e300, 1.0)
	f.Add(int64(4), byte(2), 1e-300, 5e-324, 0.0, 1e-310)
	f.Fuzz(func(t *testing.T, seed int64, degen byte, a, b, c, e float64) {
		cs := RandomChannelSet(rand.New(rand.NewSource(seed)), UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR)
		cs[0][0].SetAt(0, 0, complex(a, b))
		cs[0][0].SetAt(1, 1, complex(c, e))
		ws := cmplxmat.NewWorkspace()
		tc, ok := newTail2Case(ws, cs, degen, seed)
		if !ok {
			return
		}
		for _, row := range cs {
			for _, h := range row {
				for i := 0; i < 2; i++ {
					for j := 0; j < 2; j++ {
						z := h.At(i, j)
						if p := max(math.Abs(real(z)), math.Abs(imag(z))); p != 0 && !(p >= 0x1p-400 && p <= 0x1p400) {
							tc.prep.tail2WS(ws, rand.New(rand.NewSource(seed)), tc.d, ws.Vectors(4))
							return
						}
					}
				}
			}
		}
		checkTail2(t, fmt.Sprintf("%v", cs[0][0]), ws, tc, seed)
	})
}
