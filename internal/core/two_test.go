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

// BenchmarkDependentDirectionM2 times one M = 2 random-line search
// (dependentDirection2WS), the alignment step of the one-shot chain
// solver and of the planner's attempts on a pencil DependentDirections2
// declines, on the G matrices the chain solver prepares from a Gaussian
// channel set.
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

// pencilCorpus returns M = 2 alignment pairs (G_1, G_2) by kind: the
// campus_fading corpus's; the G = H0 H1^-1 products the chain solver
// prepares from Gaussian channel sets, and those scaled by 1e-8 and
// 1e8; pencils with a repeated root (G_1 = G_2 (λ0 I + n m^T) with
// m^T n = 0, so det(G_1 - λ G_2) = det G_2 (λ0 - λ)^2, up to rounding);
// nearly singular G_2 (rows parallel to within 1e-6 to 1e-12); and
// degenerate pencils (G_2 a multiple of G_1, where every direction is
// dependent, and G_1 of rank one).
func pencilCorpus(t testing.TB, rng *rand.Rand) map[string][][2]*cmplxmat.Matrix {
	cn := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
	corpus := map[string][][2]*cmplxmat.Matrix{}
	for _, g := range campusFadingAlignment(t) {
		corpus["campus_fading"] = append(corpus["campus_fading"], [2]*cmplxmat.Matrix{g[0], g[1]})
	}
	ws := cmplxmat.NewWorkspace()
	for i := 0; i < 200; i++ {
		cs := RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR)
		prep := PrepareUplinkChainWS(ws, cs)
		if prep.err != nil {
			t.Fatal(prep.err)
		}
		g := [2]*cmplxmat.Matrix{prep.gs[0].Clone(), prep.gs[1].Clone()}
		corpus["channels"] = append(corpus["channels"], g)
		for _, s := range []complex128{1e-8, 1e8} {
			corpus["scaled"] = append(corpus["scaled"], [2]*cmplxmat.Matrix{g[0].Scale(s), g[1].Scale(s)})
		}
		ws.Reset()
	}
	for i := 0; i < 60; i++ {
		g2 := cmplxmat.RandomGaussian(rng, 2, 2)
		n0, n1 := cn(), cn()
		corpus["repeated root"] = append(corpus["repeated root"], [2]*cmplxmat.Matrix{repeatedRootG1(g2, cn(), n0, n1), g2})
		x, y, s := cn(), cn(), cn()
		eps := complex(math.Pow(10, -float64(6+i%4*2)), 0)
		sing := mat2(x, y, s*x+eps*cn(), s*y+eps*cn())
		corpus["nearly singular"] = append(corpus["nearly singular"], [2]*cmplxmat.Matrix{cmplxmat.RandomGaussian(rng, 2, 2), sing})
	}
	keep := cmplxmat.NewWorkspace()
	for i := 0; i < 20; i++ {
		g1 := cmplxmat.RandomGaussian(rng, 2, 2)
		v, w := cmplxmat.RandomGaussianVector(rng, 2), cmplxmat.RandomGaussianVector(rng, 2)
		rank1 := fromColumnsWS(keep, []cmplxmat.Vector{v, v.Scale(complex(rng.NormFloat64(), 1))})
		corpus["degenerate"] = append(corpus["degenerate"],
			[2]*cmplxmat.Matrix{g1, g1},
			[2]*cmplxmat.Matrix{g1, g1.Scale(cn())},
			[2]*cmplxmat.Matrix{rank1, fromColumnsWS(keep, []cmplxmat.Vector{w, v})})
	}
	return corpus
}

// repeatedRootG1 returns G_2 (λ0 I + n m^T) with m = (-n1, n0), so that
// m^T n = 0 and G_1 - λ G_2 = G_2 ((λ0 - λ) I + n m^T) has the double
// root λ0 with a one-dimensional null space, spanned by n.
func repeatedRootG1(g2 *cmplxmat.Matrix, l0, n0, n1 complex128) *cmplxmat.Matrix {
	return g2.Mul(mat2(l0-n0*n1, n0*n0, -n1*n1, l0+n1*n0))
}

// mat2 returns the 2x2 matrix [[a00, a01], [a10, a11]] on the heap.
func mat2(a00, a01, a10, a11 complex128) *cmplxmat.Matrix {
	m := cmplxmat.View(2, 2, []complex128{a00, a01, a10, a11})
	return &m
}

// pencilPrep returns an M = 2 chain preparation holding only G_1 and
// G_2, which is all DependentDirections2 and dependentDirectionWS read.
func pencilPrep(g [2]*cmplxmat.Matrix) UplinkPrep {
	return UplinkPrep{gs: []*cmplxmat.Matrix{g[0], g[1]}}
}

// errStats accumulates the largest and the mean of a set of errors.
type errStats struct {
	n          int
	worst, sum float64
}

func (s *errStats) add(e float64) { s.n, s.worst, s.sum = s.n+1, max(s.worst, e), s.sum+e }

func (s errStats) mean() float64 { return s.sum / float64(max(s.n, 1)) }

// TestDependentDirections2MatchLineSearch checks the closed-form M = 2
// dependent directions (DependentDirections2, the pencil's null
// vectors) against the random-line search they replace in the planner
// (dependentDirectionWS: random lines, each's determinant quadratic
// rooted and screened) and against the math/big pencil (bigPencil), on
// pencilCorpus. Three seeded random-line searches run per input. Where
// the pencil gives directions, every direction a search finds must be
// one of them, as projectors to 1e-9, on every kind whose directions
// are determined to that (all but the repeated roots, whose directions
// are only determined to about the square root of the rounding, and the
// degenerate pencils); and the pencil's errors against math/big must be
// no worse than the searches', in the largest and the mean, or below
// 1e-14. The pencil may decline only degenerate pencils and nearly
// singular G_2, whose quadratic can lose its degree.
func TestDependentDirections2MatchLineSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	corpus := pencilCorpus(t, rng)
	ws := cmplxmat.NewWorkspace()
	const floor = 1e-14
	for _, kind := range []string{"campus_fading", "channels", "scaled", "repeated root", "nearly singular", "degenerate"} {
		determined := kind != "repeated root" && kind != "degenerate"
		var pencil, search errStats
		declined, found, onPencil := 0, 0, 0
		for i, g := range corpus[kind] {
			name := fmt.Sprintf("%s %d", kind, i)
			prep := pencilPrep(g)
			dirs, n := prep.DependentDirections2(ws)
			exact, _, ok := bigPencil(g[0], g[1])
			ok = ok && kind != "degenerate"
			if n == 0 {
				declined++
				if kind != "degenerate" && kind != "nearly singular" {
					t.Fatalf("%s: the pencil declined", name)
				}
			}
			for _, d := range dirs[:n] {
				if ok {
					pencil.add(directionErr(d, exact))
				}
			}
			for draw := 0; draw < 3; draw++ {
				d, err := dependentDirectionWS(ws, prep.gs, rand.New(rand.NewSource(rng.Int63())))
				if err != nil || n == 0 {
					continue
				}
				found++
				gap := math.Inf(1)
				for _, e := range dirs[:n] {
					gap = min(gap, projectorGap(d, e[:]))
				}
				if gap <= 1e-9 {
					onPencil++
				} else if determined {
					t.Fatalf("%s: random-line direction %v is none of the pencil's %v (%.3g apart)", name, d, dirs[:n], gap)
				}
				if ok {
					search.add(directionErr([2]complex128{d[0], d[1]}, exact))
				}
			}
			ws.Reset()
		}
		t.Logf("%s: %d inputs, %d declined; on the others %d of %d random-line directions on a pencil direction; error max/mean %.3g/%.3g pencil, %.3g/%.3g random lines",
			kind, len(corpus[kind]), declined, onPencil, found, pencil.worst, pencil.mean(), search.worst, search.mean())
		if pencil.worst > max(search.worst, floor) || pencil.mean() > max(search.mean(), floor) {
			t.Errorf("%s: the pencil's error (max %.3g, mean %.3g) is above the random lines' (max %.3g, mean %.3g)", kind, pencil.worst, pencil.mean(), search.worst, search.mean())
		}
	}
}

// FuzzDependentDirections2 drives the M = 2 pencil on Gaussian pairs
// (G_1, G_2) from the seed, shaped by kind%4: 0 sets two entries of G_2
// to the fuzzed values; 1 builds a repeated root at λ0 = (a, b) along
// n = (c, e) (repeatedRootG1); 2 makes G_2's second row its first times
// (a, b) plus (c, e) times 2^-40 in one entry, singular or nearly so;
// 3 scales G_1 by 2^k1 and G_2 by 2^k2, k1 and k2 clamped to ±1030, the
// ends of the scaling range. It must not panic, and every direction it
// gives must be unit and finite. Where the math/big pencil exists and
// every entry lies within 2^±400, where the random-line search is a
// reference, each direction a seeded search finds must be one of the
// pencil's (projectors within 1e-9), or the pencil's nearest direction
// no further from the exact ones than the search's, within 1e-12, or
// within 16 times the pencil's conditioning (bigPencil's cond: near a
// repeated root rounding alone moves the directions that far).
func FuzzDependentDirections2(f *testing.F) {
	for kind := byte(0); kind < 4; kind++ {
		f.Add(int64(1), kind, 0.5, -1.0, 2.0, 0.25, int16(0), int16(0))
	}
	f.Add(int64(2), byte(0), 0.0, 0.0, 0.0, 0.0, int16(0), int16(0))
	f.Add(int64(3), byte(1), 1.0, 0.0, 0.0, 0.0, int16(0), int16(0))
	f.Add(int64(4), byte(2), 1.0, 1.0, 0.0, 0.0, int16(0), int16(0))
	f.Add(int64(5), byte(3), 1.0, 1.0, 1.0, 1.0, int16(999), int16(-999))
	f.Add(int64(6), byte(3), 1.0, 1.0, 1.0, 1.0, int16(1001), int16(0))
	f.Add(int64(7), byte(3), 1.0, 1.0, 1.0, 1.0, int16(-1020), int16(-1000))
	f.Add(int64(8), byte(0), math.Inf(1), 0.0, 1.0, math.NaN(), int16(0), int16(0))
	f.Fuzz(func(t *testing.T, seed int64, kind byte, a, b, c, e float64, k1, k2 int16) {
		rng := rand.New(rand.NewSource(seed))
		g1, g2 := cmplxmat.RandomGaussian(rng, 2, 2), cmplxmat.RandomGaussian(rng, 2, 2)
		switch kind % 4 {
		case 0:
			g2.SetAt(0, 0, complex(a, b))
			g2.SetAt(1, 1, complex(c, e))
		case 1:
			g1 = repeatedRootG1(g2, complex(a, b), complex(c, e), 1)
		case 2:
			s := complex(a, b)
			g2.SetAt(1, 0, s*g2.At(0, 0)+complex(c, e)*0x1p-40)
			g2.SetAt(1, 1, s*g2.At(0, 1))
		case 3:
			clamp := func(k int16) int { return max(-1030, min(1030, int(k))) }
			g1 = g1.Scale(complex(math.Ldexp(1, clamp(k1)), 0))
			g2 = g2.Scale(complex(math.Ldexp(1, clamp(k2)), 0))
		}
		g := [2]*cmplxmat.Matrix{g1, g2}
		prep := pencilPrep(g)
		ws := cmplxmat.NewWorkspace()
		dirs, n := prep.DependentDirections2(ws)
		for _, d := range dirs[:n] {
			if !finite(d[0]) || !finite(d[1]) || math.Abs(cmplxmat.Abs2(d[0])+cmplxmat.Abs2(d[1])-1) > 1e-12 {
				t.Fatalf("direction %v is not a finite unit vector", d)
			}
		}
		exact, cond, ok := bigPencil(g1, g2)
		if n == 0 || !ok || !inRange(g1) || !inRange(g2) {
			return
		}
		d, err := dependentDirectionWS(ws, prep.gs, rng)
		if err != nil {
			return
		}
		gap, nearest := math.Inf(1), dirs[0]
		for _, e := range dirs[:n] {
			if gp := projectorGap(d, e[:]); gp < gap {
				gap, nearest = gp, e
			}
		}
		if gap <= 1e-9 {
			return
		}
		// Near a repeated root rounding alone moves the directions by
		// cond, and neither path is more accurate than that.
		if pe, se := directionErr(nearest, exact), directionErr([2]complex128{d[0], d[1]}, exact); pe > max(se, 1e-12, 16*cond) {
			t.Fatalf("pencil direction %v (error %.3g) is further from the exact ones than the random line's %v (error %.3g; conditioning %.3g)", nearest, pe, d, se, cond)
		}
	})
}

// inRange reports that every nonzero part of the 2x2 g lies within
// 2^±400.
func inRange(g *cmplxmat.Matrix) bool {
	for i := 0; i < 4; i++ {
		z := g.At(i/2, i%2)
		for _, p := range []float64{math.Abs(real(z)), math.Abs(imag(z))} {
			if p != 0 && !(p >= 0x1p-400 && p <= 0x1p400) {
				return false
			}
		}
	}
	return true
}

// BenchmarkDependentDirections2 times the M = 2 chain's dependent
// directions in closed form (the pencil's two null vectors and their
// screen), once per receiver order of every planning round, on the G
// matrices of Gaussian channel sets cycled over 16 draws.
func BenchmarkDependentDirections2(b *testing.B) {
	rng := rand.New(rand.NewSource(109))
	keep := cmplxmat.NewWorkspace()
	preps := make([]UplinkPrep, 16)
	for i := range preps {
		preps[i] = PrepareUplinkChainWS(keep, RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR))
	}
	ws := cmplxmat.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := preps[i%len(preps)].DependentDirections2(ws); n == 0 {
			b.Fatal("the pencil declined")
		}
	}
}

// BenchmarkSolveUplinkChainM2 times one solver attempt of the role
// search at M = 2: SolveAlongWS from one of a prepared set's dependent
// directions (the tail: the aligned packets' vectors, the B-set null
// vector, packet 0's matched filter), cycling over both directions of
// 16 Gaussian channel sets of three APs. A direction can make an attempt
// legitimately infeasible (the aligned subspace comes out
// two-dimensional; the general tail rejects the same inputs), as the
// planner's search expects: such attempts are counted, reported as
// infeasible/op, and any other error fails.
func BenchmarkSolveUplinkChainM2(b *testing.B) {
	rng := rand.New(rand.NewSource(113))
	keep := cmplxmat.NewWorkspace()
	type attempt struct {
		prep *UplinkPrep
		d    [2]complex128
	}
	var attempts []attempt
	for len(attempts) < 32 {
		prep := PrepareUplinkChainWS(keep, RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR))
		dirs, n := prep.DependentDirections2(keep)
		for _, d := range dirs[:n] {
			attempts = append(attempts, attempt{&prep, d})
		}
	}
	ws := cmplxmat.NewWorkspace()
	infeasible := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		a := attempts[i%len(attempts)]
		if _, err := a.prep.SolveAlongWS(ws, rng, a.d); errors.Is(err, ErrInfeasible) {
			infeasible++
		} else if err != nil {
			b.Fatal(err)
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
