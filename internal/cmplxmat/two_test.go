package cmplxmat

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Differential tests for the closed-form M = 2 kernels (two.go): each
// runs beside the general kernel it stands in for, on the same inputs.
// Inputs are Gaussian, planner-shaped (aligned and repeated interferers,
// rank-deficient and near-singular matrices, extreme scales) and 256
// samples from a seed-1 campus_fading run: for the zero-forcing kernel,
// interference matrices from its 846,458 LeadingLeftSingularInto calls
// (testdata/campus_fading_zf.bin); for the alignment quadratic, the
// (G1, G2) pairs of its 364,716 M = 2 dependent-direction calls
// (../core/testdata/campus_fading_dd.bin). Every decision must match
// the general kernel's and the values agree to 1e-9, except where the
// general kernel is the one off the exact answer or the input is so
// ill-conditioned that neither is within 1e-9 (each test says which);
// and the closed form's largest and mean error against the math/big
// reference (bigref_test.go) must be no worse than the general
// kernel's. The one exception is QuadraticRootsInto against
// Durand-Kerner on identical float64 coefficients, explained there.

// errStats accumulates one kernel's errors against the reference.
type errStats struct {
	n         int
	max, mean float64
}

func (s *errStats) add(e float64) {
	s.n++
	s.max = max(s.max, e)
	s.mean += (e - s.mean) / float64(s.n)
}

// checkNoWorse fails unless the closed form's errors are no worse than
// the general kernel's, in the largest and in the mean.
func checkNoWorse(t *testing.T, name string, closed, general errStats) {
	t.Helper()
	checkWithin(t, name, closed, general, 1)
}

// roundingFloor is the error, 4 units in the last place of 1, at or
// below which two kernels are both rounding-exact: comparing errors
// there compares rounding noise, so checkNoWorseAbove passes a closed
// form whose errors stay under it.
const roundingFloor = 0x1p-50

// checkNoWorseAbove is checkNoWorse for kernels that round to a few
// units in the last place: the closed form's largest and mean errors
// must be no worse than the general kernel's or below roundingFloor.
func checkNoWorseAbove(t *testing.T, name string, closed, general errStats) {
	t.Helper()
	t.Logf("%s: %d values, closed form max %.3g mean %.3g, general max %.3g mean %.3g",
		name, closed.n, closed.max, closed.mean, general.max, general.mean)
	if closed.max > max(general.max, roundingFloor) || closed.mean > max(general.mean, roundingFloor) {
		t.Errorf("%s: closed form error (max %.3g, mean %.3g) above the general kernel's (max %.3g, mean %.3g) and %.3g",
			name, closed.max, closed.mean, general.max, general.mean, roundingFloor)
	}
}

// checkWithin fails unless the closed form's largest and mean errors are
// at most factor times the general kernel's.
func checkWithin(t *testing.T, name string, closed, general errStats, factor float64) {
	t.Helper()
	t.Logf("%s: %d values, closed form max %.3g mean %.3g, general max %.3g mean %.3g",
		name, closed.n, closed.max, closed.mean, general.max, general.mean)
	if closed.max > factor*general.max || closed.mean > factor*general.mean {
		t.Errorf("%s: closed form error (max %.3g, mean %.3g) above %g times the general kernel's (max %.3g, mean %.3g)",
			name, closed.max, closed.mean, factor, general.max, general.mean)
	}
}

// projectorGap returns the largest entry of |u u^H - v v^H|.
func projectorGap(u, v Vector) float64 {
	var worst float64
	for i := range u {
		for j := range u {
			worst = max(worst, cmplx.Abs(u[i]*cmplx.Conj(u[j])-v[i]*cmplx.Conj(v[j])))
		}
	}
	return worst
}

// zfCorpus returns 2-row interference matrices named by kind.
func zfCorpus(t *testing.T) map[string][]*Matrix {
	rng := rand.New(rand.NewSource(83))
	out := map[string][]*Matrix{}
	for k := 1; k <= 4; k++ {
		for i := 0; i < 100; i++ {
			out["gaussian"] = append(out["gaussian"], RandomGaussian(rng, 2, k))
		}
	}
	for _, e := range []int{-900, -300, -40, 40, 300, 900} {
		for i := 0; i < 40; i++ {
			out["scaled"] = append(out["scaled"], RandomGaussian(rng, 2, 2+i%2).Scale(complex(math.Ldexp(1, e), 0)))
		}
	}
	// The planner's interference: aligned pairs (the construction's
	// whole point), nearly aligned ones under estimation error, and a
	// repeated column, beside an independent interferer.
	for i := 0; i < 100; i++ {
		v, w := RandomGaussianVector(rng, 2), RandomGaussianVector(rng, 2)
		noise := RandomGaussianVector(rng, 2).Scale(complex(math.Pow(10, -float64(3+i%10)), 0))
		c := complex(rng.NormFloat64(), rng.NormFloat64())
		out["aligned"] = append(out["aligned"],
			FromColumns(v, v.Scale(c)),
			FromColumns(v, v.Scale(c).Add(noise), w),
			FromColumns(v, v, w.Scale(complex(1e-3, 0))))
	}
	data := readCorpus(t, "testdata/campus_fading_zf.bin")
	for len(data) > 0 {
		k := int(real(data[0]))
		m := New(2, k)
		copy(m.data, data[1:1+2*k])
		out["campus_fading"] = append(out["campus_fading"], m)
		data = data[1+2*k:]
	}
	return out
}

func TestLeading2MatchesJacobi(t *testing.T) {
	ws := NewWorkspace()
	for _, kind := range []string{"gaussian", "scaled", "aligned", "campus_fading"} {
		var closed, general errStats
		declined, nullBoth := 0, 0
		for i, m := range zfCorpus(t)[kind] {
			got, want := []Vector{NewVector(2)}, []Vector{NewVector(2)}
			n, ok := m.leading2Into(ws, got, 1e-12)
			if !ok {
				declined++
				continue
			}
			if wantN := m.leadingJacobiInto(ws, want, 1e-12); n != wantN {
				t.Fatalf("%s %d: closed form wrote %d vectors, Jacobi %d", kind, i, n, wantN)
			}
			if n == 0 {
				continue
			}
			ref, _, ok := bigLeading(m)
			if !ok {
				t.Fatalf("%s %d: equal eigenvalues", kind, i)
			}
			cErr, gErr := ref.err(got[0]), ref.err(want[0])
			if gap := projectorGap(got[0], want[0]); gap > 1e-9 {
				t.Fatalf("%s %d: projectors %.3g apart (errors %.3g closed, %.3g Jacobi):\n closed %v\n Jacobi %v", kind, i, gap, cErr, gErr, got[0], want[0])
			}
			if bitEqualC(got[0], want[0]) && cErr > 1e-9 {
				// Both took SVDWS's null completion: the leading
				// singular value is at or below the absolute null
				// threshold 1e-12 (1 + MaxAbs), as at 2^-300 and below,
				// and a standard basis vector stands in.
				nullBoth++
				continue
			}
			closed.add(cErr)
			general.add(gErr)
		}
		if declined > 0 {
			t.Errorf("%s: closed form declined %d inputs", kind, declined)
		}
		t.Logf("%s: %d inputs below the null threshold on both paths", kind, nullBoth)
		checkNoWorse(t, kind, closed, general)
	}
}

// TestJacobiExtremeScales pins jacobi's power-of-two scaling: an input
// whose largest part is outside the safe range is scaled before the
// Gram matrix or the sweep and its values are scaled back, so SVDWS's
// singular values and EigenHermitianWS's eigenvalues of a matrix scaled
// by 2^k are the unscaled ones times 2^k (times 2^2k for a Gram input)
// to 1e-12, and their vectors span the same lines. Inside the range the
// input keeps its bits. FuzzLeading2's 2x1 input with a 1e300 entry,
// whose Gram matrix overflowed, gets its leading vector on the Jacobi
// path.
func TestJacobiExtremeScales(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	ws := NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		m := RandomGaussian(rng, 3, 3)
		_, s, v := m.SVDWS(ws)
		g := m.H().Mul(m)
		vals, vecs := g.EigenHermitianWS(ws)
		for _, e := range []int{-900, -300, -40, 300, 900} {
			f := math.Ldexp(1, e)
			_, sk, vk := m.Scale(complex(f, 0)).SVDWS(ws)
			for j := range s {
				if d := math.Abs(sk[j]/f-s[j]) / s[0]; d > 1e-12 {
					t.Fatalf("trial %d at 2^%d: singular value %d is %g, want %g (off by %.3g)", trial, e, j, sk[j]/f, s[j], d)
				}
				if gap := projectorGap(vk.Col(j), v.Col(j)); gap > 1e-9 {
					t.Fatalf("trial %d at 2^%d: right singular vector %d off by %.3g", trial, e, j, gap)
				}
			}
			if e < -450 || e > 450 {
				continue // the Gram matrix itself would not be a float64
			}
			gf := math.Ldexp(1, 2*e)
			valsK, vecsK := g.Scale(complex(gf, 0)).EigenHermitianWS(ws)
			for j := range vals {
				if d := math.Abs(valsK[j]/gf-vals[j]) / vals[0]; d > 1e-12 {
					t.Fatalf("trial %d at 2^%d: eigenvalue %d is %g, want %g", trial, 2*e, j, valsK[j]/gf, vals[j])
				}
				if gap := projectorGap(vecsK.Col(j), vecs.Col(j)); gap > 1e-9 {
					t.Fatalf("trial %d at 2^%d: eigenvector %d off by %.3g", trial, 2*e, j, gap)
				}
			}
		}
		ws.Reset()
	}
	m := FromRows([][]complex128{{complex(1e-300, 1e300)}, {complex(-1e-300, 1e150)}})
	got := []Vector{NewVector(2)}
	if n := m.leadingJacobiInto(ws, got, 1e-12); n != 1 {
		t.Fatalf("%v: Jacobi path wrote %d vectors, want 1", m, n)
	}
	if err := leading2Ref(m, 1, got[0]); err != nil {
		t.Fatalf("%v: Jacobi path's vector %v: %v", m, got[0], err)
	}
}

// quadraticCorpus returns coefficient triples named by kind: Gaussian;
// scaled to the ends of the range; with the leading coefficient shrinking
// through the degree trim (c2 -> 0); with nearly double roots; and the
// alignment quadratics of the campus_fading corpus, formed as the M = 2
// solver forms them along a random line.
func quadraticCorpus(t *testing.T) map[string][]Poly {
	rng := rand.New(rand.NewSource(89))
	cn := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
	out := map[string][]Poly{}
	for i := 0; i < 400; i++ {
		out["gaussian"] = append(out["gaussian"], Poly{cn(), cn(), cn()})
	}
	for _, e := range []int{-900, -300, -40, 40, 300, 900} {
		s := complex(math.Ldexp(1, e), 0)
		for i := 0; i < 40; i++ {
			out["scaled"] = append(out["scaled"], Poly{s * cn(), s * cn(), s * cn()})
		}
	}
	for k := 6; k <= 16; k++ {
		for i := 0; i < 20; i++ {
			out["degree drop"] = append(out["degree drop"], Poly{cn(), cn(), cn() * complex(math.Pow(10, -float64(k)), 0)})
		}
	}
	for k := 2; k <= 14; k += 2 {
		for i := 0; i < 20; i++ {
			// (t - r)(t - r - δ) with |δ| = 10^-k |r|.
			r := cn()
			d := r * cn() * complex(math.Pow(10, -float64(k)), 0)
			out["near double"] = append(out["near double"], Poly{r * (r + d), -(2*r + d), 1})
		}
	}
	for _, g := range campusFadingAlignment(t) {
		c := LineDet2(g[0], g[1], Vector{cn(), cn()}, Vector{cn(), cn()})
		out["campus_fading"] = append(out["campus_fading"], c[:])
	}
	return out
}

// campusFadingAlignment reads the pairs (G1, G2) of 2x2 alignment
// matrices sampled from a seed-1 campus_fading run's M = 2 dependent
// direction calls (core's testdata).
func campusFadingAlignment(t *testing.T) [][2]*Matrix {
	data := readCorpus(t, "../core/testdata/campus_fading_dd.bin")
	var out [][2]*Matrix
	for ; len(data) >= 8; data = data[8:] {
		g1, g2 := New(2, 2), New(2, 2)
		copy(g1.data, data[:4])
		copy(g2.data, data[4:8])
		out = append(out, [2]*Matrix{g1, g2})
	}
	return out
}

// TestQuadraticRootsMatchDurandKerner runs QuadraticRootsInto beside
// RootsInto on the same coefficients: the root count, the error and the
// order must match and the roots agree to 1e-9. Durand-Kerner iterates
// to a fixed point on those float64 coefficients, which polishes its
// roots to within about an ulp of theirs; the closed form rounds a few
// more times, so here its errors need only stay within twice Durand-
// Kerner's. Against the exact polynomial of the solver's inputs the
// closed form is the more accurate, because it skips the interpolation
// (TestAlignmentQuadraticMatchesInterpolation).
func TestQuadraticRootsMatchDurandKerner(t *testing.T) {
	ws := NewWorkspace()
	corpus := quadraticCorpus(t)
	for _, kind := range []string{"gaussian", "scaled", "degree drop", "near double", "campus_fading"} {
		var closed, general errStats
		for i, p := range corpus[kind] {
			var got, want [2]complex128
			n, err := p.QuadraticRootsInto(ws, got[:])
			wantN, wantErr := p.RootsInto(ws, want[:])
			if n != wantN || !errors.Is(err, wantErr) {
				t.Fatalf("%s %d: %d roots (%v), Durand-Kerner %d (%v)", kind, i, n, err, wantN, wantErr)
			}
			if n == 0 {
				continue
			}
			ref := bigRoots(p, n)
			for j := 0; j < n; j++ {
				// The same root in the same place: 1e-9 relative to the
				// larger root, or the double root's own conditioning.
				tol := 1e-9 * max(cmplx.Abs(want[0]), cmplx.Abs(want[n-1]))
				if kind == "near double" {
					tol = max(tol, 1e-7*cmplx.Abs(want[j]))
				}
				if d := cmplx.Abs(got[j] - want[j]); d > tol {
					t.Fatalf("%s %d: root %d is %v, Durand-Kerner's %v (%.3g apart)", kind, i, j, got[j], want[j], d)
				}
				closed.add(rootErr(got[j], ref))
				general.add(rootErr(want[j], ref))
			}
		}
		checkWithin(t, kind, closed, general, 2)
	}
}

func TestRank2MatchesRankWS(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	cn := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
	var ms [][4]complex128
	for i := 0; i < 400; i++ {
		ms = append(ms, [4]complex128{cn(), cn(), cn(), cn()})
	}
	for k := 1; k <= 14; k++ {
		for i := 0; i < 40; i++ {
			// Columns v and c v + 10^-k w: the rank screen's input near
			// a dependent direction, on both sides of the 1e-7 rule.
			v0, v1, c := cn(), cn(), cn()
			eps := complex(math.Pow(10, -float64(k)), 0)
			ms = append(ms, [4]complex128{v0, c*v0 + eps*cn(), v1, c*v1 + eps*cn()})
		}
	}
	nan, inf := complex(math.NaN(), 0), complex(math.Inf(1), 0)
	ms = append(ms,
		[][4]complex128{{}, {1, 2, 2, 4}, {1i, 2, -1, 2i}, {0, 1, 0, 2}, {1, 0, 2, 0}, {0, 0, 0, 3},
			{nan, 1, 2, 3}, {1, nan, 2, 3}, {nan, nan, nan, nan}, {inf, 1, 2, 3}, {1, 2, 3, inf},
			{1e-300, 2e-300, 3e-300, 4e-300}, {1e300, 2e300, 3e300, 4e300}, {5e-324, 0, 0, 5e-324}}...)
	ws := NewWorkspace()
	for i, a := range ms {
		for _, tol := range []float64{1e-7, 1e-12, 0} {
			got := Rank2(a[0], a[1], a[2], a[3], tol)
			h := View(2, 2, a[:])
			want := h.RankWS(ws, tol)
			if got != want {
				t.Fatalf("matrix %d %v tol %g: Rank2 %d, RankWS %d", i, a, tol, got, want)
			}
		}
	}
}

func TestInverse2MatchesInverseWS(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ws := NewWorkspace()
	stats := map[string]*[2]errStats{}
	check := func(kind string, m *Matrix) {
		t.Helper()
		got, err := m.Inverse2WS(ws)
		want, wantErr := m.InverseWS(ws)
		if !errors.Is(err, wantErr) {
			t.Fatalf("%s %v: Inverse2WS error %v, InverseWS %v", kind, m, err, wantErr)
		}
		if err != nil {
			return
		}
		// Near-singular inverses agree only as far as their condition
		// number allows, so those compare by error alone.
		if d := got.Sub(want).MaxAbs(); d > 1e-9*want.MaxAbs() && kind != "near-singular" {
			t.Fatalf("%s %v: inverses %.3g apart", kind, m, d)
		}
		// Scaling by a power of two is exact in both kernels, so scaled
		// inputs add samples of the Gaussian ones' relative errors.
		group := kind
		if kind == "scaled" {
			group = "gaussian"
		}
		if stats[group] == nil {
			stats[group] = new([2]errStats)
		}
		stats[group][0].add(bigInverseErr(m, got))
		stats[group][1].add(bigInverseErr(m, want))
	}
	for i := 0; i < 400; i++ {
		check("gaussian", RandomGaussian(rng, 2, 2))
	}
	for _, e := range []int{-900, -300, -40, 40, 300, 900} {
		for i := 0; i < 40; i++ {
			check("scaled", RandomGaussian(rng, 2, 2).Scale(complex(math.Ldexp(1, e), 0)))
		}
	}
	for k := 3; k <= 12; k++ {
		for i := 0; i < 20; i++ {
			v, c := RandomGaussianVector(rng, 2), complex(rng.NormFloat64(), rng.NormFloat64())
			w := v.Scale(c).Add(RandomGaussianVector(rng, 2).Scale(complex(math.Pow(10, -float64(k)), 0)))
			check("near-singular", FromColumns(v, w))
		}
	}
	for _, m := range [][4]complex128{{}, {1, 2, 2, 4}, {0, 1, 0, 2}, {1, 0, 2, 0}, {3, 1i, 0, 0}, {2i, 1, 4i, 2}} {
		h := View(2, 2, m[:])
		check("singular", h.Clone())
	}
	if stats["singular"] != nil {
		t.Errorf("a singular matrix was inverted")
	}
	for _, kind := range []string{"gaussian", "near-singular"} {
		checkNoWorse(t, kind, stats[kind][0], stats[kind][1])
	}
}

// sampledLineDet is the general path's determinant polynomial along
// d = x + t y: the determinants of [g1 d, g2 d] at the alignment
// solver's three sample points, by LU, interpolated.
func sampledLineDet(ws *Workspace, g1, g2 *Matrix, x, y Vector) Poly {
	ts, vals := make([]complex128, 3), make([]complex128, 3)
	for i := range ts {
		ts[i] = complex(float64(i)-1, float64(i%2)+0.5)
		d := x.Add(y.Scale(ts[i]))
		h := FromColumns(g1.MulVec(d), g2.MulVec(d))
		vals[i] = h.DetWS(ws)
	}
	coeffs := make(Poly, 3)
	InterpolatePolyInto(ws, coeffs, ts, vals)
	return coeffs
}

// TestAlignmentQuadraticMatchesInterpolation runs the M = 2 alignment
// quadratic, LineDet2 rooted by QuadraticRootsInto, beside the general
// path it replaces, sampled LU determinants interpolated and rooted by
// Durand-Kerner, on the same (g1, g2, x, y): the campus_fading corpus's
// alignment matrices and G = H0 H1^-1 products of Gaussian channels,
// each along random lines, plus nearly aligned pencils (g2 nearly a
// multiple of g1) and lines whose t^2 coefficient vanishes (the degree
// drops). Root counts, errors and order must match, the roots agree to
// 1e-9, and the closed form's error against the exact roots of the
// exact polynomial is no worse than the general path's.
func TestAlignmentQuadraticMatchesInterpolation(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	cn := func() complex128 { return complex(rng.NormFloat64(), rng.NormFloat64()) }
	ws := NewWorkspace()
	type input struct {
		g1, g2 *Matrix
		x, y   Vector
	}
	corpus := map[string][]input{}
	for _, g := range campusFadingAlignment(t) {
		corpus["campus_fading"] = append(corpus["campus_fading"], input{g[0], g[1], Vector{cn(), cn()}, Vector{cn(), cn()}})
	}
	for i := 0; i < 300; i++ {
		var g [2]*Matrix
		for j := range g {
			inv, err := RandomGaussian(rng, 2, 2).Inverse()
			if err != nil {
				t.Fatal(err)
			}
			g[j] = RandomGaussian(rng, 2, 2).Mul(inv)
		}
		corpus["channels"] = append(corpus["channels"], input{g[0], g[1], Vector{cn(), cn()}, Vector{cn(), cn()}})
	}
	for k := 4; k <= 12; k++ {
		for i := 0; i < 20; i++ {
			g1 := RandomGaussian(rng, 2, 2)
			g2 := g1.Scale(cn()).Add(RandomGaussian(rng, 2, 2).Scale(complex(math.Pow(10, -float64(k)), 0)))
			corpus["nearly aligned"] = append(corpus["nearly aligned"], input{g1, g2, Vector{cn(), cn()}, Vector{cn(), cn()}})
		}
	}
	for i := 0; i < 40; i++ {
		g1 := RandomGaussian(rng, 2, 2)
		// y an eigenvector of g1^-1 g2 makes g1 y and g2 y parallel: the
		// t^2 coefficient vanishes, up to rounding, and the degree drops.
		g2 := RandomGaussian(rng, 2, 2)
		inv, err := g1.Inverse()
		if err != nil {
			t.Fatal(err)
		}
		_, y, err := inv.Mul(g2).AnyEigenvectorWS(ws)
		if err != nil {
			t.Fatal(err)
		}
		corpus["degree drop"] = append(corpus["degree drop"], input{g1, g2, Vector{cn(), cn()}, y.Clone()})
	}
	for _, kind := range []string{"campus_fading", "channels", "nearly aligned", "degree drop"} {
		var closed, general errStats
		for i, in := range corpus[kind] {
			c := LineDet2(in.g1, in.g2, in.x, in.y)
			var got, want [2]complex128
			n, err := Poly(c[:]).QuadraticRootsInto(ws, got[:])
			wantN, wantErr := sampledLineDet(ws, in.g1, in.g2, in.x, in.y).RootsInto(ws, want[:])
			if n != wantN || !errors.Is(err, wantErr) {
				t.Fatalf("%s %d: %d roots (%v), general path %d (%v)", kind, i, n, err, wantN, wantErr)
			}
			if n == 0 {
				continue
			}
			if n == 2 && cmplx.Abs(got[0]-want[0]) > cmplx.Abs(got[0]-want[1]) {
				t.Fatalf("%s %d: roots %v, general path %v: order differs", kind, i, got, want)
			}
			ref := bigRootsOf(bigLineDet(in.g1, in.g2, in.x, in.y), n)
			for j := 0; j < n; j++ {
				// Nearly aligned pencils cancel in every coefficient, so
				// both paths' roots are only as good as the pencil's
				// conditioning; those compare by order and error only.
				tol := 1e-9 * max(1, cmplx.Abs(want[0]), cmplx.Abs(want[n-1]))
				if d := cmplx.Abs(got[j] - want[j]); d > tol && kind != "nearly aligned" {
					t.Fatalf("%s %d: root %d is %v, general path %v (%.3g apart)", kind, i, j, got[j], want[j], d)
				}
				closed.add(rootErr(got[j], ref))
				general.add(rootErr(want[j], ref))
			}
		}
		checkNoWorse(t, kind, closed, general)
	}
}

// perpCorpus returns 2-vectors named by kind: Gaussian, scaled to the
// ends of the range, and with one entry far below the other (the
// complement then lies close to a standard basis vector).
func perpCorpus() map[string][]Vector {
	rng := rand.New(rand.NewSource(137))
	out := map[string][]Vector{}
	for i := 0; i < 400; i++ {
		out["gaussian"] = append(out["gaussian"], RandomGaussianVector(rng, 2))
	}
	for _, e := range []int{-900, -300, -40, 40, 300, 900} {
		for i := 0; i < 40; i++ {
			out["scaled"] = append(out["scaled"], RandomGaussianVector(rng, 2).Scale(complex(math.Ldexp(1, e), 0)))
		}
	}
	for k := 3; k <= 15; k += 3 {
		for i := 0; i < 40; i++ {
			v := RandomGaussianVector(rng, 2)
			v[i%2] *= complex(math.Pow(10, -float64(k)), 0)
			out["lopsided"] = append(out["lopsided"], v)
		}
	}
	return out
}

// TestPerp2MatchesGeneral runs Perp2 beside the two general kernels it
// stands in for in the M = 2 chain solver: OrthogonalComplementVectorWS
// on one vector (the decoding direction u1 at AP 0, and
// matchedFreeVectorWS's) and NullSpaceWS on the 1x2 row r = conj(a)
// (the B-set packet's null vector). Both general kernels find exactly
// one vector for every nonzero input, as Perp2 does; the vectors span
// the same line to 1e-9, except where the general kernel is the one off
// the exact line (its norms square unscaled entries, so at 2^-900 and
// 2^900 they underflow or overflow), and Perp2's projector error
// against the math/big reference is no worse, or within roundingFloor
// where both round to a few units in the last place. A zero vector is
// declined.
func TestPerp2MatchesGeneral(t *testing.T) {
	ws := NewWorkspace()
	if _, _, ok := Perp2(0, 0); ok {
		t.Fatal("Perp2 accepted the zero vector")
	}
	for _, kind := range []string{"gaussian", "scaled", "lopsided"} {
		var closed, compl, null errStats
		generalOff := 0
		for i, a := range perpCorpus()[kind] {
			p0, p1, ok := Perp2(a[0], a[1])
			if !ok {
				t.Fatalf("%s %d: Perp2 declined %v", kind, i, a)
			}
			got := Vector{p0, p1}
			c := OrthogonalComplementVectorWS(ws, 2, 1e-12, []Vector{a})
			row := View(1, 2, []complex128{cmplx.Conj(a[0]), cmplx.Conj(a[1])})
			ns := row.NullSpaceWS(ws, 1e-9)
			if c == nil || len(ns) != 1 {
				t.Fatalf("%s %d: complement %v, %d null vectors", kind, i, c, len(ns))
			}
			ref := projectorOf(bigOf(-cmplx.Conj(a[1])), bigOf(cmplx.Conj(a[0])))
			cErr, gErr, nErr := ref.err(got), ref.err(c), ref.err(ns[0])
			if projectorGap(got, c) > 1e-9 || projectorGap(got, ns[0]) > 1e-9 {
				if !(cErr <= 1e-12 && max(gErr, nErr) > 1e-9 && kind == "scaled") {
					t.Fatalf("%s %d: Perp2 %v, complement %v, null vector %v (errors %.3g, %.3g, %.3g)", kind, i, got, c, ns[0], cErr, gErr, nErr)
				}
				generalOff++
			}
			closed.add(cErr)
			compl.add(gErr)
			null.add(nErr)
			ws.Reset()
		}
		t.Logf("%s: general kernels off the reference on %d inputs", kind, generalOff)
		checkNoWorseAbove(t, kind+" vs complement", closed, compl)
		checkNoWorseAbove(t, kind+" vs null space", closed, null)
	}
}

// TestUnit2MulHVec2MatchGeneral checks the two helpers of the M = 2
// solver tail against their general twins and the math/big reference:
// Unit2 against NormalizeWS (the same decisions: a zero vector is
// declined where NormalizeWS returns it unchanged) and MulHVec2 against
// MulHVecInto, values within 1e-15 of each other relative to the
// largest and errors no worse or within roundingFloor.
func TestUnit2MulHVec2MatchGeneral(t *testing.T) {
	ws := NewWorkspace()
	if _, _, ok := Unit2(0, 0); ok {
		t.Fatal("Unit2 accepted the zero vector")
	}
	rng := rand.New(rand.NewSource(139))
	var unitC, unitG, mulC, mulG errStats
	for i := 0; i < 400; i++ {
		v := RandomGaussianVector(rng, 2)
		u0, u1, ok := Unit2(v[0], v[1])
		if !ok {
			t.Fatalf("%d: Unit2 declined %v", i, v)
		}
		want := v.NormalizeWS(ws)
		if d := (Vector{u0, u1}).Sub(want).Norm(); d > 1e-15 {
			t.Fatalf("%d: Unit2 %v, NormalizeWS %v", i, Vector{u0, u1}, want)
		}
		ref := bigUnit(bigOf(v[0]), bigOf(v[1]))
		unitC.add(bigVecErr(Vector{u0, u1}, ref))
		unitG.add(bigVecErr(want, ref))

		m := RandomGaussian(rng, 2, 2)
		h0, h1 := m.MulHVec2(v[0], v[1])
		gen := NewVector(2)
		m.MulHVecInto(gen, v)
		mref := bigMulH(m, v)
		scale := max(bigFloat(mref[0].abs()), bigFloat(mref[1].abs()))
		if d := (Vector{h0, h1}).Sub(gen).Norm() / scale; d > 1e-15 {
			t.Fatalf("%d: MulHVec2 %v, MulHVecInto %v", i, Vector{h0, h1}, gen)
		}
		mulC.add(bigVecErr(Vector{h0, h1}, mref) / scale)
		mulG.add(bigVecErr(gen, mref) / scale)
		ws.Reset()
	}
	checkNoWorseAbove(t, "Unit2", unitC, unitG)
	checkNoWorseAbove(t, "MulHVec2", mulC, mulG)
}

// zfGeneral is the zero-forcing projection ZeroForce2 stands in for:
// zfDecodingVectorWS's Gram-Schmidt path on one interference direction
// (an orthonormal basis of a, the rejection of s from it, the
// 1e-9 |s| rule and the normalization), with nil for no decoder.
func zfGeneral(ws *Workspace, a, s Vector) Vector {
	basis := OrthonormalBasisWS(ws, 1e-12, []Vector{a})
	w := s.Clone()
	for _, b := range basis {
		w.RejectInPlace(b)
	}
	if w.Norm() < 1e-9*s.Norm() {
		return nil
	}
	return w.NormalizeWS(ws)
}

// zfCases returns (a, s) pairs named by kind: Gaussian; scaled to the
// ends of the range; the planner's near-nulls, s a multiple of a plus
// noise 10^-3..10^-8 below it (a decoder) or 10^-11..10^-14 below it
// and exactly parallel (none); and pairs from the campus_fading
// corpus's interference matrices, a column against the next or a
// Gaussian signal.
func zfCases(t *testing.T) map[string][][2]Vector {
	rng := rand.New(rand.NewSource(149))
	out := map[string][][2]Vector{}
	for i := 0; i < 400; i++ {
		out["gaussian"] = append(out["gaussian"], [2]Vector{RandomGaussianVector(rng, 2), RandomGaussianVector(rng, 2)})
	}
	for _, e := range []int{-900, -300, -40, 40, 300, 900} {
		f := complex(math.Ldexp(1, e), 0)
		for i := 0; i < 40; i++ {
			a, s := RandomGaussianVector(rng, 2), RandomGaussianVector(rng, 2)
			if i%2 == 0 {
				a = a.Scale(f)
			} else {
				s = s.Scale(f)
			}
			out["scaled"] = append(out["scaled"], [2]Vector{a, s})
		}
	}
	for _, k := range []int{3, 4, 5, 6, 7, 8, 11, 12, 13, 14} {
		for i := 0; i < 20; i++ {
			a := RandomGaussianVector(rng, 2)
			c := complex(rng.NormFloat64(), rng.NormFloat64())
			noise := RandomGaussianVector(rng, 2).Scale(c * complex(math.Pow(10, -float64(k)), 0))
			out["parallel"] = append(out["parallel"], [2]Vector{a, a.Scale(c).Add(noise)})
		}
	}
	for i := 0; i < 20; i++ {
		a := RandomGaussianVector(rng, 2)
		out["parallel"] = append(out["parallel"], [2]Vector{a, a.Scale(complex(rng.NormFloat64(), rng.NormFloat64()))})
	}
	for _, m := range zfCorpus(t)["campus_fading"] {
		s := RandomGaussianVector(rng, 2)
		if m.Cols() > 1 {
			s = m.Col(1)
		}
		out["campus_fading"] = append(out["campus_fading"], [2]Vector{m.Col(0), s})
	}
	return out
}

// TestZeroForce2MatchesGeneral runs ZeroForce2 beside the Gram-Schmidt
// projection it stands in for (zfGeneral). The decisions must match —
// a decoder or none — and the decoders agree to 1e-9 as vectors (both
// are phased so that w^H s > 0), except where the general kernel is the
// one further from the exact decoder: at 2^-900 and 2^900, where its
// norms underflow or overflow, and for s within 10^-8 of a's line,
// where both phases rest on a few digits of p^H s and its rejection
// cancels to fewer. ZeroForce2's error against the math/big decoder
// must be no worse.
func TestZeroForce2MatchesGeneral(t *testing.T) {
	ws := NewWorkspace()
	cases := zfCases(t)
	for _, kind := range []string{"gaussian", "scaled", "parallel", "campus_fading"} {
		var closed, general errStats
		generalOff, none := 0, 0
		for i, c := range cases[kind] {
			a, s := c[0], c[1]
			w0, w1, null, ok := ZeroForce2(a[0], a[1], s[0], s[1], 1e-9)
			if !ok {
				t.Fatalf("%s %d: ZeroForce2 declined a=%v s=%v", kind, i, a, s)
			}
			want := zfGeneral(ws, a, s)
			ref, refOK := bigZeroForce(a, s)
			if null != (want == nil) {
				t.Fatalf("%s %d: ZeroForce2 null %v, general %v (a=%v s=%v)", kind, i, null, want, a, s)
			}
			if null {
				none++
				ws.Reset()
				continue
			}
			if !refOK {
				t.Fatalf("%s %d: a decoder for s on a's line", kind, i)
			}
			got := Vector{w0, w1}
			cErr, gErr := bigVecErr(got, ref), bigVecErr(want, ref)
			if d := got.Sub(want).Norm(); d > 1e-9 {
				if !(cErr < gErr && (kind == "scaled" || kind == "parallel")) {
					t.Fatalf("%s %d: ZeroForce2 %v, general %v (%.3g apart, errors %.3g and %.3g)", kind, i, got, want, d, cErr, gErr)
				}
				generalOff++
			}
			closed.add(cErr)
			general.add(gErr)
			ws.Reset()
		}
		t.Logf("%s: no decoder on %d inputs, general kernel off the reference on %d", kind, none, generalOff)
		checkNoWorse(t, kind, closed, general)
	}
}
