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
		declined, jacobiOff := 0, 0
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
				// Allowed only where Jacobi is the one off the exact
				// vector: its convergence test is absolute, so at small
				// scales it stops before rotating, and its Gram
				// overflows at large ones.
				if !(cErr <= 1e-12 && gErr > 1e-9) {
					t.Fatalf("%s %d: projectors %.3g apart (errors %.3g closed, %.3g Jacobi):\n closed %v\n Jacobi %v", kind, i, gap, cErr, gErr, got[0], want[0])
				}
				jacobiOff++
			}
			closed.add(cErr)
			general.add(gErr)
		}
		if declined > 0 || (jacobiOff > 0 && kind != "scaled") {
			t.Errorf("%s: closed form declined %d inputs, Jacobi off the reference on %d", kind, declined, jacobiOff)
		}
		t.Logf("%s: Jacobi off the reference on %d inputs", kind, jacobiOff)
		checkNoWorse(t, kind, closed, general)
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
