package cmplxmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func approxEq(t *testing.T, got, want complex128, eps float64, msg string) {
	t.Helper()
	if cmplx.Abs(got-want) > eps {
		t.Fatalf("%s: got %v, want %v", msg, got, want)
	}
}

func TestVectorAddSubScale(t *testing.T) {
	v := Vector{1 + 2i, 3}
	w := Vector{2, -1i}
	sum := v.Add(w)
	approxEq(t, sum[0], 3+2i, tol, "add[0]")
	approxEq(t, sum[1], 3-1i, tol, "add[1]")
	diff := v.Sub(w)
	approxEq(t, diff[0], -1+2i, tol, "sub[0]")
	sc := v.Scale(2i)
	approxEq(t, sc[0], -4+2i, tol, "scale[0]")
	// Receivers untouched.
	approxEq(t, v[0], 1+2i, 0, "v unmodified")
}

func TestVectorDotConjugation(t *testing.T) {
	v := Vector{1i, 0}
	// <v,v> must be real positive for nonzero v.
	d := v.Dot(v)
	approxEq(t, d, 1, tol, "dot self")
	w := Vector{1, 0}
	// <v,w> = conj(i)*1 = -i
	approxEq(t, v.Dot(w), -1i, tol, "dot conj")
}

func TestVectorNormNormalize(t *testing.T) {
	v := Vector{3, 4i}
	if got := v.Norm(); math.Abs(got-5) > tol {
		t.Fatalf("norm: got %v want 5", got)
	}
	u := v.Normalize()
	if math.Abs(u.Norm()-1) > tol {
		t.Fatalf("normalize: norm %v", u.Norm())
	}
	z := Vector{0, 0}
	if zn := z.Normalize(); zn.Norm() != 0 {
		t.Fatalf("normalize zero changed the vector")
	}
}

// TestVectorNormExtremeScales checks Norm where the plain sum of squares
// underflows to zero (parts near 1e-170) or overflows (parts near
// 1e160): the norm is still the scaled one, and a normalized vector is
// unit. On ordinary vectors, zero, Inf and NaN it keeps the plain sum's
// bits.
func TestVectorNormExtremeScales(t *testing.T) {
	plain := func(v Vector) float64 {
		var s float64
		for _, z := range v {
			s += real(z)*real(z) + imag(z)*imag(z)
		}
		return math.Sqrt(s)
	}
	for _, c := range []struct {
		v    Vector
		want float64
	}{
		{Vector{1e-170 + 2e-170i, 3e-170}, math.Sqrt(14) * 1e-170},
		{Vector{5e-324, 0}, 5e-324},
		{Vector{1e160, 1e160i}, math.Sqrt2 * 1e160},
		{Vector{3e160 - 4e160i, 0, 1e-170}, 5e160},
		{Vector{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
	} {
		got := c.v.Norm()
		if math.Abs(got-c.want) > 4e-16*c.want && got != c.want {
			t.Errorf("|%v| = %v, want %v", c.v, got, c.want)
		}
		if u := c.v.Normalize(); !math.IsInf(c.want, 0) && math.Abs(plain(u)-1) > 1e-15 {
			t.Errorf("%v normalized to %v, norm %v", c.v, u, plain(u))
		}
	}
	rng := rand.New(rand.NewSource(3))
	for _, v := range []Vector{
		{3, 4i}, {0, 0}, {complex(math.Inf(-1), 1), 0}, {complex(math.NaN(), 0), 1},
		RandomGaussianVector(rng, 2), RandomGaussianVector(rng, 5).Scale(1e-100),
	} {
		if got, want := v.Norm(), plain(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("|%v| = %v, plain sum %v", v, got, want)
		}
	}
}

func TestParallelTo(t *testing.T) {
	v := Vector{1 + 1i, 2}
	w := v.Scale(3 - 2i) // complex multiple: still aligned
	if !v.ParallelTo(w, 1e-9) {
		t.Fatal("complex scalar multiple should be parallel")
	}
	u := Vector{1, 0}
	x := Vector{0, 1}
	if u.ParallelTo(x, 1e-9) {
		t.Fatal("orthogonal vectors reported parallel")
	}
}

func TestParallelToPhaseRotation(t *testing.T) {
	// Section 6(a) of the paper: a frequency offset rotates the received
	// vector by e^{j 2 pi df t}, a unit-magnitude scalar, and alignment in
	// the antenna-spatial domain must be unaffected.
	rng := rand.New(rand.NewSource(1))
	v := RandomGaussianVector(rng, 4)
	for _, phase := range []float64{0.1, 1.0, 2.5, math.Pi} {
		rot := v.Scale(cmplx.Exp(complex(0, phase)))
		if !v.ParallelTo(rot, 1e-9) {
			t.Fatalf("rotation by %v broke alignment", phase)
		}
	}
}

func TestAngleTo(t *testing.T) {
	u := Vector{1, 0}
	x := Vector{0, 1}
	if a := u.AngleTo(x); math.Abs(a-math.Pi/2) > tol {
		t.Fatalf("angle orthogonal: %v", a)
	}
	if a := u.AngleTo(u.Scale(2i)); a > 1e-6 {
		t.Fatalf("angle parallel: %v", a)
	}
}

func TestProjectReject(t *testing.T) {
	v := Vector{3, 4}
	w := Vector{1, 0}
	p := v.ProjectOnto(w)
	approxEq(t, p[0], 3, tol, "proj[0]")
	approxEq(t, p[1], 0, tol, "proj[1]")
	r := v.Clone()
	r.RejectInPlace(w)
	approxEq(t, r.Dot(w), 0, tol, "rejection orthogonal")
}

func TestOrthonormalBasisDropsDependents(t *testing.T) {
	v1 := Vector{1, 0, 0}
	v2 := Vector{1, 1, 0}
	v3 := v1.Add(v2) // dependent
	basis := OrthonormalBasisWS(NewWorkspace(), 1e-9, []Vector{v1, v2, v3})
	if len(basis) != 2 {
		t.Fatalf("basis size: got %d want 2", len(basis))
	}
	for i, b := range basis {
		if math.Abs(b.Norm()-1) > tol {
			t.Fatalf("basis[%d] not unit", i)
		}
		for j := i + 1; j < len(basis); j++ {
			if cmplx.Abs(b.Dot(basis[j])) > tol {
				t.Fatalf("basis[%d],basis[%d] not orthogonal", i, j)
			}
		}
	}
}

func TestOrthogonalComplementVector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 2; n <= 5; n++ {
		var span []Vector
		for k := 0; k < n-1; k++ {
			span = append(span, RandomGaussianVector(rng, n))
		}
		c := OrthogonalComplementVector(n, 1e-9, span...)
		if c == nil {
			t.Fatalf("n=%d: no complement found", n)
		}
		for i, s := range span {
			if cmplx.Abs(c.Dot(s)) > 1e-8*s.Norm() {
				t.Fatalf("n=%d: complement not orthogonal to span[%d]", n, i)
			}
		}
	}
}

func TestOrthogonalComplementVectorFullSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 3
	var span []Vector
	for k := 0; k < n; k++ {
		span = append(span, RandomGaussianVector(rng, n))
	}
	if c := OrthogonalComplementVector(n, 1e-9, span...); c != nil {
		t.Fatalf("full span should have no complement, got %v", c)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]complex128{{1, 2i}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatal("shape")
	}
	approxEq(t, m.At(0, 1), 2i, 0, "At")
	m2 := m.Clone()
	m2.SetAt(0, 0, 9)
	approxEq(t, m.At(0, 0), 1, 0, "Clone isolation")
	c := m.Col(1)
	approxEq(t, c[0], 2i, 0, "Col")
}

func TestFromColumns(t *testing.T) {
	m := FromColumns(Vector{1, 2}, Vector{3, 4})
	approxEq(t, m.At(0, 1), 3, 0, "FromColumns")
	approxEq(t, m.At(1, 0), 2, 0, "FromColumns")
}

func TestMatrixMul(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{0, 1}, {1, 0}})
	c := a.Mul(b)
	approxEq(t, c.At(0, 0), 2, tol, "mul 00")
	approxEq(t, c.At(0, 1), 1, tol, "mul 01")
	approxEq(t, c.At(1, 0), 4, tol, "mul 10")
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	v := a.MulVec(Vector{1, 1})
	approxEq(t, v[0], 3, tol, "mulvec 0")
	approxEq(t, v[1], 7, tol, "mulvec 1")
}

// TestIntoKernelsMatchHeap pins SubInto and MulVecInto, the slot
// evaluator's direction-table products, to Sub and MulVec bit for bit,
// on n x n shapes up to 5 x 5.
func TestIntoKernelsMatchHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 5; n++ {
		a, b := RandomGaussian(rng, n, n), RandomGaussian(rng, n, n)
		v := RandomGaussianVector(rng, n)
		d := View(n, n, make([]complex128, n*n))
		a.SubInto(&d, b)
		if !bitEqualC(d.data, a.Sub(b).data) {
			t.Fatalf("n=%d: SubInto diverged from Sub", n)
		}
		y := NewVector(n)
		d.MulVecInto(y, v)
		if !bitEqualC(y, a.Sub(b).MulVec(v)) {
			t.Fatalf("n=%d: MulVecInto diverged from MulVec", n)
		}
	}
}

// TestUnrolled2MatchesLoop pins the unrolled 2x2 mulVecData and the
// length-2 Dot to the general loops they stand in for, bit for bit, on
// entries drawn from signed zeros, ones, Gaussians and extreme values,
// so that every sign of zero a sum can produce is exercised.
func TestUnrolled2MatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	parts := []float64{0, math.Copysign(0, -1), 1, -1, 1e-300, -1e300, math.Inf(1)}
	part := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64()
		}
		return parts[rng.Intn(len(parts))]
	}
	entry := func() complex128 { return complex(part(), part()) }
	for trial := 0; trial < 20000; trial++ {
		h := []complex128{entry(), entry(), entry(), entry()}
		v := Vector{entry(), entry()}
		var want [2]complex128
		for i := 0; i < 2; i++ {
			var s complex128
			for j := 0; j < 2; j++ {
				s += h[i*2+j] * v[j]
			}
			want[i] = s
		}
		y := NewVector(2)
		mulVecData(h, 2, 2, v, y)
		if !bitEqualC(y, want[:]) {
			t.Fatalf("mulVecData(%v, %v) = %v, loop %v", h, v, y, want)
		}
		var dot complex128
		for i := range v {
			dot += cmplx.Conj(v[i]) * h[i]
		}
		if got := v.Dot(Vector(h[:2])); !bitEqualC([]complex128{got}, []complex128{dot}) {
			t.Fatalf("%v.Dot(%v) = %v, loop %v", v, h[:2], got, dot)
		}
	}
}

func TestTransposeHermitian(t *testing.T) {
	a := FromRows([][]complex128{{1 + 1i, 2}, {3, 4 - 1i}})
	at := a.T()
	approxEq(t, at.At(0, 1), 3, 0, "T")
	approxEq(t, at.At(0, 0), 1+1i, 0, "T no conj")
	ah := a.H()
	approxEq(t, ah.At(0, 0), 1-1i, 0, "H conj")
	approxEq(t, ah.At(1, 0), 2, 0, "H transpose")
}

func TestIdentityDiagonalTrace(t *testing.T) {
	i3 := Identity(3)
	approxEq(t, i3.Trace(), 3, 0, "trace identity")
	d := Diagonal(1, 2i, -3)
	approxEq(t, d.Trace(), -2+2i, 0, "trace diagonal")
	approxEq(t, d.At(1, 1), 2i, 0, "diag entry")
	approxEq(t, d.At(0, 1), 0, 0, "off diag")
}

func TestDet2x2(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	approxEq(t, a.Det(), -2, tol, "det 2x2")
	s := FromRows([][]complex128{{1, 2}, {2, 4}})
	approxEq(t, s.Det(), 0, tol, "det singular")
}

func TestDetComplex(t *testing.T) {
	a := FromRows([][]complex128{{1i, 0}, {0, 1i}})
	approxEq(t, a.Det(), -1, tol, "det i*I")
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 6; n++ {
		a := RandomGaussian(rng, n, n)
		inv, err := a.Inverse()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !a.Mul(inv).Equal(Identity(n), 1e-8) {
			t.Fatalf("n=%d: A*inv(A) != I", n)
		}
		if !inv.Mul(a).Equal(Identity(n), 1e-8) {
			t.Fatalf("n=%d: inv(A)*A != I", n)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	s := FromRows([][]complex128{{1, 2}, {2, 4}})
	if _, err := s.Inverse(); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 2; n <= 5; n++ {
		a := RandomGaussian(rng, n, n)
		want := RandomGaussianVector(rng, n)
		b := a.MulVec(want)
		got, err := a.Solve(b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Sub(want).Norm() > 1e-8 {
			t.Fatalf("n=%d: solve residual %v", n, got.Sub(want).Norm())
		}
	}
}

func TestRank(t *testing.T) {
	full := FromRows([][]complex128{{1, 0}, {0, 1}})
	if r := full.Rank(1e-9); r != 2 {
		t.Fatalf("rank full: %d", r)
	}
	def := FromRows([][]complex128{{1, 2}, {2, 4}})
	if r := def.Rank(1e-9); r != 1 {
		t.Fatalf("rank deficient: %d", r)
	}
	zero := New(3, 3)
	if r := zero.Rank(1e-9); r != 0 {
		t.Fatalf("rank zero: %d", r)
	}
	rect := FromRows([][]complex128{{1, 0, 0}, {0, 1, 0}})
	if r := rect.Rank(1e-9); r != 2 {
		t.Fatalf("rank rect: %d", r)
	}
}

func TestNullSpace(t *testing.T) {
	// Rank-1 2x2: null space is 1-dimensional.
	a := FromRows([][]complex128{{1, 2}, {2, 4}})
	ns := a.NullSpace(1e-9)
	if len(ns) != 1 {
		t.Fatalf("null space dim: %d", len(ns))
	}
	if av := a.MulVec(ns[0]); av.Norm() > 1e-8 {
		t.Fatalf("A*null = %v", av)
	}
	// A wide 1x3 row has a 2-dim null space.
	row := FromRows([][]complex128{{1, 1i, -2}})
	ns2 := row.NullSpace(1e-9)
	if len(ns2) != 2 {
		t.Fatalf("wide null space dim: %d", len(ns2))
	}
	for i, v := range ns2 {
		if row.MulVec(v).Norm() > 1e-8 {
			t.Fatalf("wide null vec %d not in kernel", i)
		}
	}
}

func TestNullSpaceZeroMatrix(t *testing.T) {
	ns := New(2, 3).NullSpace(1e-9)
	if len(ns) != 3 {
		t.Fatalf("zero matrix null dim: %d", len(ns))
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := FromRows([][]complex128{{3, 0}, {0, 4i}})
	if got := a.FrobeniusNorm(); math.Abs(got-5) > tol {
		t.Fatalf("frobenius: %v", got)
	}
}

func TestCharPolyAndEigen2x2(t *testing.T) {
	// Matrix with known eigenvalues 1 and 3: [[2,1],[1,2]].
	a := FromRows([][]complex128{{2, 1}, {1, 2}})
	ws := NewWorkspace()
	vals, err := a.CharPolyWS(ws).RootsWS(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 {
		t.Fatalf("eigenvalue count %d", len(vals))
	}
	seen1, seen3 := false, false
	for _, v := range vals {
		if cmplx.Abs(v-1) < 1e-8 {
			seen1 = true
		}
		if cmplx.Abs(v-3) < 1e-8 {
			seen3 = true
		}
	}
	if !seen1 || !seen3 {
		t.Fatalf("eigenvalues %v, want {1,3}", vals)
	}
}

func TestEigenvectorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ws := NewWorkspace()
	for n := 2; n <= 5; n++ {
		for trial := 0; trial < 10; trial++ {
			a := RandomGaussian(rng, n, n)
			lambda, v, err := a.AnyEigenvectorWS(ws)
			if err != nil {
				t.Fatalf("n=%d trial=%d: %v", n, trial, err)
			}
			res := a.MulVec(v).Sub(v.Scale(lambda))
			if res.Norm() > 1e-6*(1+a.MaxAbs()) {
				t.Fatalf("n=%d trial=%d: residual %v", n, trial, res.Norm())
			}
			if math.Abs(v.Norm()-1) > 1e-8 {
				t.Fatalf("eigenvector not unit")
			}
		}
	}
}

func TestEigenHermitian(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 2; n <= 6; n++ {
		g := RandomGaussian(rng, n, n)
		herm := g.Add(g.H()) // Hermitian by construction
		vals, vecs := herm.EigenHermitian()
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-9 {
				t.Fatalf("n=%d: eigenvalues not descending: %v", n, vals)
			}
		}
		// A*v = lambda*v for each column.
		for j := 0; j < n; j++ {
			v := vecs.Col(j)
			res := herm.MulVec(v).Sub(v.Scale(complex(vals[j], 0)))
			if res.Norm() > 1e-7*(1+herm.MaxAbs()) {
				t.Fatalf("n=%d col=%d: residual %v", n, j, res.Norm())
			}
		}
		// Unitary eigenvector matrix.
		if !vecs.H().Mul(vecs).Equal(Identity(n), 1e-8) {
			t.Fatalf("n=%d: eigenvectors not orthonormal", n)
		}
	}
}

func TestSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shapes := [][2]int{{2, 2}, {3, 3}, {4, 4}, {3, 2}, {2, 3}, {5, 3}}
	for _, sh := range shapes {
		a := RandomGaussian(rng, sh[0], sh[1])
		u, s, v := a.SVD()
		k := len(s)
		// Reconstruct.
		d := New(k, k)
		for i := 0; i < k; i++ {
			d.SetAt(i, i, complex(s[i], 0))
		}
		recon := u.Mul(d).Mul(v.H())
		if !recon.Equal(a, 1e-7) {
			t.Fatalf("shape %v: SVD reconstruction failed", sh)
		}
		// Descending singular values, nonnegative.
		for i := range s {
			if s[i] < 0 {
				t.Fatalf("negative singular value %v", s[i])
			}
			if i > 0 && s[i] > s[i-1]+1e-9 {
				t.Fatalf("singular values not sorted: %v", s)
			}
		}
		if !u.H().Mul(u).Equal(Identity(k), 1e-7) {
			t.Fatalf("shape %v: U columns not orthonormal", sh)
		}
		if !v.H().Mul(v).Equal(Identity(k), 1e-7) {
			t.Fatalf("shape %v: V columns not orthonormal", sh)
		}
	}
}

func TestPolyEvalRoots(t *testing.T) {
	// (z-1)(z-2i) = z^2 - (1+2i)z + 2i
	p := Poly{2i, -(1 + 2i), 1}
	roots, err := p.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 {
		t.Fatalf("root count %d", len(roots))
	}
	for _, r := range roots {
		if cmplx.Abs(p.Eval(r)) > 1e-9 {
			t.Fatalf("root %v gives residual %v", r, p.Eval(r))
		}
	}
}

func TestPolyRootsHighDegree(t *testing.T) {
	// Product of (z - k) for k=1..6: roots must be recovered.
	p := Poly{1}
	for k := 1; k <= 6; k++ {
		// p *= (z - k)
		np := make(Poly, len(p)+1)
		for i, c := range p {
			np[i+1] += c
			np[i] -= c * complex(float64(k), 0)
		}
		p = np
	}
	roots, err := p.Roots()
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 6; k++ {
		found := false
		for _, r := range roots {
			if cmplx.Abs(r-complex(float64(k), 0)) < 1e-6 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("missing root %d in %v", k, roots)
		}
	}
}

func TestPolyDegree(t *testing.T) {
	if d := (Poly{0, 0, 0}).Degree(1e-12); d != -1 {
		t.Fatalf("zero poly degree %d", d)
	}
	if d := (Poly{1, 2, 1e-20}).Degree(1e-12); d != 1 {
		t.Fatalf("trimmed degree %d", d)
	}
	if _, err := (Poly{5}).Roots(); err == nil {
		t.Fatal("constant poly should have no roots")
	}
}

func TestInterpolatePoly(t *testing.T) {
	// Recover z^3 - 2z + 1 from 4 samples.
	want := Poly{1, -2, 0, 1}
	xs := []complex128{0, 1, -1, 2i}
	ys := make([]complex128, len(xs))
	for i, x := range xs {
		ys[i] = want.Eval(x)
	}
	got := InterpolatePolyWS(NewWorkspace(), xs, ys)
	for i := range want {
		approxEq(t, got[i], want[i], 1e-9, "coeff")
	}
}

// quickCmplx converts testing/quick float pairs into bounded complex values.
func quickCmplx(re, im float64) complex128 {
	bound := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0.5
		}
		return math.Mod(x, 10)
	}
	return complex(bound(re), bound(im))
}

func TestQuickDotSymmetry(t *testing.T) {
	// Property: <v,w> = conj(<w,v>).
	f := func(a, b, c, d, e, g, h, k float64) bool {
		v := Vector{quickCmplx(a, b), quickCmplx(c, d)}
		w := Vector{quickCmplx(e, g), quickCmplx(h, k)}
		return cmplx.Abs(v.Dot(w)-cmplx.Conj(w.Dot(v))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDetMultiplicative(t *testing.T) {
	// Property: det(AB) = det(A)det(B) for 2x2.
	f := func(a1, a2, a3, a4, b1, b2, b3, b4 float64) bool {
		a := FromRows([][]complex128{
			{quickCmplx(a1, a2), quickCmplx(a3, a4)},
			{quickCmplx(a4, a1), quickCmplx(a2, a3)},
		})
		b := FromRows([][]complex128{
			{quickCmplx(b1, b2), quickCmplx(b3, b4)},
			{quickCmplx(b4, b1), quickCmplx(b2, b3)},
		})
		lhs := a.Mul(b).Det()
		rhs := a.Det() * b.Det()
		scale := 1 + cmplx.Abs(lhs) + cmplx.Abs(rhs)
		return cmplx.Abs(lhs-rhs) < 1e-7*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParallelInvariantUnderScaling(t *testing.T) {
	// Property (paper Section 6a): scaling by any nonzero complex number,
	// e.g. a frequency-offset rotation, preserves alignment.
	f := func(a, b, c, d, sr, si float64) bool {
		v := Vector{quickCmplx(a, b), quickCmplx(c, d)}
		s := quickCmplx(sr, si)
		if cmplx.Abs(s) < 1e-3 || v.Norm() < 1e-3 {
			return true // ill-conditioned; skip
		}
		return v.ParallelTo(v.Scale(s), 1e-8)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInverseRoundTrip(t *testing.T) {
	f := func(a1, a2, a3, a4, a5, a6, a7, a8 float64) bool {
		a := FromRows([][]complex128{
			{quickCmplx(a1, a2), quickCmplx(a3, a4)},
			{quickCmplx(a5, a6), quickCmplx(a7, a8)},
		})
		if cmplx.Abs(a.Det()) < 1e-3 {
			return true // nearly singular; skip
		}
		inv, err := a.Inverse()
		if err != nil {
			return false
		}
		return a.Mul(inv).Equal(Identity(2), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGaussianStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := RandomGaussian(rng, 100, 100)
	// Mean magnitude of CN(0,1) entries: E|h|^2 = 1.
	var power float64
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			power += math.Pow(cmplx.Abs(m.At(i, j)), 2)
		}
	}
	power /= 1e4
	if math.Abs(power-1) > 0.05 {
		t.Fatalf("CN(0,1) power: got %v want ~1", power)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("dim mismatch add", func() { Vector{1}.Add(Vector{1, 2}) })
	mustPanic("bad index", func() { New(2, 2).At(2, 0) })
	mustPanic("non-square trace", func() { New(2, 3).Trace() })
	mustPanic("mul shape", func() { New(2, 3).Mul(New(2, 3)) })
	mustPanic("new invalid", func() { New(0, 1) })
	mustPanic("non-hermitian eigen", func() {
		FromRows([][]complex128{{0, 1}, {0, 0}}).EigenHermitian()
	})
	mustPanic("angle zero", func() { Vector{0, 0}.AngleTo(Vector{1, 0}) })
}
