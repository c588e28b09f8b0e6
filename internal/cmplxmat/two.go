package cmplxmat

import "math"

// Closed-form kernels for M = 2, the planners' common size: the leading
// left singular vector of a 2-row matrix, the 2x2 singular value
// decomposition, the roots of a quadratic, the 2x2 inverse and rank by
// the adjugate, and the unit vector orthogonal to a 2-vector with the
// zero-forcing decoder built on it. Each stands
// in for a general kernel (Jacobi sweeps, Durand-Kerner, LU
// elimination, Gram-Schmidt) that stays the only path for larger sizes
// and for inputs the closed form declines.
// They share three rules:
//
//   - Every product that feeds a sum is rounded by an explicit float64
//     conversion, which is how the Go spec forbids a fused multiply-add,
//     so the kernels give the same bits on every architecture
//     (.github/fma.sh checks their arm64 code). Complex products are
//     spelled out in real parts for that reason (Mul).
//   - Operands are scaled by a power of two, set by their largest part,
//     before anything is squared. The scaling is exact, and no square
//     can overflow or underflow to a relevant degree.
//   - An operand with an Inf or NaN part, or one too close to the ends of
//     the float64 range to scale, goes to the general kernel unchanged;
//     Rank2, which has none to go to, follows RankWS's rules for them.

// Mul returns a*b, with each of its four partial products rounded
// before the sums: the bits of Go's complex multiplication on a machine
// that does not fuse, on every machine.
func Mul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

// Abs2 returns |z|^2, with both squares rounded before the sum.
func Abs2(z complex128) float64 {
	return float64(real(z)*real(z)) + float64(imag(z)*imag(z))
}

// det2 returns the determinant a00*a11 - a01*a10 of a 2x2 matrix.
func det2(a00, a01, a10, a11 complex128) complex128 {
	return Mul(a00, a11) - Mul(a01, a10)
}

// MulVec2 returns m (v0, v1) for a 2x2 m, every product rounded.
func (m *Matrix) MulVec2(v0, v1 complex128) (complex128, complex128) {
	if m.rows != 2 || m.cols != 2 {
		panic("cmplxmat: MulVec2 needs a 2x2 matrix")
	}
	return Mul(m.data[0], v0) + Mul(m.data[1], v1), Mul(m.data[2], v0) + Mul(m.data[3], v1)
}

// Apply2 returns m (v0, v1) for a 2x2 m with the bits of MulVecInto:
// it is mulVec2, the 2x2 body of MulVecInto's kernel, whose sums start
// from zero (0 + m00 v0 + m01 v1), which turns a -0 first product into
// +0. MulVec2 leaves that zero out.
func (m *Matrix) Apply2(v0, v1 complex128) (complex128, complex128) {
	if m.rows != 2 || m.cols != 2 {
		panic("cmplxmat: Apply2 needs a 2x2 matrix")
	}
	return mulVec2(m.data[:4], v0, v1)
}

// SubApply2 returns (m - b)(v0, v1) for 2x2 m and b: the difference
// formed entry by entry as SubInto forms it, then applied by Apply2's
// kernel, so it is m.SubInto(d, b) followed by d.MulVecInto.
func (m *Matrix) SubApply2(b *Matrix, v0, v1 complex128) (complex128, complex128) {
	if m.rows != 2 || m.cols != 2 || b.rows != 2 || b.cols != 2 {
		panic("cmplxmat: SubApply2 needs 2x2 matrices")
	}
	x, y := m.data[:4], b.data[:4]
	d := [4]complex128{x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]}
	return mulVec2(d[:], v0, v1)
}

// mulVec2 returns h (v0, v1) for the 2x2 matrix h packed row-major,
// each sum started from zero and every product rounded.
func mulVec2(h []complex128, v0, v1 complex128) (complex128, complex128) {
	h = h[:4]
	return 0 + Mul(h[0], v0) + Mul(h[1], v1), 0 + Mul(h[2], v0) + Mul(h[3], v1)
}

// Scaled2 returns the entries of the 2x2 m, row-major, multiplied by
// the power of two that brings its largest part into [1, 2): m up to
// an exact positive factor. ok is false when m is zero, has an Inf or
// NaN part, or is out of scaling range (see pow2Scale).
func (m *Matrix) Scaled2() (a [4]complex128, ok bool) {
	a, _, ok = m.scaled2()
	return a, ok
}

// scaled2 is Scaled2 that also returns up, the power of two that scales
// the entries back.
func (m *Matrix) scaled2() (a [4]complex128, up float64, ok bool) {
	if m.rows != 2 || m.cols != 2 {
		panic("cmplxmat: a 2x2 kernel needs a 2x2 matrix")
	}
	down, up, ok := pow2Scale(maxPartOf(m.data[:4]...))
	if !ok {
		return a, 0, false
	}
	for i := range a {
		a[i] = scaleBy(m.data[i], down)
	}
	return a, up, true
}

// MulHVec2 returns m^H (v0, v1) for a 2x2 m, every product rounded.
func (m *Matrix) MulHVec2(v0, v1 complex128) (complex128, complex128) {
	if m.rows != 2 || m.cols != 2 {
		panic("cmplxmat: MulHVec2 needs a 2x2 matrix")
	}
	return Inner2(m.data[0], m.data[2], v0, v1), Inner2(m.data[1], m.data[3], v0, v1)
}

// Inner2 returns the Hermitian inner product conj(a0) b0 + conj(a1) b1,
// its products rounded before the sum.
func Inner2(a0, a1, b0, b1 complex128) complex128 {
	return Mul(complex(real(a0), -imag(a0)), b0) + Mul(complex(real(a1), -imag(a1)), b1)
}

// LineDet2 returns the coefficients, in ascending powers, of the
// quadratic det[g1 d, g2 d] along the line d = x + t y, for 2x2 g1 and
// g2 and 2-vectors x and y: with a = g1 x, b = g1 y, c = g2 x and
// e = g2 y, it is det[a c] + (det[a e] + det[b c]) t + det[b e] t^2.
// This is the alignment solver's determinant polynomial at M = 2,
// formed directly instead of interpolated from sampled determinants.
// Where a product of the entries overflows (a coefficient is not
// finite, from matrices near 2^1000), it is formed again on g1 and g2
// each scaled by a power of two (Scaled2): that multiplies every
// coefficient by the same positive factor, which moves no root in t.
// Inputs whose products stay finite keep the unscaled bits.
func LineDet2(g1, g2 *Matrix, x, y Vector) [3]complex128 {
	p := lineDet2(g1, g2, x, y)
	if maxPartOf(p[:]...) <= math.MaxFloat64 {
		return p
	}
	a1, ok1 := g1.Scaled2()
	a2, ok2 := g2.Scaled2()
	if !ok1 || !ok2 {
		return p
	}
	s1, s2 := View(2, 2, a1[:]), View(2, 2, a2[:])
	return lineDet2(&s1, &s2, x, y)
}

// lineDet2 is LineDet2 on the matrices as given.
func lineDet2(g1, g2 *Matrix, x, y Vector) [3]complex128 {
	a0, a1 := g1.MulVec2(x[0], x[1])
	b0, b1 := g1.MulVec2(y[0], y[1])
	c0, c1 := g2.MulVec2(x[0], x[1])
	e0, e1 := g2.MulVec2(y[0], y[1])
	return [3]complex128{
		det2(a0, c0, a1, c1),
		det2(a0, e0, a1, e1) + det2(b0, c0, b1, c1),
		det2(b0, e0, b1, e1),
	}
}

// scaleBy returns z with both parts multiplied by the real s.
func scaleBy(z complex128, s float64) complex128 {
	return complex(real(z)*s, imag(z)*s)
}

// quo returns a/b by Smith's algorithm, the one the Go runtime divides
// complex128 values by, with its products rounded. b must be nonzero.
func quo(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	if math.Abs(br) >= math.Abs(bi) {
		r := bi / br
		den := br + float64(r*bi)
		return complex((ar+float64(ai*r))/den, (ai-float64(ar*r))/den)
	}
	r := br / bi
	den := bi + float64(r*br)
	return complex((float64(ar*r)+ai)/den, (float64(ai*r)-ar)/den)
}

// sqrtC returns the principal square root of w. Its modulus comes from
// modulus, so no part is squared.
func sqrtC(w complex128) complex128 {
	if w == 0 {
		return 0
	}
	u, v := real(w), imag(w)
	a, b := math.Abs(u), math.Abs(v)
	t := math.Sqrt(0.5 * (modulus(w) + a))
	if u >= 0 {
		return complex(t, v/(2*t))
	}
	return complex(b/(2*t), math.Copysign(t, v))
}

// modulus returns |z| as big*sqrt(1 + (small/big)^2) over the
// magnitudes of its parts, so no part is squared: it neither overflows
// nor loses a tiny z to underflow.
func modulus(z complex128) float64 {
	a, b := math.Abs(real(z)), math.Abs(imag(z))
	hi, lo := max(a, b), min(a, b)
	if hi == 0 {
		return 0
	}
	r := lo / hi
	return float64(hi * math.Sqrt(1+float64(r*r)))
}

// exponent returns e with x = 1.f * 2^e for a normal x; ok is false for
// a zero, subnormal, Inf or NaN x.
func exponent(x float64) (e int, ok bool) {
	b := int(math.Float64bits(x) >> 52 & 0x7ff)
	return b - 1023, b != 0 && b != 0x7ff
}

// pow2 returns 2^k for -1022 <= k <= 1023.
func pow2(k int) float64 { return math.Float64frombits(uint64(1023+k) << 52) }

// pow2Scale returns 2^-e and 2^e for the exponent e of x, so that
// x*2^-e lies in [1, 2). ok is false for a zero, subnormal, Inf or NaN
// x, and for |e| > 1000, where 2^-e and a scaled operand's products
// could leave the normal range.
func pow2Scale(x float64) (down, up float64, ok bool) {
	e, ok := exponent(x)
	if !ok || e < -1000 || e > 1000 {
		return 0, 0, false
	}
	return pow2(-e), pow2(e), true
}

// maxPartOf returns the largest maxPart over zs, NaN if any part is NaN.
// It takes the maximum on bit patterns: with the sign bit cleared, the
// patterns of non-NaN floats order as their magnitudes do when read as
// unsigned integers, and every NaN pattern lies above +Inf's, so one
// integer maximum finds the largest part or a NaN, with no float
// comparison's special cases to branch on.
func maxPartOf(zs ...complex128) float64 {
	const abs = 1<<63 - 1
	var b uint64
	for _, z := range zs {
		b = max(b, math.Float64bits(real(z))&abs, math.Float64bits(imag(z))&abs)
	}
	return math.Float64frombits(b)
}

// leading2Into is LeadingLeftSingularInto's closed form for a 2-row m
// when only the leading vector is asked for; it writes it into dst[0].
// The vector and its singular value s0 come from leading2. s0 goes
// through LeadingLeftSingularInto's rel and aboveNull tests, and a null
// s0 takes the same SVDWS fallback. ok is false when the Jacobi path
// must run instead (see leading2).
func (m *Matrix) leading2Into(ws *Workspace, dst []Vector, rel float64) (n int, ok bool) {
	k := m.cols
	u0, u1, s0, clear, ok := leading2(m.data[:k], m.data[k:2*k])
	if !ok {
		return 0, false
	}
	if s0 <= rel*s0 {
		return 0, true
	}
	if !clear && !(s0 > m.nullTol()) {
		return m.svdLeadingInto(ws, dst[:1], rel), true
	}
	dst[0][0], dst[0][1] = u0, u1
	return 1, true
}

// Leading2 is LeadingLeftSingularInto for one vector of the 2-row
// matrix with rows x and y, on scalars: it returns the vector the closed
// form computes, leading2Into's bits, with ok true only when
// LeadingLeftSingularInto(dst of one, rel) would write exactly that
// vector. On any other path (the closed form declines, no singular value
// is above rel, or s0 is near the null threshold) ok is false and the
// caller runs LeadingLeftSingularInto itself.
func Leading2(x, y []complex128, rel float64) (u0, u1 complex128, ok bool) {
	u0, u1, s0, clear, ok := leading2(x, y)
	if !ok || s0 <= rel*s0 || !clear {
		return 0, 0, false
	}
	return u0, u1, true
}

// leading2 is the closed form behind leading2Into and Leading2: the
// leading left singular vector (u0, u1) and singular value s0 of the
// 2-row matrix m with rows x and y, of equal length. The vector is the
// leading eigenvector of the 2x2 Hermitian m m^H = [[a, b], [conj(b), c]],
// with eigenvalue λ = (a+c)/2 + r, r = sqrt(h^2 + |b|^2) and h = (a-c)/2.
// Both (λ-c, conj(b)) = (h+r, conj(b)) and (b, λ-a) = (b, r-h) are
// eigenvectors; the kernel takes the one whose real entry adds two
// non-negative terms, so nothing cancels. clear reports that s0 passes
// aboveNull's cheap bound (clearOfNull), so it is above m's null
// threshold; when it is false the caller must compare s0 with nullTol
// itself. ok is false when the Jacobi path must
// run instead: m is zero, has an Inf or NaN part or is out of scaling
// range, or its two eigenvalues are too close to tell apart (r < 2^-480
// after scaling), where no leading vector is determined.
func leading2(x, y []complex128) (u0, u1 complex128, s0 float64, clear, ok bool) {
	pm := max(maxPartOf(x...), maxPartOf(y...))
	down, up, ok := pow2Scale(pm)
	if !ok {
		return 0, 0, 0, false, false
	}
	y = y[:len(x)]
	var a, c, br, bi float64
	for j := range x {
		x, y := scaleBy(x[j], down), scaleBy(y[j], down)
		a += Abs2(x)
		c += Abs2(y)
		br += float64(real(x)*real(y)) + float64(imag(x)*imag(y))
		bi += float64(imag(x)*real(y)) - float64(real(x)*imag(y))
	}
	h := float64(0.5 * (a - c))
	r := math.Sqrt(float64(h*h) + float64(br*br) + float64(bi*bi))
	if !(r >= 0x1p-480) {
		return 0, 0, 0, false, false
	}
	s0 = math.Sqrt(float64(0.5*(a+c))+r) * up
	if h >= 0 {
		u0, u1 = complex(h+r, 0), complex(br, -bi)
	} else {
		u0, u1 = complex(br, bi), complex(r-h, 0)
	}
	inv := 1 / math.Sqrt(Abs2(u0)+Abs2(u1))
	return scaleBy(u0, inv), scaleBy(u1, inv), s0, clearOfNull(s0, pm), true
}

// QuadraticRootsInto is RootsInto for a polynomial of at most three
// coefficients, in closed form. It trims the degree by the same
// Degree(1e-13) rule and returns the same count, or ErrNoRoots. A
// degree-1 polynomial's root is -p0/p1. A quadratic's roots come from
// the numerically stable formula q = -(p1 ± sqrt(p1^2 - 4 p2 p0))/2,
// the sign chosen so that nothing cancels, with roots q/p2 and p0/q.
// They are returned in Durand-Kerner's order: roots[0] is the root
// nearer to y1 = z1 - p(z1)/(p2 (z1 - z2)), Durand-Kerner's first
// iterate of its first root from the seeds z1 = 0.4+0.9i and z2 = z1^2.
// Coefficients with an Inf or NaN part, or all of them subnormal, go to
// RootsInto itself.
func (p Poly) QuadraticRootsInto(ws *Workspace, roots []complex128) (int, error) {
	if len(p) > 3 {
		panic("cmplxmat: QuadraticRootsInto needs at most three coefficients")
	}
	deg := p.Degree(1e-13)
	if deg < 1 {
		return 0, ErrNoRoots
	}
	e, ok := exponent(maxPartOf(p[:deg+1]...))
	if !ok {
		return p.RootsInto(ws, roots)
	}
	// Scale the largest part to [2^500, 2^501), in two exact steps: the
	// products below stay under 2^1005, and a coefficient as small as a
	// subnormal becomes a normal number with all its bits.
	s1, s2 := pow2((500-e)/2), pow2(500-e-(500-e)/2)
	var c [3]complex128
	for i := range p[:deg+1] {
		c[i] = scaleBy(scaleBy(p[i], s1), s2)
	}
	c0, c1, c2 := c[0], c[1], c[2]
	if deg == 1 {
		roots[0] = -quo(c0, c1)
		return 1, nil
	}
	sq := sqrtC(Mul(c1, c1) - Mul(c2, scaleBy(c0, 4)))
	if float64(real(c1)*real(sq))+float64(imag(c1)*imag(sq)) < 0 {
		sq = -sq
	}
	q := scaleBy(c1+sq, -0.5)
	var r1, r2 complex128 // q == 0 only for the double root 0
	if q != 0 {
		r1, r2 = quo(q, c2), quo(c0, q)
	}
	z1 := complex(0.4, 0.9)
	z2 := Mul(z1, z1)
	pz := Mul(Mul(c2, z1)+c1, z1) + c0
	y1 := z1 - quo(pz, Mul(c2, z1-z2))
	if Abs2(r2-y1) < Abs2(r1-y1) {
		r1, r2 = r2, r1
	}
	roots[0], roots[1] = r1, r2
	return 2, nil
}

// Rank2 is RankWS's rule for the 2x2 matrix [[a00, a01], [a10, a11]] in
// closed form. RankWS pivots on the larger entry of column 0; the entry
// left after eliminating is the determinant over the pivot, so the rank
// is 2 when |det| > tol*scale*|pivot|, with scale the largest entry
// magnitude. Magnitudes compare squared, on entries scaled by a power
// of two, so no Hypot runs; a decision can differ from RankWS's only
// where a magnitude rounds across the threshold. As in RankWS, a NaN
// entry never wins a comparison and an Inf entry makes the rank 0.
func Rank2(a00, a01, a10, a11 complex128, tol float64) int {
	pm := maxPartOf(a00, a01, a10, a11)
	if pm > 0 && pm < 0x1p-1000 {
		// Too small to scale in one step (2^-e may not be a float64).
		a00, a01, a10, a11 = scaleBy(a00, 0x1p1000), scaleBy(a01, 0x1p1000), scaleBy(a10, 0x1p1000), scaleBy(a11, 0x1p1000)
		pm *= 0x1p1000
	}
	if down, _, ok := pow2Scale(pm); ok {
		a00, a01, a10, a11 = scaleBy(a00, down), scaleBy(a01, down), scaleBy(a10, down), scaleBy(a11, down)
	}
	n00, n01, n10, n11 := Abs2(a00), Abs2(a01), Abs2(a10), Abs2(a11)
	var scale float64
	for _, v := range [4]float64{n00, n01, n10, n11} {
		if v > scale {
			scale = v
		}
	}
	if scale == 0 {
		return 0
	}
	thresh := float64(tol*tol) * scale
	piv, found := thresh, false
	if n00 > piv {
		piv, found = n00, true
	}
	if n10 > piv {
		piv, found = n10, true
	}
	if !found {
		// No pivot in column 0: the rank is column 1's.
		if n01 > thresh || n11 > thresh {
			return 1
		}
		return 0
	}
	det := det2(a00, a01, a10, a11)
	lhs, rhs := Abs2(det), thresh*piv
	if maxPart(det) < 0x1p-500 {
		// |det|^2 would underflow: compare both sides times 2^1000.
		lhs, rhs = Abs2(scaleBy(det, 0x1p500)), rhs*0x1p1000
	}
	if lhs > rhs {
		return 2
	}
	return 1
}

// Inverse2WS is InverseWS for a 2x2 m by the adjugate: with det =
// a00 a11 - a01 a10, the inverse is [[a11, -a01], [-a10, a00]] / det,
// one reciprocal and four products, on entries scaled by a power of two.
// It reports ErrSingular when det is exactly zero, as LU does when its
// last pivot is; the two can disagree only on a matrix singular to
// within rounding. A zero matrix, or an entry with an Inf or NaN part
// or out of scaling range, goes to InverseWS.
func (m *Matrix) Inverse2WS(ws *Workspace) (*Matrix, error) {
	if m.rows != 2 || m.cols != 2 {
		panic("cmplxmat: Inverse2WS needs a 2x2 matrix")
	}
	down, _, ok := pow2Scale(maxPartOf(m.data...))
	if !ok {
		return m.InverseWS(ws)
	}
	a, b, c, d := scaleBy(m.data[0], down), scaleBy(m.data[1], down), scaleBy(m.data[2], down), scaleBy(m.data[3], down)
	det := det2(a, b, c, d)
	if det == 0 {
		return nil, ErrSingular
	}
	// m^-1 = down * (down m)^-1.
	r := quo(complex(down, 0), det)
	inv := ws.Matrix(2, 2)
	inv.data[0], inv.data[1], inv.data[2], inv.data[3] = Mul(d, r), Mul(-b, r), Mul(-c, r), Mul(a, r)
	return inv, nil
}

// SingularValues2 returns the singular values s0 >= s1 of the 2x2 m in
// closed form: SVDWS's values up to rounding, with no arena. Their
// squares are the eigenvalues of the Gram matrix
// m^H m = [[p, q], [conj(q), r]], whose trace is t = |m|_F^2 and whose
// determinant is |det m|^2, so
//
//	s0^2 = t/2 + sqrt(h^2 + |q|^2),  h = (p - r)/2,  s1 = |det m|/s0.
//
// The root adds two squares, so nothing cancels in it. It equals
// sqrt((t - 2|det m|)(t + 2|det m|))/2, but t - 2|det m| cancels when
// the two values are close, and that form is off by up to sqrt(ε) s0
// there. s1 comes from the determinant, s1^2 = |det m|^2/s0^2, not from
// t/2 minus the root, where a small singular value would cancel away.
// The entries are scaled by a power of two first and the values scaled
// back. ok is false, and the caller must run SVDWS, when m is zero, has
// an Inf or NaN part, or is out of scaling range (see pow2Scale).
func (m *Matrix) SingularValues2() (s0, s1 float64, ok bool) {
	a, up, ok := m.scaled2()
	if !ok {
		return 0, 0, false
	}
	s0, s1 = singularValues2(a)
	return s0 * up, s1 * up, true
}

// singularValues2 is SingularValues2 on entries scaled into [1, 2). A
// rounded s1 can exceed s0 only where the two are equal to rounding,
// and is capped at s0.
func singularValues2(a [4]complex128) (s0, s1 float64) {
	p, r := Abs2(a[0])+Abs2(a[2]), Abs2(a[1])+Abs2(a[3])
	h := float64(0.5 * (p - r))
	root := math.Sqrt(float64(h*h) + Abs2(Inner2(a[0], a[2], a[1], a[3])))
	s0 = math.Sqrt(float64(0.5*(p+r)) + root)
	return s0, min(modulus(det2(a[0], a[1], a[2], a[3]))/s0, s0)
}

// SVD2 is SVDWS for a 2x2 m in closed form, its factors in the arena.
// The singular values are SingularValues2's. The right vectors are v0,
// the leading left singular vector of m^H (leading2, on the conjugated
// columns of m), and v1 = Perp2(v0). The left vectors are u0, the unit
// vector along m v0, and u1 = Perp2(u0) turned by the phase of its
// inner product with m v1, so that u_j^H m v_j is real and
// non-negative, as it is for SVDWS's m v_j / s_j. Where that product is
// zero (s1 = 0) u1 is Perp2(u0) itself, which is SVDWS's null
// completion up to phase. Taking u1's direction from u0 keeps it as
// accurate as u0 however small s1 is. When the singular values are
// equal to within leading2's resolution (r < 2^-480), every unit vector
// is a right singular vector and v0, v1 are the standard basis, as
// Jacobi leaves a Gram matrix that is already diagonal. The columns are
// SVDWS's up to phase and rounding. Inputs SingularValues2 declines go
// to SVDWS.
func (m *Matrix) SVD2(ws *Workspace) (u *Matrix, s []float64, v *Matrix) {
	a, up, ok := m.scaled2()
	if !ok {
		return m.SVDWS(ws)
	}
	s0, s1 := singularValues2(a)
	x := [2]complex128{complex(real(a[0]), -imag(a[0])), complex(real(a[2]), -imag(a[2]))}
	y := [2]complex128{complex(real(a[1]), -imag(a[1])), complex(real(a[3]), -imag(a[3]))}
	v00, v10, _, _, ok := leading2(x[:], y[:])
	if !ok {
		v00, v10 = 1, 0
	}
	v01, v11, _ := Perp2(v00, v10)
	// |m v0| = s0 >= 1 after scaling, so neither Unit2 nor Perp2 declines.
	u00, u10, _ := Unit2(mulVec2(a[:], v00, v10))
	u01, u11, _ := Perp2(u00, u10)
	w0, w1 := mulVec2(a[:], v01, v11)
	if c := Inner2(u01, u11, w0, w1); c != 0 {
		if maxPartOf(c) < 0x1p-1000 {
			// Exact, and it gives a subnormal c a modulus with all its
			// bits, so the phase below is unit.
			c = scaleBy(c, 0x1p1000)
		}
		mc := modulus(c)
		ph := complex(real(c)/mc, imag(c)/mc)
		u01, u11 = Mul(u01, ph), Mul(u11, ph)
	}
	s = ws.Floats(2)
	s[0], s[1] = s0*up, s1*up
	u, v = ws.Matrix(2, 2), ws.Matrix(2, 2)
	u.data[0], u.data[1], u.data[2], u.data[3] = u00, u01, u10, u11
	v.data[0], v.data[1], v.data[2], v.data[3] = v00, v01, v10, v11
	return u, s, v
}

// Unit2 returns (z0, z1) scaled to unit norm, with the norm taken on
// the entries scaled by a power of two, so nothing squared can overflow
// or underflow. ok is false, and the caller must take a general path,
// when both entries are zero, a part is Inf or NaN, or the largest part
// is out of scaling range (see pow2Scale).
func Unit2(z0, z1 complex128) (u0, u1 complex128, ok bool) {
	down, _, ok := pow2Scale(maxPartOf(z0, z1))
	if !ok {
		return 0, 0, false
	}
	z0, z1 = scaleBy(z0, down), scaleBy(z1, down)
	inv := 1 / math.Sqrt(Abs2(z0)+Abs2(z1))
	return scaleBy(z0, inv), scaleBy(z1, inv), true
}

// Perp2 returns the unit vector (-conj(a1), conj(a0))/|a| orthogonal to
// the 2-vector a, declining as Unit2 does. It is the complement that
// OrthogonalComplementVectorWS finds for one vector in two dimensions,
// up to phase, and, for a = conj(r), the null vector of the 1x2 row r
// that NullSpaceWS finds for a nonzero row, up to phase.
func Perp2(a0, a1 complex128) (p0, p1 complex128, ok bool) {
	u0, u1, ok := Unit2(a0, a1)
	return complex(-real(u1), imag(u1)), complex(real(u0), -imag(u0)), ok
}

// ZeroForce2 is the zero-forcing decoder in two dimensions: the unit
// vector along the part of the signal direction s orthogonal to the
// interference direction a. With p = (-conj(a1), conj(a0)), orthogonal
// to a and as long, that part is p (p^H s)/|p|^2, so the decoder is p
// times the phase of p^H s over |p|, which makes its inner product with
// s real and positive, as the projection's is. null reports that
// |p^H s| < tol |p| |s|, compared squared: the signal has no part off a
// that tol can tell from rounding, and there is no decoder. a and s
// are each scaled by a power of two first, which changes neither the
// direction, the phase nor the ratio. ok is false, and the caller must
// take the general path, when a or s is one Unit2 declines.
func ZeroForce2(a0, a1, s0, s1 complex128, tol float64) (w0, w1 complex128, null, ok bool) {
	da, _, okA := pow2Scale(maxPartOf(a0, a1))
	ds, _, okS := pow2Scale(maxPartOf(s0, s1))
	if !okA || !okS {
		return 0, 0, false, false
	}
	p0 := complex(-real(a1)*da, imag(a1)*da)
	p1 := complex(real(a0)*da, -imag(a0)*da)
	s0, s1 = scaleBy(s0, ds), scaleBy(s1, ds)
	c := Inner2(p0, p1, s0, s1)
	c2, p2 := Abs2(c), Abs2(p0)+Abs2(p1)
	if c2 < float64(tol*tol)*float64(p2*(Abs2(s0)+Abs2(s1))) {
		return 0, 0, true, true
	}
	ph := scaleBy(c, 1/math.Sqrt(float64(p2*c2)))
	return Mul(p0, ph), Mul(p1, ph), false, true
}
