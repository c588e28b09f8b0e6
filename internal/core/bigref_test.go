package core

import (
	"math"
	"math/big"

	"iaclan/internal/cmplxmat"
)

// Reference arithmetic for the closed-form M = 2 solver tail
// (tail2WS) and dependent directions (DependentDirections2), in
// math/big at 512 bits, after cmplxmat's bigref_test.go:
// the inputs are float64s, so the products and sums below are exact or
// rounded far below float64's precision.

type bigC struct{ re, im *big.Float }

func newBig() *big.Float { return new(big.Float).SetPrec(512) }

func bigOf(z complex128) bigC {
	return bigC{newBig().SetFloat64(real(z)), newBig().SetFloat64(imag(z))}
}

func (a bigC) add(b bigC) bigC { return bigC{newBig().Add(a.re, b.re), newBig().Add(a.im, b.im)} }
func (a bigC) sub(b bigC) bigC { return bigC{newBig().Sub(a.re, b.re), newBig().Sub(a.im, b.im)} }
func (a bigC) conj() bigC      { return bigC{a.re, newBig().Neg(a.im)} }
func (a bigC) neg() bigC       { return bigC{newBig().Neg(a.re), newBig().Neg(a.im)} }

func (a bigC) mul(b bigC) bigC {
	re := newBig().Sub(newBig().Mul(a.re, b.re), newBig().Mul(a.im, b.im))
	im := newBig().Add(newBig().Mul(a.re, b.im), newBig().Mul(a.im, b.re))
	return bigC{re, im}
}

func (a bigC) abs2() *big.Float {
	return newBig().Add(newBig().Mul(a.re, a.re), newBig().Mul(a.im, a.im))
}

func bigFloat(x *big.Float) float64 {
	f, _ := x.Float64()
	return f
}

// bigMulVec returns g v exactly for a 2x2 g.
func bigMulVec(g *cmplxmat.Matrix, v [2]bigC) [2]bigC {
	var out [2]bigC
	for i := range out {
		out[i] = bigOf(g.At(i, 0)).mul(v[0]).add(bigOf(g.At(i, 1)).mul(v[1]))
	}
	return out
}

// bigMulHVec returns h^H v exactly for a 2x2 h.
func bigMulHVec(h *cmplxmat.Matrix, v [2]bigC) [2]bigC {
	var out [2]bigC
	for j := range out {
		out[j] = bigOf(h.At(0, j)).conj().mul(v[0]).add(bigOf(h.At(1, j)).conj().mul(v[1]))
	}
	return out
}

// bigInner returns a^H b exactly.
func bigInner(a, b [2]bigC) bigC { return a[0].conj().mul(b[0]).add(a[1].conj().mul(b[1])) }

// bigOfV converts a 2-vector.
func bigOfV(v cmplxmat.Vector) [2]bigC { return [2]bigC{bigOf(v[0]), bigOf(v[1])} }

// tail2Errors measures a chain plan's M = 2 tail against the exact
// construction from the same dependent direction d: with x = G_1 d and
// n = (-conj(x1), conj(x0)) the exact normal of the aligned line at
// AP 0, the B-set vector v_b must satisfy n^H H_b v_b = 0, and packet 0's
// vector must lie along H_0^H n. It returns the B-set residual
// |n^H H_b v_b| / (|n| |H_b v_b|) and the largest entry of |e e^H - P|
// for packet 0's vector e and the exact projector P onto H_0^H n; each
// is 0 where H_b v_b or H_0^H n is zero and there is nothing to
// measure.
func tail2Errors(prep *UplinkPrep, d cmplxmat.Vector, enc []cmplxmat.Vector) (bResid, enc0Err float64) {
	cs, owners, b := prep.cs, prep.layout.owners, prep.layout.bSet[0]
	x := bigMulVec(prep.gs[0], bigOfV(d))
	n := [2]bigC{x[1].conj().neg(), x[0].conj()}
	hv := bigMulVec(cs[owners[b]][0], bigOfV(enc[b]))
	den := newBig().Mul(newBig().Add(n[0].abs2(), n[1].abs2()), newBig().Add(hv[0].abs2(), hv[1].abs2()))
	if den.Sign() > 0 {
		bResid = bigFloat(newBig().Sqrt(newBig().Quo(bigInner(n, hv).abs2(), den)))
	}
	f := bigMulHVec(cs[owners[0]][0], n)
	f2 := newBig().Add(f[0].abs2(), f[1].abs2())
	if f2.Sign() == 0 {
		return bResid, 0 // packet 0 is drawn: nothing to measure
	}
	inv := newBig().Quo(newBig().SetInt64(1), f2)
	e := bigOfV(enc[0])
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			p := f[i].mul(f[j].conj())
			p = bigC{newBig().Mul(p.re, inv), newBig().Mul(p.im, inv)}
			diff := e[i].mul(e[j].conj()).sub(p)
			enc0Err = max(enc0Err, bigFloat(newBig().Sqrt(diff.abs2())))
		}
	}
	return bResid, enc0Err
}

func (a bigC) scale(s *big.Float) bigC { return bigC{newBig().Mul(a.re, s), newBig().Mul(a.im, s)} }

func (a bigC) isZero() bool { return a.re.Sign() == 0 && a.im.Sign() == 0 }

// quo returns a/b for a nonzero b.
func (a bigC) quo(b bigC) bigC {
	return a.mul(b.conj()).scale(newBig().Quo(newBig().SetInt64(1), b.abs2()))
}

// sqrt returns a square root of a, by the cancellation-free formula of
// cmplxmat's sqrtC.
func (a bigC) sqrt() bigC {
	if a.isZero() {
		return a
	}
	half := newBig().SetFloat64(0.5)
	abs := newBig().Sqrt(a.abs2())
	t := newBig().Sqrt(newBig().Mul(half, newBig().Add(abs, newBig().Abs(a.re))))
	other := newBig().Quo(newBig().Abs(a.im), newBig().Add(t, t))
	if a.re.Sign() >= 0 {
		if a.im.Sign() < 0 {
			other.Neg(other)
		}
		return bigC{t, other}
	}
	if a.im.Sign() < 0 {
		t.Neg(t)
	}
	return bigC{other, t}
}

// bigPencil returns the exact dependent directions of the M = 2 pencil
// G_1 - λ G_2 (see UplinkPrep.DependentDirections2): the roots of
// det(G_1 - λ G_2), formed exactly and rooted at 512 bits, and at each
// the null vector (-r1, r0) of the larger row r of G_1 - λ G_2. It also
// returns cond, the size of the direction error that a relative
// rounding of ε = 2^-52 in each product of the quadratic's
// coefficients and in G_1 - λ G_2 causes. A coefficient p_i, a sum of
// products of total magnitude P_i, moves by up to ε P_i, and a root λ
// by δλ = ε Σ P_i |λ|^i / |p'(λ)|, with |p'(λ)| = |p2| |λ - λ'|, or by
// sqrt(ε Σ P_i |λ|^i / |p2|) where that is smaller (near a double
// root). The direction turns through s (the distance between the two
// directions' projectors) from one root to the other, so it moves by
// about s δλ / |λ - λ'|; the row's rounding adds ε (|a_r| + |λ| |b_r|)
// / |r|. Near a repeated root, or where the coefficients cancel, cond
// is large: no float64 computation of the directions is more accurate
// than that. ok is false when there is no such pair: an entry is not
// finite, det G_2 is exactly zero (a root at infinity), or a root's
// rows both vanish.
func bigPencil(g1, g2 *cmplxmat.Matrix) (dirs [2][2]bigC, cond float64, ok bool) {
	var a, b [4]bigC
	for i := 0; i < 4; i++ {
		x, y := g1.At(i/2, i%2), g2.At(i/2, i%2)
		if !finite(x) || !finite(y) {
			return dirs, 0, false
		}
		a[i], b[i] = bigOf(x), bigOf(y)
	}
	p := [3]bigC{
		a[0].mul(a[3]).sub(a[1].mul(a[2])),
		a[1].mul(b[2]).add(b[1].mul(a[2])).sub(a[0].mul(b[3])).sub(b[0].mul(a[3])),
		b[0].mul(b[3]).sub(b[1].mul(b[2])),
	}
	mag := func(x bigC) float64 { return math.Sqrt(bigFloat(x.abs2())) }
	terms := [3]float64{
		mag(a[0])*mag(a[3]) + mag(a[1])*mag(a[2]),
		mag(a[1])*mag(b[2]) + mag(b[1])*mag(a[2]) + mag(a[0])*mag(b[3]) + mag(b[0])*mag(a[3]),
		mag(b[0])*mag(b[3]) + mag(b[1])*mag(b[2]),
	}
	if p[2].isZero() {
		return dirs, 0, false
	}
	sq := p[1].mul(p[1]).sub(p[2].mul(p[0]).scale(newBig().SetInt64(4))).sqrt()
	twoP2 := p[2].scale(newBig().SetInt64(2))
	neg := p[1].scale(newBig().SetInt64(-1))
	roots := [2]bigC{neg.add(sq).quo(twoP2), neg.sub(sq).quo(twoP2)}
	var rowTerm [2]float64
	for k, l := range roots {
		r0, r1 := a[0].sub(l.mul(b[0])), a[1].sub(l.mul(b[1]))
		s0, s1 := a[2].sub(l.mul(b[2])), a[3].sub(l.mul(b[3]))
		ar, br := [2]bigC{a[0], a[1]}, [2]bigC{b[0], b[1]}
		if newBig().Add(s0.abs2(), s1.abs2()).Cmp(newBig().Add(r0.abs2(), r1.abs2())) > 0 {
			r0, r1 = s0, s1
			ar, br = [2]bigC{a[2], a[3]}, [2]bigC{b[2], b[3]}
		}
		if r0.isZero() && r1.isZero() {
			return dirs, 0, false
		}
		dirs[k] = [2]bigC{r1.neg(), r0}
		norm := func(v [2]bigC) float64 { return math.Hypot(mag(v[0]), mag(v[1])) }
		rowTerm[k] = (norm(ar) + mag(l)*norm(br)) / norm([2]bigC{r0, r1})
	}
	const eps = 0x1p-52
	s := bigProjectorGap(dirs[0], dirs[1])
	gap, p2 := mag(roots[0].sub(roots[1])), mag(p[2])
	for k, l := range roots {
		var sum float64
		for i, c := range terms {
			sum += c * math.Pow(mag(l), float64(i))
		}
		dl := min(eps*sum/(p2*gap), math.Sqrt(eps*sum/p2))
		cond = max(cond, dl*s/gap+eps*rowTerm[k])
	}
	return dirs, cond, true
}

// finite reports that both parts of z are finite.
func finite(z complex128) bool {
	return !math.IsInf(real(z), 0) && !math.IsNaN(real(z)) && !math.IsInf(imag(z), 0) && !math.IsNaN(imag(z))
}

// directionErr returns the error of the direction d against the nearer
// of the exact directions: the largest entry of |d d^H - P| for the
// projector P onto it, which ignores phase.
func directionErr(d [2]complex128, exact [2][2]bigC) float64 {
	v := [2]bigC{bigOf(d[0]), bigOf(d[1])}
	return min(bigProjectorGap(v, exact[0]), bigProjectorGap(v, exact[1]))
}

// bigProjectorGap returns the largest entry of |P_u - P_v| for the
// projectors onto the nonzero 2-vectors u and v.
func bigProjectorGap(u, v [2]bigC) float64 {
	proj := func(e [2]bigC, i, j int) bigC {
		inv := newBig().Quo(newBig().SetInt64(1), newBig().Add(e[0].abs2(), e[1].abs2()))
		return e[i].mul(e[j].conj()).scale(inv)
	}
	var worst float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			worst = max(worst, bigFloat(newBig().Sqrt(proj(u, i, j).sub(proj(v, i, j)).abs2())))
		}
	}
	return worst
}
