package cmplxmat

import (
	"encoding/binary"
	"math"
	"math/big"
	"os"
	"testing"
)

// Reference arithmetic for the closed-form M = 2 kernels (two.go), in
// math/big at bigPrec bits. The kernels' inputs are float64s, so every
// product and sum below is exact or rounded far below float64's
// precision, and a reference result differs from the exact one only by
// the conversion of its final value. Errors are measured on projectors
// u u^H for vectors, which ignore phase, and relatively for roots and
// inverses.

const bigPrec = 512

type bigC struct{ re, im *big.Float }

func newBig() *big.Float { return new(big.Float).SetPrec(bigPrec) }

func bigOf(z complex128) bigC {
	return bigC{newBig().SetFloat64(real(z)), newBig().SetFloat64(imag(z))}
}

func (a bigC) add(b bigC) bigC { return bigC{newBig().Add(a.re, b.re), newBig().Add(a.im, b.im)} }
func (a bigC) sub(b bigC) bigC { return bigC{newBig().Sub(a.re, b.re), newBig().Sub(a.im, b.im)} }
func (a bigC) conj() bigC      { return bigC{a.re, newBig().Neg(a.im)} }

func (a bigC) mul(b bigC) bigC {
	re := newBig().Sub(newBig().Mul(a.re, b.re), newBig().Mul(a.im, b.im))
	im := newBig().Add(newBig().Mul(a.re, b.im), newBig().Mul(a.im, b.re))
	return bigC{re, im}
}

func (a bigC) scale(s *big.Float) bigC { return bigC{newBig().Mul(a.re, s), newBig().Mul(a.im, s)} }

func (a bigC) abs2() *big.Float {
	return newBig().Add(newBig().Mul(a.re, a.re), newBig().Mul(a.im, a.im))
}

func (a bigC) abs() *big.Float { return newBig().Sqrt(a.abs2()) }

func (a bigC) isZero() bool { return a.re.Sign() == 0 && a.im.Sign() == 0 }

// quo returns a/b for a nonzero b.
func (a bigC) quo(b bigC) bigC {
	return a.mul(b.conj()).scale(newBig().Quo(newBig().SetInt64(1), b.abs2()))
}

// sqrt returns the principal square root, by the same cancellation-free
// formula as sqrtC.
func (a bigC) sqrt() bigC {
	if a.isZero() {
		return a
	}
	half := newBig().SetFloat64(0.5)
	t := newBig().Sqrt(newBig().Mul(half, newBig().Add(a.abs(), newBig().Abs(a.re))))
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

func (a bigC) c128() complex128 {
	re, _ := a.re.Float64()
	im, _ := a.im.Float64()
	return complex(re, im)
}

func bigFloat(x *big.Float) float64 {
	f, _ := x.Float64()
	return f
}

// bigProjector is u u^H / |u|^2 for a nonzero 2-vector, row-major.
type bigProjector [4]bigC

func projectorOf(u0, u1 bigC) bigProjector {
	inv := newBig().Quo(newBig().SetInt64(1), newBig().Add(u0.abs2(), u1.abs2()))
	p01 := u0.mul(u1.conj()).scale(inv)
	return bigProjector{bigC{newBig().Mul(u0.abs2(), inv), newBig()}, p01, p01.conj(), bigC{newBig().Mul(u1.abs2(), inv), newBig()}}
}

// err returns the largest entry of |v v^H - p|, with v taken as it is
// (a v that is not unit norm shows as error).
func (p bigProjector) err(v Vector) float64 {
	b := [2]bigC{bigOf(v[0]), bigOf(v[1])}
	var worst float64
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			worst = max(worst, bigFloat(b[i].mul(b[j].conj()).sub(p[2*i+j]).abs()))
		}
	}
	return worst
}

// bigGram returns a, b and c of the Gram matrix m m^H = [[a, b],
// [conj(b), c]] of a 2-row m, exactly.
func bigGram(m *Matrix) (a *big.Float, b bigC, c *big.Float) {
	a, c, b = newBig(), newBig(), bigC{newBig(), newBig()}
	k := m.Cols()
	for j := 0; j < k; j++ {
		x, y := bigOf(m.data[j]), bigOf(m.data[k+j])
		a.Add(a, x.abs2())
		c.Add(c, y.abs2())
		b = b.add(x.mul(y.conj()))
	}
	return a, b, c
}

// bigLeading returns the projector onto the leading left singular vector
// of a 2-row m and the leading eigenvalue of m m^H, or ok false when the
// two eigenvalues are equal and no leading vector is determined.
func bigLeading(m *Matrix) (p bigProjector, lambda *big.Float, ok bool) {
	a, b, c := bigGram(m)
	h := newBig().Mul(newBig().Sub(a, c), newBig().SetFloat64(0.5))
	r := newBig().Sqrt(newBig().Add(newBig().Mul(h, h), b.abs2()))
	if r.Sign() == 0 {
		return p, nil, false
	}
	lambda = newBig().Add(newBig().Mul(newBig().Add(a, c), newBig().SetFloat64(0.5)), r)
	if h.Sign() >= 0 {
		return projectorOf(bigC{newBig().Add(h, r), newBig()}, b.conj()), lambda, true
	}
	return projectorOf(b, bigC{newBig().Sub(r, h), newBig()}), lambda, true
}

// rayleighDeficit returns 1 - (u^H A u)/(|u|^2 λ) for the Gram matrix
// A = m m^H of a 2-row m and its leading eigenvalue λ: how much of the
// leading energy the unit direction of u misses. It is small for any
// leading vector, however close the two eigenvalues are.
func rayleighDeficit(m *Matrix, u Vector, lambda *big.Float) float64 {
	a, b, c := bigGram(m)
	u0, u1 := bigOf(u[0]), bigOf(u[1])
	q := newBig().Add(newBig().Mul(a, u0.abs2()), newBig().Mul(c, u1.abs2()))
	cross := u0.conj().mul(b).mul(u1).re
	q.Add(q, cross).Add(q, cross)
	norm := newBig().Add(u0.abs2(), u1.abs2())
	ratio := newBig().Quo(q, newBig().Mul(norm, lambda))
	return bigFloat(newBig().Sub(newBig().SetInt64(1), ratio))
}

// bigRoots returns the roots of the polynomial p of degree deg (1 or 2).
func bigRoots(p Poly, deg int) []bigC {
	return bigRootsOf([3]bigC{bigOf(p[0]), bigOf(p[1]), bigOf(p[2%len(p)])}, deg)
}

// bigLineDet returns the exact coefficients of det[g1 d, g2 d] along
// d = x + t y, for 2x2 g1 and g2 (see LineDet2).
func bigLineDet(g1, g2 *Matrix, x, y Vector) [3]bigC {
	mulVec := func(g *Matrix, v Vector) [2]bigC {
		var out [2]bigC
		for i := range out {
			out[i] = bigOf(g.data[2*i]).mul(bigOf(v[0])).add(bigOf(g.data[2*i+1]).mul(bigOf(v[1])))
		}
		return out
	}
	det := func(u, v [2]bigC) bigC { return u[0].mul(v[1]).sub(v[0].mul(u[1])) }
	a, b, c, e := mulVec(g1, x), mulVec(g1, y), mulVec(g2, x), mulVec(g2, y)
	return [3]bigC{det(a, c), det(a, e).add(det(b, c)), det(b, e)}
}

// bigRootsOf returns the roots of the polynomial with coefficients p of
// degree deg (1 or 2).
func bigRootsOf(p [3]bigC, deg int) []bigC {
	p0, p1 := p[0], p[1]
	if deg == 1 {
		return []bigC{p0.quo(p1).scale(newBig().SetInt64(-1))}
	}
	p2 := p[2]
	four := newBig().SetInt64(4)
	sq := p1.mul(p1).sub(p2.mul(p0).scale(four)).sqrt()
	twoP2 := p2.scale(newBig().SetInt64(2))
	neg := p1.scale(newBig().SetInt64(-1))
	return []bigC{neg.add(sq).quo(twoP2), neg.sub(sq).quo(twoP2)}
}

// rootErr returns the error of the root z against the nearest reference
// root, relative to that root's magnitude (absolute for a zero root).
func rootErr(z complex128, ref []bigC) float64 {
	best := math.Inf(1)
	bz := bigOf(z)
	for _, r := range ref {
		d := bigFloat(bz.sub(r).abs())
		if m := bigFloat(r.abs()); m > 0 {
			d /= m
		}
		best = min(best, d)
	}
	return best
}

// bigInverseErr returns the largest entry error of inv against the exact
// inverse of the nonsingular 2x2 m, relative to the largest exact entry.
func bigInverseErr(m, inv *Matrix) float64 {
	a, b, c, d := bigOf(m.data[0]), bigOf(m.data[1]), bigOf(m.data[2]), bigOf(m.data[3])
	det := a.mul(d).sub(b.mul(c))
	neg := newBig().SetInt64(-1)
	exact := [4]bigC{d.quo(det), b.scale(neg).quo(det), c.scale(neg).quo(det), a.quo(det)}
	var worst, scale float64
	for i, e := range exact {
		scale = max(scale, bigFloat(e.abs()))
		worst = max(worst, bigFloat(bigOf(inv.data[i]).sub(e).abs()))
	}
	return worst / scale
}

// readCorpus reads a little-endian float64 stream from testdata, as
// complex values.
func readCorpus(t *testing.T, name string) []complex128 {
	t.Helper()
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]complex128, len(raw)/16)
	for i := range out {
		re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
		out[i] = complex(re, im)
	}
	return out
}

// bigVecErr returns the largest entry error |v_i - ref_i| of a 2-vector.
func bigVecErr(v Vector, ref [2]bigC) float64 {
	return max(bigFloat(bigOf(v[0]).sub(ref[0]).abs()), bigFloat(bigOf(v[1]).sub(ref[1]).abs()))
}

// bigUnit returns the nonzero 2-vector (z0, z1) scaled to unit norm.
func bigUnit(z0, z1 bigC) [2]bigC {
	inv := newBig().Quo(newBig().SetInt64(1), newBig().Sqrt(newBig().Add(z0.abs2(), z1.abs2())))
	return [2]bigC{z0.scale(inv), z1.scale(inv)}
}

// bigZeroForce returns the exact zero-forcing decoder for the signal s
// against the interference direction a: r = s - a (a^H s)/(a^H a)
// scaled to unit norm, and ok false when r is zero.
func bigZeroForce(a, s Vector) (w [2]bigC, ok bool) {
	a0, a1, s0, s1 := bigOf(a[0]), bigOf(a[1]), bigOf(s[0]), bigOf(s[1])
	coef := a0.conj().mul(s0).add(a1.conj().mul(s1)).scale(newBig().Quo(newBig().SetInt64(1), newBig().Add(a0.abs2(), a1.abs2())))
	r0, r1 := s0.sub(a0.mul(coef)), s1.sub(a1.mul(coef))
	if r0.isZero() && r1.isZero() {
		return w, false
	}
	return bigUnit(r0, r1), true
}

// bigMulH returns m^H v exactly for a 2x2 m.
func bigMulH(m *Matrix, v Vector) [2]bigC {
	v0, v1 := bigOf(v[0]), bigOf(v[1])
	var out [2]bigC
	for j := range out {
		out[j] = bigOf(m.data[j]).conj().mul(v0).add(bigOf(m.data[2+j]).conj().mul(v1))
	}
	return out
}
