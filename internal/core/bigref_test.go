package core

import (
	"math/big"

	"iaclan/internal/cmplxmat"
)

// Reference arithmetic for the closed-form M = 2 solver tail
// (tail2WS), in math/big at 512 bits, after cmplxmat's bigref_test.go:
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
