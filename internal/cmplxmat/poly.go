package cmplxmat

import (
	"errors"
	"math"
	"math/cmplx"
)

// Poly is a complex polynomial stored by ascending power:
// Poly{c0, c1, c2} represents c0 + c1*z + c2*z^2.
type Poly []complex128

// Eval evaluates p at z using Horner's rule.
func (p Poly) Eval(z complex128) complex128 {
	var s complex128
	for i := len(p) - 1; i >= 0; i-- {
		s = s*z + p[i]
	}
	return s
}

// Degree returns the effective degree of p, ignoring leading coefficients
// with magnitude below tol relative to the largest coefficient. The zero
// polynomial has degree -1.
func (p Poly) Degree(tol float64) int {
	var maxAbs, top float64
	for _, c := range p {
		top = cmplx.Abs(c)
		if top > maxAbs {
			maxAbs = top
		}
	}
	if maxAbs == 0 {
		return -1
	}
	// The scan down from the leading coefficient starts where the scan
	// up ended, so the leading magnitude is reused, not recomputed.
	for i := len(p) - 1; i >= 0; i-- {
		a := top
		if i < len(p)-1 {
			a = cmplx.Abs(p[i])
		}
		if a > tol*maxAbs {
			return i
		}
	}
	return -1
}

// ErrNoRoots is returned when root finding is requested on a constant or
// zero polynomial.
var ErrNoRoots = errors.New("cmplxmat: polynomial has no roots")

// Roots returns all complex roots of p using the Durand-Kerner
// (Weierstrass) simultaneous iteration. The polynomial is trimmed to its
// effective degree first. Durand-Kerner converges for essentially all
// polynomials from the standard non-real starting configuration; the
// alignment determinants this package solves are degree <= 8.
func (p Poly) Roots() ([]complex128, error) {
	deg := p.Degree(1e-13)
	if deg < 1 {
		return nil, ErrNoRoots
	}
	roots := make([]complex128, deg)
	p.durandKerner(deg, make(Poly, deg+1), roots, make([]complex128, deg))
	return roots, nil
}

// RootsWS is Roots with the returned roots in the arena (see
// RootsInto). Every buffer is sized by the degree, known before the
// iteration starts, so the data-dependent iteration count never touches
// the heap.
func (p Poly) RootsWS(ws *Workspace) ([]complex128, error) {
	roots := ws.Complexes(max(len(p)-1, 0))
	deg, err := p.RootsInto(ws, roots)
	if err != nil {
		return nil, err
	}
	return roots[:deg:deg], nil
}

// RootsInto is Roots writing the roots into roots[:deg] and returning
// deg, the effective degree; roots needs room for len(p)-1 of them.
// Durand-Kerner's iteration buffers live in local arrays up to degree
// SmallDim and in the arena beyond.
func (p Poly) RootsInto(ws *Workspace, roots []complex128) (int, error) {
	deg := p.Degree(1e-13)
	if deg < 1 {
		return 0, ErrNoRoots
	}
	var monic [SmallDim + 1]complex128
	var next [SmallDim]complex128
	p.durandKerner(deg, Poly(ws.VectorIn(monic[:], deg+1)), roots[:deg], ws.VectorIn(next[:], deg))
	return deg, nil
}

// durandKerner is the iteration behind Roots and RootsWS: it normalizes
// p (of effective degree deg) into monic, seeds roots, and iterates with
// next as the update buffer. monic has length deg+1; roots and next have
// length deg. It returns the number of iterations run.
func (p Poly) durandKerner(deg int, monic Poly, roots, next []complex128) int {
	// Normalize to monic.
	lead := p[deg]
	for i := 0; i <= deg; i++ {
		monic[i] = p[i] / lead
	}
	// Standard starting values: powers of a non-real, non-root-of-unity seed.
	seed := complex(0.4, 0.9)
	acc := complex(1, 0)
	for i := range roots {
		acc *= seed
		roots[i] = acc
	}
	const maxIter = 500
	for iter := 0; iter < maxIter; iter++ {
		// settled is the absolute step test maxDelta < 1e-14, with maxDelta
		// the largest |delta| that is not NaN (a NaN never won the >
		// comparison). Once one step fails it, the rest need no
		// magnitude at all.
		settled := true
		fixed := true
		for i := range roots {
			num := monic.Eval(roots[i])
			den := complex(1, 0)
			for j := range roots {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				// Perturb coincident estimates.
				den = complex(1e-12, 1e-12)
			}
			delta := num / den
			next[i] = roots[i] - delta
			if fixed && !sameBits(next[i], roots[i]) {
				fixed = false
			}
			if settled && !stepBelow(delta) {
				settled = false
			}
		}
		for i := range roots {
			roots[i] = next[i]
		}
		// The absolute step test cannot pass once a root is large enough
		// that its ulp exceeds 1e-14. An iteration that leaves every root
		// bit-identical is an exact fixed point, though: next depends
		// only on monic and roots, so every later iteration would repeat
		// it, and stopping there returns the same bits.
		if settled || fixed {
			return iter + 1
		}
	}
	return maxIter
}

// stepBelow reports whether cmplx.Abs(z) is below Durand-Kerner's 1e-14
// step tolerance or NaN, calling Hypot only when z's parts leave it
// open: with p = maxPart(z) not NaN, p <= |z| <= 2p, so a p at or
// above the tolerance fails the test and a p under half of it passes.
func stepBelow(z complex128) bool {
	const tol = 1e-14
	if p := maxPart(z); p == p {
		if p >= tol {
			return false
		}
		if 2*p < tol {
			return true
		}
	}
	return !(cmplx.Abs(z) >= tol)
}

// sameBits reports whether a and b have bit-identical real and
// imaginary parts (so +0 and -0 differ, and equal NaNs match).
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// InterpolatePolyInto fits the unique polynomial of degree <= len(xs)-1
// through the points (xs[i], ys[i]) using Newton divided differences and
// writes its coefficients into coeffs, which must be zeroed and len(xs)
// long. The xs must be pairwise distinct. Its scratch lives in local
// arrays for up to SmallDim+1 points and in the arena beyond.
//
// The alignment solver uses this to recover det-polynomial coefficients
// from point evaluations: the determinant of a matrix whose columns are
// affine in a parameter t is a polynomial in t of degree at most the
// column count.
func InterpolatePolyInto(ws *Workspace, coeffs Poly, xs, ys []complex128) {
	n := interpolateLen(xs, ys)
	if len(coeffs) != n {
		panic("cmplxmat: InterpolatePolyInto needs len(xs) coefficients")
	}
	var dd, basis, spare [SmallDim + 1]complex128
	newtonToMonomial(xs, ys, ws.VectorIn(dd[:], n), coeffs, Poly(ws.VectorIn(basis[:], n)), Poly(ws.VectorIn(spare[:], n)))
}

func interpolateLen(xs, ys []complex128) int {
	if len(xs) != len(ys) || len(xs) == 0 {
		panic("cmplxmat: InterpolatePoly needs equal, nonzero point counts")
	}
	return len(xs)
}

// newtonToMonomial is the interpolation behind InterpolatePolyInto. dd
// receives the divided differences and coeffs (zeroed, length n) the
// monomial coefficients; basis and spare are two length-n buffers the
// expanding product (z-x0)(z-x1)... alternates between, each new
// product built in a freshly zeroed prefix.
func newtonToMonomial(xs, ys, dd []complex128, coeffs, basis, spare Poly) {
	n := len(xs)
	// Divided difference coefficients.
	copy(dd, ys)
	for level := 1; level < n; level++ {
		for i := n - 1; i >= level; i-- {
			dd[i] = (dd[i] - dd[i-1]) / (xs[i] - xs[i-level])
		}
	}
	// Expand Newton form to monomial coefficients.
	size := 1
	basis[0] = 1
	for k := 0; k < n; k++ {
		for i := 0; i < size; i++ {
			coeffs[i] += dd[k] * basis[i]
		}
		if k < n-1 {
			// basis *= (z - xs[k])
			nb := spare[:size+1]
			clear(nb)
			for i, c := range basis[:size] {
				nb[i+1] += c
				nb[i] -= c * xs[k]
			}
			basis, spare = spare, basis
			size++
		}
	}
}
