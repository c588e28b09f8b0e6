// Package cmplxmat implements dense complex linear algebra for small
// matrices (typically 2x2 to 8x8), the regime of MIMO antenna arrays.
//
// The package provides the operations interference alignment needs and the
// Go standard library lacks: Gaussian-elimination inverses, determinants,
// null spaces, Hermitian eigendecompositions, singular values, and
// polynomial root finding for the alignment determinant equations.
//
// All types use complex128. Matrices are immutable by convention: every
// operation returns a fresh value (on the heap, or in a Workspace for
// the *WS forms) and never mutates its receiver or arguments, except
// the forms whose name says so: the *Into forms write into a
// caller-owned destination, the *InPlace forms and setters such as
// SetAt overwrite their receiver.
package cmplxmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Vector is a dense complex column vector.
type Vector []complex128

// NewVector returns a zero vector of dimension n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Dim returns the dimension of v.
func (v Vector) Dim() int { return len(v) }

// addInto writes v + w into dst, which has v's length.
func (v Vector) addInto(dst, w Vector) {
	mustSameDim(v, w)
	mustSameDim(dst, v)
	for i := range v {
		dst[i] = v[i] + w[i]
	}
}

// Sub returns v - w. It panics if dimensions differ.
func (v Vector) Sub(w Vector) Vector {
	out := make(Vector, len(v))
	v.subInto(out, w)
	return out
}

// subInto writes v - w into dst, which has v's length.
func (v Vector) subInto(dst, w Vector) {
	mustSameDim(v, w)
	mustSameDim(dst, v)
	for i := range v {
		dst[i] = v[i] - w[i]
	}
}

// Scale returns s*v.
func (v Vector) Scale(s complex128) Vector {
	out := make(Vector, len(v))
	v.ScaleInto(out, s)
	return out
}

// ScaleInto writes s*v into dst, which has v's length and may be v
// itself.
func (v Vector) ScaleInto(dst Vector, s complex128) {
	mustSameDim(dst, v)
	for i := range v {
		dst[i] = s * v[i]
	}
}

// Dot returns the Hermitian inner product <v, w> = sum conj(v_i) * w_i.
// It panics if dimensions differ.
func (v Vector) Dot(w Vector) complex128 {
	mustSameDim(v, w)
	if len(v) == 2 {
		// The loop below unrolled, with its operation order and its
		// leading zero.
		w := w[:2]
		return 0 + cmplx.Conj(v[0])*w[0] + cmplx.Conj(v[1])*w[1]
	}
	var s complex128
	for i := range v {
		s += cmplx.Conj(v[i]) * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for i := range v {
		re, im := real(v[i]), imag(v[i])
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// Normalize returns v scaled to unit norm. The zero vector is returned
// unchanged.
func (v Vector) Normalize() Vector {
	out := make(Vector, len(v))
	v.normalizeInto(out)
	return out
}

// normalizeInto writes v scaled to unit norm into dst, which has v's
// length; a zero v is copied unchanged.
func (v Vector) normalizeInto(dst Vector) {
	if n := v.Norm(); n != 0 {
		v.ScaleInto(dst, complex(1/n, 0))
		return
	}
	mustSameDim(dst, v)
	copy(dst, v)
}

// AngleTo returns the principal angle in radians between the complex lines
// spanned by v and w: acos(|<v,w>| / (|v||w|)). It is 0 for aligned vectors
// and pi/2 for orthogonal ones. It panics on zero vectors.
func (v Vector) AngleTo(w Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		panic("cmplxmat: AngleTo of zero vector")
	}
	c := cmplx.Abs(v.Dot(w)) / (nv * nw)
	if c > 1 {
		c = 1
	}
	return math.Acos(c)
}

// ProjectOnto returns the orthogonal projection of v onto the line
// spanned by w. It panics if w is zero.
func (v Vector) ProjectOnto(w Vector) Vector {
	return w.Scale(v.projectCoef(w))
}

// projectCoef returns the coefficient c of the projection c*w of v onto
// the line spanned by w: <w,v>/<w,w>. It panics if w is zero.
func (v Vector) projectCoef(w Vector) complex128 {
	d := w.Dot(w)
	if d == 0 {
		panic("cmplxmat: ProjectOnto zero vector")
	}
	return w.Dot(v) / d
}

// RejectInPlace subtracts from v its projection onto the line spanned
// by w, with the operations of v.Sub(v.ProjectOnto(w)). It panics if w
// is zero.
func (v Vector) RejectInPlace(w Vector) {
	c := v.projectCoef(w)
	for i := range v {
		v[i] = v[i] - c*w[i]
	}
}

// String formats v for debugging.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, c := range v {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g%+.4gi", real(c), imag(c))
	}
	b.WriteByte(']')
	return b.String()
}

func mustSameDim(v, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cmplxmat: dimension mismatch %d vs %d", len(v), len(w)))
	}
}

// OrthogonalComplementVector returns a unit vector orthogonal to every
// vector in vs, or nil if the span of vs already fills the whole space.
// All vectors must share the same dimension n; the span must have
// dimension at most n-1 for a complement to exist.
//
// This is the paper's "decoding vector" construction: to decode a packet
// an AP projects on a direction orthogonal to all interference (Section 4).
func OrthogonalComplementVector(n int, tol float64, vs ...Vector) Vector {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	if c := OrthogonalComplementVectorWS(ws, n, tol, vs); c != nil {
		return c.Clone()
	}
	return nil
}
