package cmplxmat

import (
	"math"
	"math/cmplx"
)

// Test-only forms of the package's operations. No binary calls them;
// the tests use them as references for the linked forms (the heap
// decompositions against the *WS ones, bit for bit) and to build and
// compare inputs. The heap and *WS wrappers here only allocate their
// results and call the linked form or kernel.

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("cmplxmat: FromRows with empty input")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("cmplxmat: FromRows with ragged rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// FromColumns builds a matrix whose columns are the given vectors.
func FromColumns(cols ...Vector) *Matrix {
	if len(cols) == 0 || len(cols[0]) == 0 {
		panic("cmplxmat: FromColumns with empty input")
	}
	m := New(len(cols[0]), len(cols))
	for j, c := range cols {
		if len(c) != m.rows {
			panic("cmplxmat: FromColumns with ragged columns")
		}
		for i := range c {
			m.data[i*m.cols+j] = c[i]
		}
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Col returns a copy of column j as a Vector.
func (m *Matrix) Col(j int) Vector {
	v := NewVector(m.rows)
	m.colInto(v, j)
	return v
}

// Equal reports whether m and b agree entry-wise within tol.
func (m *Matrix) Equal(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if cmplx.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// Det returns the determinant of a square matrix.
func (m *Matrix) Det() complex128 {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	return m.DetWS(ws)
}

// Solve returns x such that m*x = b using LU with partial pivoting.
// It returns ErrSingular if m is singular.
func (m *Matrix) Solve(b Vector) (Vector, error) {
	m.mustSquare()
	if len(b) != m.rows {
		panic("cmplxmat: Solve dimension mismatch")
	}
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	lu, perm, _, ok := m.luFactorWS(ws)
	if !ok {
		return nil, ErrSingular
	}
	x := NewVector(m.rows)
	luSolveData(lu, m.rows, perm, b, x)
	return x, nil
}

// Rank returns the numerical rank of m with tolerance tol on row-echelon
// pivot magnitudes (relative to the largest entry of m).
func (m *Matrix) Rank(tol float64) int {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	return m.RankWS(ws, tol)
}

// NullSpace returns an orthonormal basis of the (right) null space of m:
// all x with m*x = 0, using Gaussian elimination with the relative pivot
// tolerance tol. A nil slice means the null space is trivial.
func (m *Matrix) NullSpace(tol float64) []Vector {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	basis := m.NullSpaceWS(ws, tol)
	if len(basis) == 0 {
		return nil
	}
	out := make([]Vector, len(basis))
	for i, b := range basis {
		out[i] = b.Clone()
	}
	return out
}

// EigenHermitian diagonalizes a Hermitian matrix with the cyclic complex
// Jacobi method. It returns eigenvalues in descending order and the
// corresponding orthonormal eigenvectors as the columns of v.
// The input must be Hermitian within tol 1e-9 (relative); it panics
// otherwise, because silent symmetrization hides caller bugs.
func (m *Matrix) EigenHermitian() (vals []float64, v *Matrix) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	wsVals, wsV := m.EigenHermitianWS(ws)
	vals = make([]float64, len(wsVals))
	copy(vals, wsVals)
	return vals, wsV.Clone()
}

// SVD computes the singular value decomposition m = U * diag(s) * V^H of
// an arbitrary rows x cols matrix via the Hermitian eigendecomposition of
// m^H m. Singular values are returned in descending order; U is rows x k
// and V is cols x k with k = min(rows, cols).
//
// The 802.11-MIMO baseline uses the SVD for eigenmode precoding: the
// transmitter sends along the right singular vectors and the receiver
// projects on the left singular vectors, which is capacity-optimal for
// point-to-point MIMO (Tse & Viswanath, used by the paper's comparison
// scheme [2]).
func (m *Matrix) SVD() (u *Matrix, s []float64, v *Matrix) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	wsU, wsS, wsV := m.SVDWS(ws)
	s = make([]float64, len(wsS))
	copy(s, wsS)
	return wsU.Clone(), s, wsV.Clone()
}

// Add returns v + w. It panics if dimensions differ.
func (v Vector) Add(w Vector) Vector {
	out := make(Vector, len(v))
	v.addInto(out, w)
	return out
}

// ParallelTo reports whether v and w point along the same complex line,
// i.e. whether v = alpha*w for some complex scalar alpha, within tol.
// This is the paper's definition of "aligned" (footnote 2): a scalar
// multiple preserves alignment. Zero vectors are parallel to everything.
func (v Vector) ParallelTo(w Vector, tol float64) bool {
	mustSameDim(v, w)
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return true
	}
	// |<v,w>| == |v||w| iff Cauchy-Schwarz is tight iff parallel.
	d := cmplx.Abs(v.Dot(w))
	return math.Abs(d-nv*nw) <= tol*nv*nw
}

// LeadingLeftSingularWS returns the leading left singular vectors of m
// in descending singular-value order: at most n of them, stopping before
// the first whose singular value is at or below rel times the largest.
// Each returned vector is bitwise the corresponding column of SVDWS's U.
// The vectors live in the arena; see LeadingLeftSingularInto.
func (m *Matrix) LeadingLeftSingularWS(ws *Workspace, n int, rel float64) []Vector {
	n = min(n, m.rows, m.cols)
	if n <= 0 {
		return nil
	}
	out := ws.Vectors(n)
	for j := range out {
		out[j] = ws.Vector(m.rows)
	}
	return out[:m.LeadingLeftSingularInto(ws, out, rel)]
}

// InterpolatePolyWS returns InterpolatePolyInto's coefficients in the
// arena.
func InterpolatePolyWS(ws *Workspace, xs, ys []complex128) Poly {
	coeffs := Poly(ws.Complexes(len(xs)))
	InterpolatePolyInto(ws, coeffs, xs, ys)
	return coeffs
}
