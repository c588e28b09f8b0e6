package cmplxmat

import (
	"errors"
)

// ErrSingular is returned when a matrix is singular (or numerically so)
// and the requested decomposition does not exist.
var ErrSingular = errors.New("cmplxmat: matrix is singular")

// The heap-allocating decomposition methods below are wrappers over the
// workspace variants in workspace_ops.go: per-call temporaries (the
// packed LU copy, pivot permutations, elimination scratch) come from a
// pooled Workspace, and only the result the caller keeps is allocated on
// the heap. See the Workspace doc for the arena's reuse rules.

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
	var st luStore
	lu, perm, _, ok := st.factor(ws, m)
	if !ok {
		return nil, ErrSingular
	}
	x := NewVector(m.rows)
	luSolveData(lu, m.rows, perm, b, x)
	return x, nil
}

// Inverse returns the inverse of a square matrix, or ErrSingular.
//
// MIMO channel matrices are "typically invertible because the antennas
// are chosen to be more than half a wavelength apart" (paper, footnote 3);
// callers should still handle the error for degenerate channels.
func (m *Matrix) Inverse() (*Matrix, error) {
	ws := GetWorkspace()
	defer PutWorkspace(ws)
	inv, err := m.InverseWS(ws)
	if err != nil {
		return nil, err
	}
	return inv.Clone(), nil
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
