package cmplxmat

import (
	"errors"
)

// ErrSingular is returned when a matrix is singular (or numerically so)
// and the requested decomposition does not exist.
var ErrSingular = errors.New("cmplxmat: matrix is singular")

// ErrEigenFailed is returned when eigenvector extraction does not converge.
var ErrEigenFailed = errors.New("cmplxmat: eigen computation failed")

// Inverse returns the inverse of a square matrix, or ErrSingular. It
// wraps InverseWS: the per-call temporaries (the packed LU copy, pivot
// permutations) come from a pooled Workspace, and only the inverse is
// copied onto the heap. The other decompositions have only their
// workspace forms in workspace_ops.go.
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
