package cmplxmat

import (
	"errors"
)

// ErrEigenFailed is returned when eigenvector extraction does not converge.
var ErrEigenFailed = errors.New("cmplxmat: eigen computation failed")

// The eigendecomposition entry points below are thin wrappers over the
// workspace forms in workspace_ops.go: the Jacobi scratch comes from a
// pooled Workspace, and only the results the caller keeps are copied
// onto the heap. The general (non-Hermitian) eigenvector path has only
// its workspace forms, CharPolyWS and AnyEigenvectorWS.

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
