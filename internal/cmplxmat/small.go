package cmplxmat

// Small-n storage. The planners' linear algebra is almost all 2x2 and
// 2x3: a Gram matrix, a Jacobi sweep, an LU factorization, a handful of
// vectors. For problems up to SmallDim the kernels keep their working
// copies in fixed-size arrays in the caller's stack frame; larger
// problems draw the same slices from the Workspace arena. Either way
// the slices feed one kernel body (jacobi, luFactorInPlace, rankOf,
// luSolveData, luInverseData, newtonToMonomial, durandKerner), so the
// storage choice cannot change a bit. Only results the caller keeps
// come from the arena.

// SmallDim is the largest dimension whose kernel scratch lives in
// fixed-size local arrays rather than the arena. Callers outside the
// package size their own local buffers by it.
const SmallDim = 4

// forceArena makes every kernel take its scratch from the arena. Tests
// set it to run the kernel bodies on both kinds of storage and compare
// the bits; nothing else does.
var forceArena bool

// small reports whether an n-dimensional problem runs on local storage.
func small(n int) bool { return n <= SmallDim && !forceArena }

// VectorIn returns an n-vector backed by buf when it fits there, and a
// zeroed arena vector otherwise. buf must be zeroed; callers pass a
// local array so that small working vectors stay off the arena.
func (w *Workspace) VectorIn(buf []complex128, n int) Vector {
	if n <= len(buf) && !forceArena {
		return Vector(buf[:n:n])
	}
	return w.Vector(n)
}

// eigenStore is the local backing of one Jacobi eigendecomposition of
// an n x n Hermitian matrix, n <= SmallDim.
type eigenStore struct {
	a, v [SmallDim * SmallDim]complex128
	raw  [SmallDim]float64
	idx  [SmallDim]int
}

// slices returns Jacobi's zeroed working storage for an n x n problem:
// views of st for a small n, arena slices otherwise.
func (st *eigenStore) slices(ws *Workspace, n int) (a, v []complex128, raw []float64, idx []int) {
	if small(n) {
		return st.a[:n*n], st.v[:n*n], st.raw[:n], st.idx[:n]
	}
	return ws.Complexes(n * n), ws.Complexes(n * n), ws.Floats(n), ws.Ints(n)
}

// luStore is the local backing of one elimination on a matrix of up to
// SmallDim x SmallDim: the packed factors, the row permutation, and a
// unit right-hand side and a solution column for the inverse.
type luStore struct {
	data      [SmallDim * SmallDim]complex128
	perm      [SmallDim]int
	unit, col [SmallDim]complex128
}

// elim returns zeroed elimination storage for a rows x cols matrix: a
// view of st when both dimensions are small, an arena slice otherwise.
func (st *luStore) elim(ws *Workspace, rows, cols int) []complex128 {
	if small(rows) && small(cols) {
		return st.data[:rows*cols]
	}
	return ws.Complexes(rows * cols)
}

// factor copies the square matrix m into elimination storage and runs
// the partial-pivot LU factorization on it in place.
func (st *luStore) factor(ws *Workspace, m *Matrix) (lu []complex128, perm []int, swaps int, ok bool) {
	m.mustSquare()
	n := m.rows
	lu = st.elim(ws, n, n)
	if small(n) {
		perm = st.perm[:n]
	} else {
		perm = ws.Ints(n)
	}
	copy(lu, m.data)
	swaps, ok = luFactorInPlace(lu, n, perm)
	return lu, perm, swaps, ok
}
