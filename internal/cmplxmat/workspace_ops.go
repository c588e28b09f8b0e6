package cmplxmat

import (
	"math"
	"math/cmplx"
	"math/rand"
)

// Workspace-threaded variants of the package's operations. Each *WS
// function computes exactly the same floating-point result as its heap
// counterpart (same operations in the same order) but draws results and
// temporaries from the workspace arena, so hot loops — a slot evaluation,
// a solver attempt, an eigendecomposition — run without heap allocation.
// The heap methods are retained as thin wrappers where results must
// outlive any workspace (public API compatibility).

// RandomGaussianVectorWS returns an arena-backed n-vector with i.i.d.
// CN(0,1) entries drawn from rng, consuming the same rng draws as
// RandomGaussianVector.
func RandomGaussianVectorWS(ws *Workspace, rng *rand.Rand, n int) Vector {
	v := ws.Vector(n)
	for i := range v {
		v[i] = complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
	}
	return v
}

// CloneWS returns an arena-backed copy of v.
func (v Vector) CloneWS(ws *Workspace) Vector {
	w := ws.Vector(len(v))
	copy(w, v)
	return w
}

// AddWS returns v + w in the arena.
func (v Vector) AddWS(ws *Workspace, w Vector) Vector {
	mustSameDim(v, w)
	out := ws.Vector(len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// SubWS returns v - w in the arena.
func (v Vector) SubWS(ws *Workspace, w Vector) Vector {
	mustSameDim(v, w)
	out := ws.Vector(len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// ScaleWS returns s*v in the arena.
func (v Vector) ScaleWS(ws *Workspace, s complex128) Vector {
	out := ws.Vector(len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// NormalizeWS returns v scaled to unit norm, in the arena.
func (v Vector) NormalizeWS(ws *Workspace) Vector {
	n := v.Norm()
	if n == 0 {
		return v.CloneWS(ws)
	}
	return v.ScaleWS(ws, complex(1/n, 0))
}

// ProjectOntoWS returns the projection of v onto the line spanned by w,
// in the arena.
func (v Vector) ProjectOntoWS(ws *Workspace, w Vector) Vector {
	d := w.Dot(w)
	if d == 0 {
		panic("cmplxmat: ProjectOnto zero vector")
	}
	return w.ScaleWS(ws, w.Dot(v)/d)
}

// CloneWS returns an arena-backed copy of m.
func (m *Matrix) CloneWS(ws *Workspace) *Matrix {
	out := ws.Matrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// ColWS returns column j of m in the arena.
func (m *Matrix) ColWS(ws *Workspace, j int) Vector {
	v := ws.Vector(m.rows)
	for i := 0; i < m.rows; i++ {
		v[i] = m.data[i*m.cols+j]
	}
	return v
}

// SubWS returns m - b in the arena.
func (m *Matrix) SubWS(ws *Workspace, b *Matrix) *Matrix {
	m.mustSameShape(b)
	out := ws.Matrix(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] - b.data[i]
	}
	return out
}

// MulWS returns m*b in the arena.
func (m *Matrix) MulWS(ws *Workspace, b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic("cmplxmat: MulWS shape mismatch")
	}
	out := ws.Matrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*b.cols+j] += a * b.data[k*b.cols+j]
			}
		}
	}
	return out
}

// MulVecWS returns m*v in the arena.
func (m *Matrix) MulVecWS(ws *Workspace, v Vector) Vector {
	if m.cols != len(v) {
		panic("cmplxmat: MulVecWS shape mismatch")
	}
	out := ws.Vector(m.rows)
	mulVecData(m.data, m.rows, m.cols, v, out)
	return out
}

// mulVecData is the y = H v inner loop over flat row-major storage,
// shared by MulVecWS and the batched EvaluateBatchWS kernel so the two
// stay bitwise-identical.
func mulVecData(h []complex128, rows, cols int, v, y []complex128) {
	for i := 0; i < rows; i++ {
		var s complex128
		for j := 0; j < cols; j++ {
			s += h[i*cols+j] * v[j]
		}
		y[i] = s
	}
}

// TWS returns the (unconjugated) transpose of m in the arena.
func (m *Matrix) TWS(ws *Workspace) *Matrix {
	out := ws.Matrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// HWS returns the conjugate transpose of m in the arena.
func (m *Matrix) HWS(ws *Workspace) *Matrix {
	out := ws.Matrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
	return out
}

// FromColumnsWS builds an arena matrix whose columns are the given vectors.
func FromColumnsWS(ws *Workspace, cols []Vector) *Matrix {
	if len(cols) == 0 || len(cols[0]) == 0 {
		panic("cmplxmat: FromColumnsWS with empty input")
	}
	m := ws.Matrix(len(cols[0]), len(cols))
	for j, c := range cols {
		if len(c) != m.rows {
			panic("cmplxmat: FromColumnsWS with ragged columns")
		}
		for i := range c {
			m.data[i*m.cols+j] = c[i]
		}
	}
	return m
}

// OrthonormalBasisWS is OrthonormalBasis with every temporary and the
// returned basis drawn from the arena.
func OrthonormalBasisWS(ws *Workspace, tol float64, vs []Vector) []Vector {
	basis := ws.Vectors(len(vs))
	n := 0
	for _, v := range vs {
		orig := v.Norm()
		if orig == 0 {
			continue
		}
		u := v.CloneWS(ws)
		for _, b := range basis[:n] {
			u = u.SubWS(ws, u.ProjectOntoWS(ws, b))
		}
		if u.Norm() <= tol*orig {
			continue
		}
		basis[n] = u.NormalizeWS(ws)
		n++
	}
	return basis[:n]
}

// OrthogonalComplementVectorWS is OrthogonalComplementVector over the
// arena. The returned vector is arena-backed.
func OrthogonalComplementVectorWS(ws *Workspace, n int, tol float64, vs []Vector) Vector {
	basis := OrthonormalBasisWS(ws, tol, vs)
	if len(basis) >= n {
		return nil
	}
	var best Vector
	bestNorm := -1.0
	for i := 0; i < n; i++ {
		e := ws.Vector(n)
		e[i] = 1
		u := e
		for _, b := range basis {
			u = u.SubWS(ws, u.ProjectOntoWS(ws, b))
		}
		if nrm := u.Norm(); nrm > bestNorm {
			bestNorm = nrm
			best = u
		}
	}
	if bestNorm <= tol {
		return nil
	}
	return best.NormalizeWS(ws)
}

// luDecomposeWS is luDecompose with the packed LU copy and the
// permutation drawn from the arena.
func (m *Matrix) luDecomposeWS(ws *Workspace) (lu *Matrix, perm []int, swaps int, ok bool) {
	m.mustSquare()
	n := m.rows
	lu = m.CloneWS(ws)
	perm = ws.Ints(n)
	swaps, ok = luFactorInPlace(lu.data, n, perm)
	return lu, perm, swaps, ok
}

// luFactorInPlace runs the partial-pivot elimination of one n x n system
// packed row-major in data, recording the row permutation in perm
// (length n). It is the single elimination loop the scalar LU path and
// the batched SolveBatchWS kernel share, which is what makes the two
// bitwise-identical: same floating-point operations, same order.
func luFactorInPlace(data []complex128, n int, perm []int) (swaps int, ok bool) {
	for i := range perm {
		perm[i] = i
	}
	ok = true
	for k := 0; k < n; k++ {
		p, best := k, cmplx.Abs(data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(data[i*n+k]); a > best {
				p, best = i, a
			}
		}
		if best == 0 {
			ok = false
			continue
		}
		if p != k {
			for j := 0; j < n; j++ {
				data[k*n+j], data[p*n+j] = data[p*n+j], data[k*n+j]
			}
			perm[k], perm[p] = perm[p], perm[k]
			swaps++
		}
		piv := data[k*n+k]
		for i := k + 1; i < n; i++ {
			f := data[i*n+k] / piv
			data[i*n+k] = f
			for j := k + 1; j < n; j++ {
				data[i*n+j] -= f * data[k*n+j]
			}
		}
	}
	return swaps, ok
}

// luSolveInto runs permutation + forward/back substitution of one
// right-hand side through a packed LU factorization, writing into x.
func luSolveInto(lu *Matrix, perm []int, b, x Vector) {
	luSolveData(lu.data, lu.rows, perm, b, x)
}

// luSolveData is luSolveInto over a flat packed factorization — shared
// by the scalar path and the batched kernel (see luFactorInPlace).
func luSolveData(data []complex128, n int, perm []int, b, x Vector) {
	for i := 0; i < n; i++ {
		x[i] = b[perm[i]]
	}
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			x[i] -= data[i*n+j] * x[j]
		}
	}
	for i := n - 1; i >= 0; i-- {
		for j := i + 1; j < n; j++ {
			x[i] -= data[i*n+j] * x[j]
		}
		x[i] /= data[i*n+i]
	}
}

// DetWS returns the determinant using arena scratch only.
func (m *Matrix) DetWS(ws *Workspace) complex128 {
	mark := ws.Mark()
	defer ws.Release(mark)
	lu, _, swaps, ok := m.luDecomposeWS(ws)
	if !ok {
		return 0
	}
	n := m.rows
	det := complex(1, 0)
	if swaps%2 == 1 {
		det = -det
	}
	for i := 0; i < n; i++ {
		det *= lu.data[i*n+i]
	}
	return det
}

// SolveWS solves m*x = b with all scratch and the returned x in the arena.
func (m *Matrix) SolveWS(ws *Workspace, b Vector) (Vector, error) {
	m.mustSquare()
	if len(b) != m.rows {
		panic("cmplxmat: Solve dimension mismatch")
	}
	lu, perm, _, ok := m.luDecomposeWS(ws)
	if !ok {
		return nil, ErrSingular
	}
	x := ws.Vector(m.rows)
	luSolveInto(lu, perm, b, x)
	return x, nil
}

// InverseWS inverts m with all scratch and the returned matrix in the
// arena.
func (m *Matrix) InverseWS(ws *Workspace) (*Matrix, error) {
	m.mustSquare()
	n := m.rows
	lu, perm, _, ok := m.luDecomposeWS(ws)
	if !ok {
		return nil, ErrSingular
	}
	inv := ws.Matrix(n, n)
	col := ws.Vector(n)
	for c := 0; c < n; c++ {
		for i := 0; i < n; i++ {
			if perm[i] == c {
				col[i] = 1
			} else {
				col[i] = 0
			}
		}
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				col[i] -= lu.data[i*n+j] * col[j]
			}
		}
		for i := n - 1; i >= 0; i-- {
			for j := i + 1; j < n; j++ {
				col[i] -= lu.data[i*n+j] * col[j]
			}
			col[i] /= lu.data[i*n+i]
		}
		for i := 0; i < n; i++ {
			inv.data[i*n+c] = col[i]
		}
	}
	return inv, nil
}

// RankWS is Rank with the elimination scratch in the arena.
func (m *Matrix) RankWS(ws *Workspace, tol float64) int {
	mark := ws.Mark()
	defer ws.Release(mark)
	a := m.CloneWS(ws)
	return rankOf(a, tol)
}

// rankOf destroys a, returning its numerical rank (shared by Rank/RankWS).
func rankOf(a *Matrix, tol float64) int {
	rows, cols := a.rows, a.cols
	scale := a.MaxAbs()
	if scale == 0 {
		return 0
	}
	thresh := tol * scale
	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		p, best := -1, thresh
		for i := rank; i < rows; i++ {
			if v := cmplx.Abs(a.data[i*cols+col]); v > best {
				p, best = i, v
			}
		}
		if p < 0 {
			continue
		}
		if p != rank {
			for j := 0; j < cols; j++ {
				a.data[rank*cols+j], a.data[p*cols+j] = a.data[p*cols+j], a.data[rank*cols+j]
			}
		}
		piv := a.data[rank*cols+col]
		for i := rank + 1; i < rows; i++ {
			f := a.data[i*cols+col] / piv
			for j := col; j < cols; j++ {
				a.data[i*cols+j] -= f * a.data[rank*cols+j]
			}
		}
		rank++
	}
	return rank
}

// NullSpaceWS is NullSpace with every temporary and the returned basis in
// the arena.
func (m *Matrix) NullSpaceWS(ws *Workspace, tol float64) []Vector {
	rows, cols := m.rows, m.cols
	a := m.CloneWS(ws)
	scale := a.MaxAbs()
	if scale == 0 {
		basis := ws.Vectors(cols)
		for i := range basis {
			basis[i] = ws.Vector(cols)
			basis[i][i] = 1
		}
		return basis
	}
	thresh := tol * scale
	pivotCols := ws.Ints(cols)[:0]
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		p, best := -1, thresh
		for i := r; i < rows; i++ {
			if v := cmplx.Abs(a.data[i*cols+c]); v > best {
				p, best = i, v
			}
		}
		if p < 0 {
			continue
		}
		if p != r {
			for j := 0; j < cols; j++ {
				a.data[r*cols+j], a.data[p*cols+j] = a.data[p*cols+j], a.data[r*cols+j]
			}
		}
		piv := a.data[r*cols+c]
		for j := 0; j < cols; j++ {
			a.data[r*cols+j] /= piv
		}
		for i := 0; i < rows; i++ {
			if i == r {
				continue
			}
			f := a.data[i*cols+c]
			if f == 0 {
				continue
			}
			for j := 0; j < cols; j++ {
				a.data[i*cols+j] -= f * a.data[r*cols+j]
			}
		}
		pivotCols = append(pivotCols, c)
		r++
	}
	isPivot := ws.Bools(cols)
	for _, c := range pivotCols {
		isPivot[c] = true
	}
	raw := ws.Vectors(cols)
	nRaw := 0
	for c := 0; c < cols; c++ {
		if isPivot[c] {
			continue
		}
		x := ws.Vector(cols)
		x[c] = 1
		for ri, pc := range pivotCols {
			x[pc] = -a.data[ri*cols+c]
		}
		raw[nRaw] = x
		nRaw++
	}
	return OrthonormalBasisWS(ws, 1e-12, raw[:nRaw])
}

// EigenHermitianWS is EigenHermitian with all scratch and the returned
// eigenvalues/eigenvectors in the arena.
func (m *Matrix) EigenHermitianWS(ws *Workspace) (vals []float64, v *Matrix) {
	m.mustSquare()
	n := m.rows
	scale := m.MaxAbs()
	if !m.equalH(1e-9 * (1 + scale)) {
		panic("cmplxmat: EigenHermitian on a non-Hermitian matrix")
	}
	raw, vecs, idx := m.jacobiWS(ws, scale)
	vals = ws.Floats(n)
	sortedV := ws.Matrix(n, n)
	for newCol, oldCol := range idx {
		vals[newCol] = raw[oldCol]
		for r := 0; r < n; r++ {
			sortedV.data[r*n+newCol] = vecs.data[r*n+oldCol]
		}
	}
	return vals, sortedV
}

// jacobiWS diagonalizes the Hermitian matrix m (scale = m.MaxAbs()) with
// cyclic complex Jacobi sweeps on an arena copy. It returns the
// eigenvalues in diagonal order, the eigenvector matrix with one column
// per eigenvalue in that same order, and the permutation idx listing
// the columns by descending eigenvalue. It is the one Jacobi body behind
// EigenHermitianWS, SVDWS and LeadingLeftSingularWS; it does not check
// that m is Hermitian.
func (m *Matrix) jacobiWS(ws *Workspace, scale float64) (raw []float64, v *Matrix, idx []int) {
	n := m.rows
	a := m.CloneWS(ws)
	v = ws.IdentityWS(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += cmplx.Abs(a.data[i*n+j])
			}
		}
		if off < 1e-13*(1+scale) {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.data[p*n+q]
				absApq := cmplx.Abs(apq)
				if absApq < 1e-15*(1+scale) {
					continue
				}
				app := real(a.data[p*n+p])
				aqq := real(a.data[q*n+q])
				phase := apq / complex(absApq, 0)
				theta := 0.5 * math.Atan2(2*absApq, app-aqq)
				c := complex(math.Cos(theta), 0)
				s := complex(math.Sin(theta), 0) * phase
				for k := 0; k < n; k++ {
					akp := a.data[k*n+p]
					akq := a.data[k*n+q]
					a.data[k*n+p] = akp*c + akq*cmplx.Conj(s)
					a.data[k*n+q] = -akq*c + akp*s
				}
				for k := 0; k < n; k++ {
					apk := a.data[p*n+k]
					aqk := a.data[q*n+k]
					a.data[p*n+k] = apk*c + aqk*s
					a.data[q*n+k] = -aqk*c + apk*cmplx.Conj(s)
				}
				for k := 0; k < n; k++ {
					vkp := v.data[k*n+p]
					vkq := v.data[k*n+q]
					v.data[k*n+p] = vkp*c + vkq*cmplx.Conj(s)
					v.data[k*n+q] = -vkq*c + vkp*s
				}
			}
		}
	}
	raw = ws.Floats(n)
	for i := range raw {
		raw[i] = real(a.data[i*n+i])
	}
	// Sort descending (insertion sort: n <= 8).
	idx = ws.Ints(n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && raw[idx[j-1]] < raw[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	return raw, v, idx
}

// equalH reports whether m equals its own conjugate transpose within tol,
// without materializing the transpose.
func (m *Matrix) equalH(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if cmplx.Abs(m.data[i*n+j]-cmplx.Conj(m.data[j*n+i])) > tol {
				return false
			}
		}
	}
	return true
}

// gramWS returns m^H m in the arena. It runs MulWS's loop on the
// conjugate transpose — same products, same accumulation order, same
// skip of zero left factors — without materializing m^H, so the result
// is bitwise m.HWS(ws).MulWS(ws, m).
func (m *Matrix) gramWS(ws *Workspace) *Matrix {
	r, c := m.rows, m.cols
	out := ws.Matrix(c, c)
	for i := 0; i < c; i++ {
		for k := 0; k < r; k++ {
			a := cmplx.Conj(m.data[k*c+i])
			if a == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				out.data[i*c+j] += a * m.data[k*c+j]
			}
		}
	}
	return out
}

// rightSingularWS is the shared front half of the SVD: the Jacobi
// eigendecomposition of the Gram matrix m^H m (Hermitian by
// construction, so the Hermitian guard is skipped) and the null
// threshold below which a singular value has no left vector.
func (m *Matrix) rightSingularWS(ws *Workspace) (raw []float64, vecs *Matrix, idx []int, nullTol float64) {
	gram := m.gramWS(ws)
	raw, vecs, idx = gram.jacobiWS(ws, gram.MaxAbs())
	return raw, vecs, idx, 1e-12 * (1 + m.MaxAbs())
}

// singularValue maps a Gram eigenvalue to its singular value, clamping
// rounding-negative eigenvalues to zero.
func singularValue(ev float64) float64 {
	if ev < 0 {
		ev = 0
	}
	return math.Sqrt(ev)
}

// leftColumnWS returns the left singular vector m v / s for the right
// singular vector stored in column col of vecs.
func (m *Matrix) leftColumnWS(ws *Workspace, vecs *Matrix, col int, s float64) Vector {
	vc := ws.Vector(vecs.rows)
	for i := range vc {
		vc[i] = vecs.data[i*vecs.cols+col]
	}
	return m.MulVecWS(ws, vc).ScaleWS(ws, complex(1/s, 0))
}

// SVDWS is SVD with all scratch and the returned factors in the arena.
func (m *Matrix) SVDWS(ws *Workspace) (u *Matrix, s []float64, v *Matrix) {
	rows, cols := m.rows, m.cols
	k := rows
	if cols < k {
		k = cols
	}
	raw, vecs, idx, nullTol := m.rightSingularWS(ws)
	s = ws.Floats(k)
	v = ws.Matrix(cols, k)
	u = ws.Matrix(rows, k)
	for j := 0; j < k; j++ {
		s[j] = singularValue(raw[idx[j]])
		for i := 0; i < cols; i++ {
			v.data[i*k+j] = vecs.data[i*cols+idx[j]]
		}
		if s[j] > nullTol {
			uc := m.leftColumnWS(ws, vecs, idx[j], s[j])
			for i := 0; i < rows; i++ {
				u.data[i*k+j] = uc[i]
			}
		}
	}
	// Complete null U columns to an orthonormal set.
	ucols := ws.Vectors(k)
	for j := 0; j < k; j++ {
		ucols[j] = u.ColWS(ws, j)
	}
	for j := 0; j < k; j++ {
		if ucols[j].Norm() > 0.5 {
			continue
		}
		for e := 0; e < rows; e++ {
			cand := ws.Vector(rows)
			cand[e] = 1
			for jj := 0; jj < k; jj++ {
				if jj != j && ucols[jj].Norm() > 0.5 {
					cand = cand.SubWS(ws, cand.ProjectOntoWS(ws, ucols[jj]))
				}
			}
			if cand.Norm() > 1e-6 {
				ucols[j] = cand.NormalizeWS(ws)
				for i := 0; i < rows; i++ {
					u.data[i*k+j] = ucols[j][i]
				}
				break
			}
		}
	}
	return u, s, v
}

// LeadingLeftSingularWS returns the leading left singular vectors of m
// in descending singular-value order: at most n of them, stopping before
// the first whose singular value is at or below rel times the largest.
// Each returned vector is bitwise the corresponding column of SVDWS's U.
// It computes only those columns, not V or the rest of U; when one of
// them would come from SVDWS's null-column completion (a singular value
// at the null threshold, or a left vector too short to keep), it falls
// back to SVDWS itself. The vectors and scratch live in the arena.
func (m *Matrix) LeadingLeftSingularWS(ws *Workspace, n int, rel float64) []Vector {
	k := m.rows
	if m.cols < k {
		k = m.cols
	}
	if n > k {
		n = k
	}
	if n <= 0 {
		return nil
	}
	mark := ws.Mark()
	raw, vecs, idx, nullTol := m.rightSingularWS(ws)
	out := ws.Vectors(n)
	s0 := singularValue(raw[idx[0]])
	for j := 0; j < n; j++ {
		sj := singularValue(raw[idx[j]])
		if sj <= rel*s0 {
			return out[:j]
		}
		if !(sj > nullTol) {
			break
		}
		if out[j] = m.leftColumnWS(ws, vecs, idx[j], sj); out[j].Norm() <= 0.5 {
			break
		}
		if j == n-1 {
			return out
		}
	}
	ws.Release(mark)
	u, s, _ := m.SVDWS(ws)
	out = ws.Vectors(n)
	for j := 0; j < n; j++ {
		if s[j] <= rel*s[0] {
			return out[:j]
		}
		out[j] = u.ColWS(ws, j)
	}
	return out
}

// CharPolyWS is CharPoly with matrix scratch in the arena. The returned
// polynomial is arena-backed.
func (m *Matrix) CharPolyWS(ws *Workspace) Poly {
	m.mustSquare()
	n := m.rows
	p := Poly(ws.Complexes(n + 1))
	p[n] = 1
	mk := m.CloneWS(ws)
	ck := -mk.Trace()
	p[n-1] = ck
	for k := 2; k <= n; k++ {
		t := mk.CloneWS(ws)
		for i := 0; i < n; i++ {
			t.data[i*n+i] += ck
		}
		mk = m.MulWS(ws, t)
		ck = -mk.Trace() / complex(float64(k), 0)
		p[n-k] = ck
	}
	return p
}

// EigenvectorWS is Eigenvector with null-space and iteration scratch in
// the arena. The returned vector is arena-backed.
func (m *Matrix) EigenvectorWS(ws *Workspace, lambda complex128) (Vector, error) {
	m.mustSquare()
	n := m.rows
	shifted := m.CloneWS(ws)
	for i := 0; i < n; i++ {
		shifted.data[i*n+i] -= lambda
	}
	scale := m.MaxAbs()
	if scale == 0 {
		scale = 1
	}
	for _, tol := range []float64{1e-10, 1e-8, 1e-6, 1e-4} {
		if ns := shifted.NullSpaceWS(ws, tol); len(ns) > 0 {
			return ns[0], nil
		}
	}
	// Inverse iteration fallback on a slightly perturbed shift.
	pert := complex(1e-10*scale, 1e-10*scale)
	shifted = m.CloneWS(ws)
	for i := 0; i < n; i++ {
		shifted.data[i*n+i] -= lambda + pert
	}
	x := ws.Vector(n)
	for i := range x {
		x[i] = complex(1/math.Sqrt(float64(n)), 0)
	}
	for iter := 0; iter < 50; iter++ {
		y, err := shifted.SolveWS(ws, x)
		if err != nil {
			return nil, ErrEigenFailed
		}
		x = y.NormalizeWS(ws)
		r := m.MulVecWS(ws, x).SubWS(ws, x.ScaleWS(ws, lambda))
		if r.Norm() < 1e-6*scale {
			return x, nil
		}
	}
	return nil, ErrEigenFailed
}

// AnyEigenvectorWS is AnyEigenvector with decomposition and
// root-finding scratch in the arena. The returned eigenvector is
// arena-backed. Durand-Kerner's iteration count is data-dependent, but
// its buffers are sized by the polynomial's degree (Poly.RootsWS), so
// root finding allocates nothing on the heap either.
func (m *Matrix) AnyEigenvectorWS(ws *Workspace) (complex128, Vector, error) {
	vals, err := m.CharPolyWS(ws).RootsWS(ws)
	if err != nil {
		return 0, nil, err
	}
	// Insertion sort by descending magnitude (n <= 8).
	for i := 1; i < len(vals); i++ {
		j := i
		for j > 0 && cmplx.Abs(vals[j-1]) < cmplx.Abs(vals[j]) {
			vals[j-1], vals[j] = vals[j], vals[j-1]
			j--
		}
	}
	var lastErr error
	for _, lambda := range vals {
		v, err := m.EigenvectorWS(ws, lambda)
		if err == nil {
			return lambda, v, nil
		}
		lastErr = err
	}
	return 0, nil, lastErr
}
