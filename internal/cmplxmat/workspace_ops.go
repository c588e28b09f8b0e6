package cmplxmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
)

// Workspace-threaded forms of the package's operations: results and
// temporaries come from the workspace arena, so hot loops — a slot
// evaluation, a solver attempt, an eigendecomposition — run without
// heap allocation. Every operation has one kernel that does its
// arithmetic: an *Into form, an unexported *Into or *Data function, or
// the *WS form itself. A heap form and a *WS form only allocate their
// result (New/make, or ws.Matrix/ws.Vector) and call that kernel; a
// heap form whose kernel needs scratch borrows a pooled workspace and
// copies its result out. Each operation therefore has the same bits in
// every form by construction.

// RandomGaussianVectorWS returns an arena-backed n-vector with i.i.d.
// CN(0,1) entries drawn from rng, consuming the same rng draws as
// RandomGaussianVector.
func RandomGaussianVectorWS(ws *Workspace, rng *rand.Rand, n int) Vector {
	v := ws.Vector(n)
	fillCN(v, rng)
	return v
}

// SubWS returns v - w in the arena.
func (v Vector) SubWS(ws *Workspace, w Vector) Vector {
	out := ws.Vector(len(v))
	v.subInto(out, w)
	return out
}

// ScaleWS returns s*v in the arena.
func (v Vector) ScaleWS(ws *Workspace, s complex128) Vector {
	out := ws.Vector(len(v))
	v.ScaleInto(out, s)
	return out
}

// NormalizeWS returns v scaled to unit norm, in the arena.
func (v Vector) NormalizeWS(ws *Workspace) Vector {
	out := ws.Vector(len(v))
	v.normalizeInto(out)
	return out
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
	m.colInto(v, j)
	return v
}

// MulWS returns m*b in the arena.
func (m *Matrix) MulWS(ws *Workspace, b *Matrix) *Matrix {
	out := ws.Matrix(m.rows, b.cols)
	m.MulInto(out, b)
	return out
}

// MulVecWS returns m*v in the arena.
func (m *Matrix) MulVecWS(ws *Workspace, v Vector) Vector {
	out := ws.Vector(m.rows)
	m.MulVecInto(out, v)
	return out
}

// TWS returns the (unconjugated) transpose of m in the arena.
func (m *Matrix) TWS(ws *Workspace) *Matrix {
	out := ws.Matrix(m.cols, m.rows)
	m.transposeInto(out, false)
	return out
}

// OrthonormalBasisWS applies modified Gram-Schmidt to vs and returns an
// orthonormal basis for their span, drawn from the arena. Vectors whose
// residual norm falls below tol (relative to their original norm) are
// dropped as linearly dependent.
func OrthonormalBasisWS(ws *Workspace, tol float64, vs []Vector) []Vector {
	basis := ws.Vectors(len(vs))
	for i, v := range vs {
		basis[i] = ws.Vector(len(v))
	}
	return basis[:OrthonormalBasisInto(basis, tol, vs)]
}

// OrthonormalBasisInto is the modified Gram-Schmidt kernel behind
// OrthonormalBasisWS: it writes the basis into dst and returns its size,
// each vector rejected in place from the basis vectors before it and
// then normalized. dst needs room for len(vs)
// vectors of the vs' dimension.
func OrthonormalBasisInto(dst []Vector, tol float64, vs []Vector) int {
	n := 0
	for _, v := range vs {
		orig := v.Norm()
		if orig == 0 {
			continue
		}
		u := dst[n]
		mustSameDim(u, v)
		copy(u, v)
		for _, b := range dst[:n] {
			u.RejectInPlace(b)
		}
		nrm := u.Norm()
		if nrm <= tol*orig {
			continue
		}
		if nrm != 0 {
			u.ScaleInto(u, complex(1/nrm, 0)) // normalizeInto, reusing nrm
		}
		n++
	}
	return n
}

// OrthogonalComplementVectorWS is the kernel of
// OrthogonalComplementVector. The returned vector is arena-backed; for
// up to SmallDim vectors of dimension up to SmallDim, the basis and the
// candidate vectors live in local arrays.
func OrthogonalComplementVectorWS(ws *Workspace, n int, tol float64, vs []Vector) Vector {
	var basisBuf [SmallDim][SmallDim]complex128
	var basisHdr [SmallDim]Vector
	var basis []Vector
	if len(vs) <= SmallDim && small(n) {
		for i := range vs {
			basisHdr[i] = basisBuf[i][:n]
		}
		basis = basisHdr[:OrthonormalBasisInto(basisHdr[:len(vs)], tol, vs)]
	} else {
		basis = OrthonormalBasisWS(ws, tol, vs)
	}
	if len(basis) >= n {
		return nil
	}
	// Project each standard basis vector out of the span; the one with
	// the largest residual is the numerically safest complement seed.
	var uBuf, bestBuf [SmallDim]complex128
	u, best := ws.VectorIn(uBuf[:], n), ws.VectorIn(bestBuf[:], n)
	bestNorm := -1.0
	for i := 0; i < n; i++ {
		clear(u)
		u[i] = 1
		for _, b := range basis {
			u.RejectInPlace(b)
		}
		if nrm := u.Norm(); nrm > bestNorm {
			bestNorm = nrm
			u, best = best, u
		}
	}
	if bestNorm <= tol {
		return nil
	}
	return best.NormalizeWS(ws)
}

// luFactorInPlace runs the partial-pivot elimination of one n x n system
// packed row-major in data, recording the row permutation in perm
// (length n). It is the single elimination loop of every LU path
// (determinant, rank, solve, inverse), on local or arena storage alike.
func luFactorInPlace(data []complex128, n int, perm []int) (swaps int, ok bool) {
	for i := range perm {
		perm[i] = i
	}
	ok = true
	for k := 0; k < n; k++ {
		// Candidates compare by magnitude. The last column has a single
		// candidate, so it skips the magnitude: the zero-pivot test
		// reads the pivot itself, and cmplx.Abs(z) == 0 exactly when
		// z == 0 (Hypot is 0 only for two zero parts, NaN for a NaN).
		p := k
		if k+1 < n {
			best := cmplx.Abs(data[k*n+k])
			for i := k + 1; i < n; i++ {
				if a := cmplx.Abs(data[i*n+k]); a > best {
					p, best = i, a
				}
			}
		}
		if data[p*n+k] == 0 {
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

// luSolveData runs permutation + forward/back substitution of one
// right-hand side through a packed factorization, writing into x. The
// solve and the inverse (one unit right-hand side per column) both run
// through it.
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

// luInverseData writes the inverse of the packed factorization into
// inv (n x n, row-major), solving for one unit right-hand side per
// column. unit must be zeroed; it is left zeroed. col is scratch.
func luInverseData(data []complex128, n int, perm []int, unit, col Vector, inv []complex128) {
	for c := 0; c < n; c++ {
		unit[c] = 1
		luSolveData(data, n, perm, unit, col)
		unit[c] = 0
		for i := 0; i < n; i++ {
			inv[i*n+c] = col[i]
		}
	}
}

// DetWS returns the determinant. A small m is factored on local
// storage; a larger one on arena scratch released before returning.
func (m *Matrix) DetWS(ws *Workspace) complex128 {
	if !small(m.rows) {
		defer ws.Release(ws.Mark())
	}
	var st luStore
	lu, _, swaps, ok := st.factor(ws, m)
	if !ok {
		return 0
	}
	n := m.rows
	det := complex(1, 0)
	if swaps%2 == 1 {
		det = -det
	}
	for i := 0; i < n; i++ {
		det *= lu[i*n+i]
	}
	return det
}

// SolveWS solves m*x = b, returning x in the arena. The factorization
// lives on local storage for a small m, in the arena otherwise.
func (m *Matrix) SolveWS(ws *Workspace, b Vector) (Vector, error) {
	m.mustSquare()
	if len(b) != m.rows {
		panic("cmplxmat: Solve dimension mismatch")
	}
	var st luStore
	lu, perm, _, ok := st.factor(ws, m)
	if !ok {
		return nil, ErrSingular
	}
	x := ws.Vector(m.rows)
	luSolveData(lu, m.rows, perm, b, x)
	return x, nil
}

// InverseWS inverts m, returning the inverse in the arena. The
// factorization and the column scratch live on local storage for a
// small m, in the arena otherwise.
func (m *Matrix) InverseWS(ws *Workspace) (*Matrix, error) {
	var st luStore
	lu, perm, _, ok := st.factor(ws, m)
	if !ok {
		return nil, ErrSingular
	}
	n := m.rows
	inv := ws.Matrix(n, n)
	luInverseData(lu, n, perm, ws.VectorIn(st.unit[:], n), ws.VectorIn(st.col[:], n), inv.data)
	return inv, nil
}

// RankWS is Rank with the elimination scratch on local storage for a
// small m and in the arena, released before returning, otherwise.
func (m *Matrix) RankWS(ws *Workspace, tol float64) int {
	if !small(m.rows) || !small(m.cols) {
		defer ws.Release(ws.Mark())
	}
	var st luStore
	a := st.elim(ws, m.rows, m.cols)
	copy(a, m.data)
	return rankOf(a, m.rows, m.cols, tol)
}

// rankOf destroys the rows x cols matrix packed row-major in a,
// returning its numerical rank (shared by Rank/RankWS).
func rankOf(a []complex128, rows, cols int, tol float64) int {
	scale := maxAbs(a)
	if scale == 0 {
		return 0
	}
	thresh := tol * scale
	rank := 0
	for col := 0; col < cols && rank < rows; col++ {
		p, best := -1, thresh
		for i := rank; i < rows; i++ {
			if v := cmplx.Abs(a[i*cols+col]); v > best {
				p, best = i, v
			}
		}
		if p < 0 {
			continue
		}
		if p != rank {
			for j := 0; j < cols; j++ {
				a[rank*cols+j], a[p*cols+j] = a[p*cols+j], a[rank*cols+j]
			}
		}
		piv := a[rank*cols+col]
		for i := rank + 1; i < rows; i++ {
			f := a[i*cols+col] / piv
			for j := col; j < cols; j++ {
				a[i*cols+j] -= f * a[rank*cols+j]
			}
		}
		rank++
	}
	return rank
}

// NullSpaceWS is NullSpace with the returned basis in the arena. For
// at most SmallDim rows and columns the elimination and the raw
// null vectors live in local arrays, in the arena otherwise.
func (m *Matrix) NullSpaceWS(ws *Workspace, tol float64) []Vector {
	rows, cols := m.rows, m.cols
	scale := m.MaxAbs()
	if scale == 0 {
		basis := ws.Vectors(cols)
		for i := range basis {
			basis[i] = ws.Vector(cols)
			basis[i][i] = 1
		}
		return basis
	}
	var st luStore
	a := st.elim(ws, rows, cols)
	copy(a, m.data)
	var pivotBuf [SmallDim]int
	var rawBuf [SmallDim][SmallDim]complex128
	var rawHdr [SmallDim]Vector
	var pivotCols []int
	var raw []Vector
	if small(rows) && small(cols) {
		for c := 0; c < cols; c++ {
			rawHdr[c] = rawBuf[c][:cols]
		}
		pivotCols, raw = pivotBuf[:cols], rawHdr[:cols]
	} else {
		pivotCols, raw = ws.Ints(cols), ws.Vectors(cols)
		for c := range raw {
			raw[c] = ws.Vector(cols)
		}
	}
	thresh := tol * scale
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		p, best := -1, thresh
		for i := r; i < rows; i++ {
			if v := cmplx.Abs(a[i*cols+c]); v > best {
				p, best = i, v
			}
		}
		if p < 0 {
			continue
		}
		if p != r {
			for j := 0; j < cols; j++ {
				a[r*cols+j], a[p*cols+j] = a[p*cols+j], a[r*cols+j]
			}
		}
		piv := a[r*cols+c]
		for j := 0; j < cols; j++ {
			a[r*cols+j] /= piv
		}
		for i := 0; i < rows; i++ {
			if i == r {
				continue
			}
			f := a[i*cols+c]
			if f == 0 {
				continue
			}
			for j := 0; j < cols; j++ {
				a[i*cols+j] -= f * a[r*cols+j]
			}
		}
		pivotCols[r] = c
		r++
	}
	pivotCols = pivotCols[:r]
	nRaw := 0
	for c := 0; c < cols; c++ {
		if slices.Contains(pivotCols, c) {
			continue
		}
		x := raw[nRaw]
		x[c] = 1
		for ri, pc := range pivotCols {
			x[pc] = -a[ri*cols+c]
		}
		nRaw++
	}
	return OrthonormalBasisWS(ws, 1e-12, raw[:nRaw])
}

// EigenHermitianWS is EigenHermitian with the returned eigenvalues and
// eigenvectors in the arena; the Jacobi working copies live on local
// storage for a small m and in the arena otherwise.
func (m *Matrix) EigenHermitianWS(ws *Workspace) (vals []float64, v *Matrix) {
	m.mustSquare()
	n := m.rows
	scale := m.MaxAbs()
	if !m.equalH(1e-9 * (1 + scale)) {
		panic("cmplxmat: EigenHermitian on a non-Hermitian matrix")
	}
	var st eigenStore
	a, vecs, raw, idx := st.slices(ws, n)
	copy(a, m.data)
	jacobi(a, vecs, raw, idx, scale)
	vals = ws.Floats(n)
	sortedV := ws.Matrix(n, n)
	for newCol, oldCol := range idx {
		vals[newCol] = raw[oldCol]
		for r := 0; r < n; r++ {
			sortedV.data[r*n+newCol] = vecs[r*n+oldCol]
		}
	}
	return vals, sortedV
}

// jacobi diagonalizes the n x n Hermitian matrix packed row-major in a
// (n = len(raw), scale its largest entry magnitude) in place with
// cyclic complex Jacobi sweeps. v must be zeroed; it receives the
// eigenvectors, one column per eigenvalue in diagonal order. raw
// receives the eigenvalues in that order, and idx the permutation
// listing the columns by descending eigenvalue. It is the one Jacobi
// body behind EigenHermitianWS, SVDWS and LeadingLeftSingularInto, on
// whichever storage the caller chose; it does not check that a is
// Hermitian.
func jacobi(a, v []complex128, raw []float64, idx []int, scale float64) {
	n := len(raw)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		converged, abs01 := offBelow(a, n, 1e-13*(1+scale))
		if converged {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				absApq := abs01
				if p != 0 || q != 1 || abs01 < 0 {
					absApq = cmplx.Abs(apq)
				}
				if absApq < 1e-15*(1+scale) {
					continue
				}
				app := real(a[p*n+p])
				aqq := real(a[q*n+q])
				phase := apq / complex(absApq, 0)
				theta := 0.5 * math.Atan2(2*absApq, app-aqq)
				// Sincos runs Sin's and Cos's argument reduction and
				// polynomials once for both: the same bits, except that
				// Sin hands a NaN argument back unchanged.
				sinT, cosT := math.Sincos(theta)
				if theta != theta {
					sinT = theta
				}
				c := complex(cosT, 0)
				s := complex(sinT, 0) * phase
				sc := cmplx.Conj(s)
				for k := 0; k < n; k++ {
					akp := a[k*n+p]
					akq := a[k*n+q]
					a[k*n+p] = akp*c + akq*sc
					a[k*n+q] = -akq*c + akp*s
				}
				for k := 0; k < n; k++ {
					apk := a[p*n+k]
					aqk := a[q*n+k]
					a[p*n+k] = apk*c + aqk*s
					a[q*n+k] = -aqk*c + apk*sc
				}
				for k := 0; k < n; k++ {
					vkp := v[k*n+p]
					vkq := v[k*n+q]
					v[k*n+p] = vkp*c + vkq*sc
					v[k*n+q] = -vkq*c + vkp*s
				}
			}
		}
	}
	for i := range raw {
		raw[i] = real(a[i*n+i])
	}
	// Sort descending (insertion sort: n <= 8).
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
}

// offBelow is jacobi's convergence test: whether off, the sum of |a_ij|
// over the strict upper triangle of the n x n matrix a in row order, is
// below thr. The sum is bracketed first without a Hypot: each term lies
// between its maxPart p and 2p, and a rounded sum of non-negative terms
// does not decrease when a term grows, so the sums of the p and of the
// 2p bracket off. Only a bracket that straddles thr, or a NaN part,
// computes off itself. Then abs01 is the |a_01| summed into it, which
// the sweep's first rotation, the pair (0, 1), reuses: nothing changes
// a in between, so it is the same Hypot of the same bits. Otherwise
// abs01 is -1.
func offBelow(a []complex128, n int, thr float64) (below bool, abs01 float64) {
	var lo, hi float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p := maxPart(a[i*n+j])
			lo += p
			hi += 2 * p
		}
	}
	if lo == lo && hi == hi {
		if lo >= thr {
			return false, -1
		}
		if hi < thr {
			return true, -1
		}
	}
	var off float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			h := cmplx.Abs(a[i*n+j])
			if i == 0 && j == 1 {
				abs01 = h
			}
			off += h
		}
	}
	return off < thr, abs01
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

// gramInto writes m^H m into g (zeroed, m.cols x m.cols). It runs
// MulWS's loop on the conjugate transpose — same products, same
// accumulation order, same skip of zero left factors — without
// materializing m^H, so the result is bitwise m.H().Mul(m).
func (m *Matrix) gramInto(g []complex128) {
	r, c := m.rows, m.cols
	for i := 0; i < c; i++ {
		for k := 0; k < r; k++ {
			a := cmplx.Conj(m.data[k*c+i])
			if a == 0 {
				continue
			}
			for j := 0; j < c; j++ {
				g[i*c+j] += a * m.data[k*c+j]
			}
		}
	}
}

// gramMaxAbs returns MaxAbs of the n x n Gram matrix g that gramInto
// built from m, reading the diagonal's real parts and computing one
// Hypot per off-diagonal pair instead of one per entry. For a NaN-free
// m the result has the same bits:
//   - Each diagonal term conj(x)*x has the real part xr*xr - (-xi)*xi,
//     which is >= +0 or +Inf, and the imaginary part xr*xi + (-xi)*xr,
//     which is exactly +0 unless xr*xi overflows, and then the real
//     part is +Inf. So g_ii is (re, +0) with Hypot(re, +0) = re, or
//     (+Inf, NaN) with Hypot = +Inf = re.
//   - If m holds an Inf, the diagonal holds +Inf and both scans
//     return +Inf.
//   - Otherwise g_ji is conj(g_ij) up to the signs of zeros: the terms
//     pair up as conjugates (their real parts are the same products,
//     their imaginary parts a-b and b-a, exact negations under
//     round-to-nearest, NaN together), and a term one side skips as a
//     zero left factor is a finite factor times 0, a signed zero, on
//     the other. Hypot ignores signs, so |g_ji| has the bits of |g_ij|.
//   - A maximum does not depend on scan order, and a NaN never wins
//     the > comparison in either scan.
//
// A NaN in column j of m makes g_jj's real part NaN, so a NaN on the
// diagonal sends the scan to the full maxAbs.
func gramMaxAbs(g []complex128, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		d := real(g[i*n+i])
		if d != d {
			return maxAbs(g)
		}
		if d > s {
			s = d
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !boundBelow(g[i*n+j], s) {
				if a := cmplx.Abs(g[i*n+j]); a > s {
					s = a
				}
			}
		}
	}
	return s
}

// rightSingular is the shared front half of the SVD: it builds the
// Gram matrix m^H m in a (zeroed, m.cols x m.cols) and runs its Jacobi
// eigendecomposition into v, raw and idx (see jacobi), skipping the
// Hermitian guard because the Gram matrix is Hermitian by
// construction.
func (m *Matrix) rightSingular(a, v []complex128, raw []float64, idx []int) {
	m.gramInto(a)
	jacobi(a, v, raw, idx, gramMaxAbs(a, m.cols))
}

// nullTol is the threshold at or below which a singular value of m has
// no left vector.
func (m *Matrix) nullTol() float64 { return 1e-12 * (1 + m.MaxAbs()) }

// aboveNull reports whether s > m.nullTol(), taking MaxAbs's Hypot per
// entry only when a cheaper bound cannot decide. With p the largest
// maxPart over m, 2p bounds MaxAbs from above when no part is NaN, and
// rounding is monotone, so 1e-12*(1+x) does not decrease as x grows: a
// singular value above the threshold built from 2p is above the exact
// one. A NaN part makes p NaN and leaves the decision to nullTol.
func (m *Matrix) aboveNull(s float64) bool {
	var p float64
	for _, z := range m.data {
		p = max(p, maxPart(z))
	}
	return s > 1e-12*(1+2*p) || s > m.nullTol()
}

// singularValue maps a Gram eigenvalue to its singular value, clamping
// rounding-negative eigenvalues to zero.
func singularValue(ev float64) float64 {
	if ev < 0 {
		ev = 0
	}
	return math.Sqrt(ev)
}

// leftColumnInto writes into dst the left singular vector m v / s for
// the right singular vector v in column col of the m.cols x m.cols
// eigenvector matrix vecs.
func (m *Matrix) leftColumnInto(ws *Workspace, dst Vector, vecs []complex128, col int, s float64) {
	var buf [SmallDim]complex128
	vc := ws.VectorIn(buf[:], m.cols)
	for i := range vc {
		vc[i] = vecs[i*m.cols+col]
	}
	mulVecData(m.data, m.rows, m.cols, vc, dst)
	dst.ScaleInto(dst, complex(1/s, 0))
}

// SVDWS is SVD with the returned factors and the null completion's
// scratch in the arena; the Gram matrix and its Jacobi working copies
// live on local storage when m has at most SmallDim columns.
func (m *Matrix) SVDWS(ws *Workspace) (u *Matrix, s []float64, v *Matrix) {
	rows, cols := m.rows, m.cols
	k := rows
	if cols < k {
		k = cols
	}
	var st eigenStore
	a, vecs, raw, idx := st.slices(ws, cols)
	m.rightSingular(a, vecs, raw, idx)
	nullTol := m.nullTol()
	s = ws.Floats(k)
	v = ws.Matrix(cols, k)
	u = ws.Matrix(rows, k)
	for j := 0; j < k; j++ {
		s[j] = singularValue(raw[idx[j]])
		for i := 0; i < cols; i++ {
			v.data[i*k+j] = vecs[i*cols+idx[j]]
		}
		if s[j] > nullTol {
			uc := ws.Vector(rows)
			m.leftColumnInto(ws, uc, vecs, idx[j], s[j])
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
					cand.RejectInPlace(ucols[jj])
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

// LeadingLeftSingularInto writes the leading left singular vectors of m
// into dst in descending singular-value order, one m.Rows()-vector
// each, stopping before the first whose singular value is at or below
// rel times the largest. Each is bitwise the corresponding column of
// SVDWS's U. It returns how many it wrote:
// at most len(dst) and min(m.Rows(), m.Cols()). It computes only those
// columns, not V or the rest of U; when one of them would come from
// SVDWS's null-column completion (a singular value at the null
// threshold, or a left vector too short to keep), it falls back to
// SVDWS itself. For at most SmallDim columns the Gram matrix and its
// Jacobi working copies live in local arrays; any arena scratch is
// released before it returns.
func (m *Matrix) LeadingLeftSingularInto(ws *Workspace, dst []Vector, rel float64) int {
	n := min(len(dst), m.rows, m.cols)
	if n <= 0 {
		return 0
	}
	if !small(m.cols) {
		defer ws.Release(ws.Mark())
	}
	var st eigenStore
	a, vecs, raw, idx := st.slices(ws, m.cols)
	m.rightSingular(a, vecs, raw, idx)
	s0 := singularValue(raw[idx[0]])
	for j := 0; j < n; j++ {
		sj := singularValue(raw[idx[j]])
		if sj <= rel*s0 {
			return j
		}
		if !m.aboveNull(sj) {
			break
		}
		m.leftColumnInto(ws, dst[j], vecs, idx[j], sj)
		if dst[j].Norm() <= 0.5 {
			break
		}
		if j == n-1 {
			return n
		}
	}
	return m.svdLeadingInto(ws, dst[:n], rel)
}

// svdLeadingInto is LeadingLeftSingularInto's fallback: it copies the
// leading columns of SVDWS's U into dst under the same stopping rule,
// releasing the SVD's arena storage before it returns.
func (m *Matrix) svdLeadingInto(ws *Workspace, dst []Vector, rel float64) int {
	defer ws.Release(ws.Mark())
	u, s, _ := m.SVDWS(ws)
	for j := range dst {
		if s[j] <= rel*s[0] {
			return j
		}
		for i := range dst[j] {
			dst[j][i] = u.data[i*u.cols+j]
		}
	}
	return len(dst)
}

// CharPolyWS returns the characteristic polynomial det(zI - m) of a
// square matrix using the Faddeev-LeVerrier recursion, in
// ascending-power form: degree n, leading coefficient 1. The
// polynomial and the matrix scratch live in the arena.
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

// EigenvectorWS returns a unit eigenvector associated with the
// eigenvalue lambda, via the null space of (m - lambda*I). If the null
// space is numerically empty the eigenvalue estimate is refined by
// inverse iteration before giving up. The vector and the null-space
// and iteration scratch live in the arena.
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

// AnyEigenvectorWS returns some (eigenvalue, unit eigenvector) pair of
// a square matrix, preferring the eigenvalue of largest magnitude,
// which is the numerically best conditioned for the alignment products
// the paper's closed forms use (footnote 4: v4 = eig(H32^-1 H22 H21^-1
// H31)). The eigenvalues are the roots of CharPolyWS. The eigenvector
// and the decomposition and root-finding scratch live in the arena.
// Durand-Kerner's iteration count is data-dependent, but
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
