package cmplxmat

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// Native fuzzing for the workspace/heap bitwise-equivalence contract:
// TestWorkspaceOpsMatchHeapOps pins it on Gaussian draws, these fuzz
// targets chase it into the corners Gaussian sampling never visits —
// near-singular systems, huge dynamic range, denormals, exact zeros.
// The invariant under fuzz is the same as under test: a *WS method runs
// the identical floating-point operations in the identical order as its
// heap twin, so results (and error behavior) must match bit for bit.

// fuzzDim bounds fuzzed systems to the antenna counts the simulator
// uses (2x2 .. 4x4), keeping each case microseconds-cheap.
func fuzzDim(sel byte) int { return 2 + int(sel)%3 }

// fuzzEntry builds one complex entry from two fuzzed float64s,
// sanitizing NaN/Inf (the matrix algebra has no defined contract for
// them) while keeping extreme magnitudes, subnormals, and signed zeros.
func fuzzEntry(re, im float64) complex128 {
	s := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return x
	}
	return complex(s(re), s(im))
}

// fuzzMatrix fills an n x n matrix by cycling over the fuzzed value
// pool; the pool always has at least one element.
func fuzzMatrix(n int, pool []float64) *Matrix {
	m := New(n, n)
	k := 0
	next := func() float64 {
		v := pool[k%len(pool)]
		k++
		return v
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.SetAt(i, j, fuzzEntry(next(), next()))
		}
	}
	return m
}

func fuzzVector(n int, pool []float64, off int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = fuzzEntry(pool[(off+2*i)%len(pool)], pool[(off+2*i+1)%len(pool)])
	}
	return v
}

// bitEqualC compares complex slices by bit pattern: extreme fuzz inputs
// legitimately overflow to Inf/NaN inside the algorithms, and the
// contract is that both twins produce the same bits — including the
// same NaNs (which == and reflect.DeepEqual reject).
func bitEqualC(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

func bitEqualF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// bitEqualM compares matrices entry by entry with bitEqualC semantics.
func bitEqualM(a, b *Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			x, y := a.At(i, j), b.At(i, j)
			if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
				math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
				return false
			}
		}
	}
	return true
}

// FuzzSolveWS cross-checks SolveWS against Solve bitwise — same
// solution entries, same error behavior, for arbitrary (including
// singular and badly scaled) systems.
func FuzzSolveWS(f *testing.F) {
	f.Add(byte(0), 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
	f.Add(byte(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)                  // singular: all zeros
	f.Add(byte(2), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)                  // singular: rank 1
	f.Add(byte(0), 1e-300, 1e300, -1e-300, 1e150, 5e-324, -1e8, 1e-16, 1.0) // extreme dynamic range
	f.Add(byte(2), math.Pi, -math.E, math.Sqrt2, 0.1, -0.7, 42.0, 1e-9, -3.5)
	f.Fuzz(func(t *testing.T, sel byte, a, b, c, d, e, g, h, i float64) {
		n := fuzzDim(sel)
		pool := []float64{a, b, c, d, e, g, h, i}
		m := fuzzMatrix(n, pool)
		rhs := fuzzVector(n, pool, 3)

		ws := NewWorkspace()
		gotX, gotErr := m.SolveWS(ws, rhs)
		wantX, wantErr := m.Solve(rhs)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error behavior diverged: WS=%v heap=%v", gotErr, wantErr)
		}
		if gotErr == nil && !bitEqualC(gotX, wantX) {
			t.Fatalf("SolveWS diverged from Solve:\n ws=%v\n heap=%v", gotX, wantX)
		}
	})
}

// FuzzSVDWS cross-checks SVDWS against SVD bitwise: identical singular
// values and identical singular-vector matrices. It also pins the
// zero-forcing fast path, LeadingLeftSingularWS, to SVDWS's leading U
// columns on the square matrix and on a wide one of the zero-forcing
// shape (one more column than rows), whatever path it takes, except
// that the M = 2 closed form's vector (a 2-row matrix, one vector) is
// checked against the math/big reference instead (leading2Ref).
func FuzzSVDWS(f *testing.F) {
	f.Add(byte(0), 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
	f.Add(byte(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(byte(2), 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
	f.Add(byte(0), 1e-300, 1e300, -1e-300, 1e150, 5e-324, -1e8, 1e-16, 1.0)
	f.Add(byte(1), math.Pi, -math.E, math.Sqrt2, 0.1, -0.7, 42.0, 1e-9, -3.5)
	f.Fuzz(func(t *testing.T, sel byte, a, b, c, d, e, g, h, i float64) {
		n := fuzzDim(sel)
		m := fuzzMatrix(n, []float64{a, b, c, d, e, g, h, i})

		ws := NewWorkspace()
		gu, gs, gv := m.SVDWS(ws)
		wu, ws2, wv := m.SVD()
		if !bitEqualF(gs, ws2) {
			t.Fatalf("singular values diverged:\n ws=%v\n heap=%v", gs, ws2)
		}
		if !bitEqualM(gu, wu) {
			t.Fatal("SVDWS U diverged from SVD U")
		}
		if !bitEqualM(gv, wv) {
			t.Fatal("SVDWS V diverged from SVD V")
		}

		cols := make([]Vector, n+1)
		for j := range cols {
			cols[j] = fuzzVector(n, []float64{a, b, c, d, e, g, h, i}, 2*j+1)
		}
		for _, mm := range []*Matrix{m, FromColumns(cols...)} {
			u, s, _ := mm.SVDWS(NewWorkspace())
			for _, rel := range []float64{1e-12, -1} {
				for k := 1; k <= n; k++ {
					lead := mm.LeadingLeftSingularWS(ws, k, rel)
					want := 0
					for want < k && !(s[want] <= rel*s[0]) {
						want++
					}
					if len(lead) != want {
						t.Fatalf("LeadingLeftSingularWS(%d, %g) gave %d columns, SVDWS rule %d", k, rel, len(lead), want)
					}
					for j := range lead {
						if bitEqualC(lead[j], u.Col(j)) {
							continue
						}
						if err := leading2Ref(mm, min(k, mm.Cols()), lead[j]); err != nil {
							t.Fatalf("LeadingLeftSingularWS(%d, %g) column %d diverged from SVDWS U: %v", k, rel, j, err)
						}
					}
				}
			}
		}
	})
}

// smallShapes are the shapes FuzzSmallKernels draws: the planners'
// 2 x k interference matrices (k = 1..4) and every n x n up to 4 x 4.
var smallShapes = [][2]int{{2, 1}, {2, 2}, {2, 3}, {2, 4}, {1, 1}, {3, 3}, {4, 4}}

// fuzzRect fills a rows x cols matrix by cycling over the value pool.
func fuzzRect(rows, cols int, pool []float64) *Matrix {
	m := New(rows, cols)
	for k := range m.data {
		m.data[k] = fuzzEntry(pool[(2*k)%len(pool)], pool[(2*k+1)%len(pool)])
	}
	return m
}

// degenerate rewrites m into one of the near-degenerate families the
// kernels' branches turn on: aligned columns (a scaled copy of the
// first), a zero row, a zero column, or repeated eigenvalues (a scaled
// identity, whose Gram matrix has a single eigenvalue). Other selector
// values leave m as drawn.
func degenerate(m *Matrix, sel byte) {
	switch sel % 6 {
	case 1:
		for i := 0; i < m.rows; i++ {
			for j := 1; j < m.cols; j++ {
				m.data[i*m.cols+j] = complex(float64(j), -0.5) * m.data[i*m.cols]
			}
		}
	case 2:
		clear(m.data[(m.rows-1)*m.cols:])
	case 3:
		for i := 0; i < m.rows; i++ {
			m.data[i*m.cols+m.cols-1] = 0
		}
	case 4:
		d := m.data[0]
		clear(m.data)
		for i := 0; i < min(m.rows, m.cols); i++ {
			m.data[i*m.cols+i] = d
		}
	}
}

// kernelTrace records a kernel's results as bit patterns, with a marker
// for errors and panics, so two runs compare with slices.Equal.
type kernelTrace []uint64

func (tr *kernelTrace) c(zs ...complex128) {
	for _, z := range zs {
		*tr = append(*tr, math.Float64bits(real(z)), math.Float64bits(imag(z)))
	}
}

func (tr *kernelTrace) f(xs ...float64) {
	for _, x := range xs {
		*tr = append(*tr, math.Float64bits(x))
	}
}

func (tr *kernelTrace) n(k int) { *tr = append(*tr, uint64(k)) }

// Markers for an error and a panic; no length or count reaches them.
const (
	traceErr   = ^uint64(0) - 1
	tracePanic = ^uint64(0)
)

func (tr *kernelTrace) vecs(vs []Vector) {
	tr.n(len(vs))
	for _, v := range vs {
		tr.n(len(v))
		tr.c(v...)
	}
}

func (tr *kernelTrace) mat(m *Matrix) {
	tr.n(m.rows)
	tr.n(m.cols)
	tr.c(m.data...)
}

func (tr *kernelTrace) err(err error) {
	if err != nil {
		*tr = append(*tr, traceErr)
	}
}

// smallKernels runs every kernel that takes scratch from the arena on
// m (and on its Gram matrix, its columns, and a polynomial with m's
// entries as coefficients), each on its own workspace from newWS, and
// returns one trace per kernel. A panic is part of the result.
func smallKernels(m *Matrix, newWS func() *Workspace) map[string]kernelTrace {
	out := map[string]kernelTrace{}
	run := func(name string, f func(ws *Workspace, tr *kernelTrace)) {
		var tr kernelTrace
		defer func() {
			if r := recover(); r != nil {
				tr = append(tr, tracePanic)
			}
			out[name] = tr
		}()
		f(newWS(), &tr)
	}
	cols := make([]Vector, m.cols)
	for j := range cols {
		cols[j] = m.Col(j)
	}
	square := m.rows == m.cols
	run("LeadingLeftSingularWS", func(ws *Workspace, tr *kernelTrace) {
		for n := 1; n <= min(m.rows, m.cols); n++ {
			for _, rel := range []float64{1e-12, 0, -1} {
				tr.vecs(m.LeadingLeftSingularWS(ws, n, rel))
			}
		}
	})
	run("SVDWS", func(ws *Workspace, tr *kernelTrace) {
		u, s, v := m.SVDWS(ws)
		tr.mat(u)
		tr.f(s...)
		tr.mat(v)
	})
	run("EigenHermitianWS", func(ws *Workspace, tr *kernelTrace) {
		vals, v := m.H().Mul(m).EigenHermitianWS(ws)
		tr.f(vals...)
		tr.mat(v)
	})
	run("RankWS", func(ws *Workspace, tr *kernelTrace) {
		tr.n(m.RankWS(ws, 1e-7))
		tr.n(m.RankWS(ws, 1e-12))
	})
	run("NullSpaceWS", func(ws *Workspace, tr *kernelTrace) {
		tr.vecs(m.NullSpaceWS(ws, 1e-9))
	})
	run("OrthogonalComplementVectorWS", func(ws *Workspace, tr *kernelTrace) {
		tr.c(OrthogonalComplementVectorWS(ws, m.rows, 1e-9, cols)...)
	})
	run("RootsWS", func(ws *Workspace, tr *kernelTrace) {
		roots, err := Poly(m.data).RootsWS(ws)
		tr.err(err)
		tr.c(roots...)
	})
	run("InterpolatePolyWS", func(ws *Workspace, tr *kernelTrace) {
		xs := make([]complex128, len(m.data))
		for i := range xs {
			xs[i] = complex(float64(i)-float64(len(xs))/2, float64(i%2)+0.5)
		}
		tr.c(InterpolatePolyWS(ws, xs, m.data)...)
	})
	if square {
		run("DetWS", func(ws *Workspace, tr *kernelTrace) { tr.c(m.DetWS(ws)) })
		run("InverseWS", func(ws *Workspace, tr *kernelTrace) {
			inv, err := m.InverseWS(ws)
			tr.err(err)
			if err == nil {
				tr.mat(inv)
			}
		})
		run("SolveWS", func(ws *Workspace, tr *kernelTrace) {
			x, err := m.SolveWS(ws, m.Col(0))
			tr.err(err)
			tr.c(x...)
		})
	}
	return out
}

// FuzzSmallKernels pins the arena scratch rule on the planners' shapes:
// each kernel body that works on arena scratch (Jacobi and the Gram
// product behind LeadingLeftSingularWS, SVDWS and EigenHermitianWS, the
// LU behind DetWS, SolveWS and InverseWS, rankOf, the null-space
// elimination, the interpolation and Durand-Kerner buffers) must give
// the bits on a workspace holding an earlier user's data
// (dirtyWorkspace) that it gives on a fresh one, so no kernel reads
// scratch it did not zero or write. Shapes are the planners' 2 x k and
// n x n up to 4 x 4; the degeneracy selector adds aligned columns, zero
// rows and columns, and repeated eigenvalues, and rel = -1 on
// rank-deficient input drives LeadingLeftSingularWS into its SVDWS
// null-completion fallback.
func FuzzSmallKernels(f *testing.F) {
	for shape := range smallShapes {
		for degen := byte(0); degen < 5; degen++ {
			f.Add(byte(shape), degen, 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
		}
	}
	f.Add(byte(1), byte(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(byte(2), byte(1), 1e-300, 1e300, -1e-300, 1e150, 5e-324, -1e8, 1e-16, 1.0)
	f.Add(byte(6), byte(4), math.Pi, -math.E, math.Sqrt2, 0.1, -0.7, 42.0, 1e-9, -3.5)
	reused := func() *Workspace { return dirtyWorkspace(rand.New(rand.NewSource(1))) }
	f.Fuzz(func(t *testing.T, shape, degen byte, a, b, c, d, e, g, h, i float64) {
		sh := smallShapes[int(shape)%len(smallShapes)]
		m := fuzzRect(sh[0], sh[1], []float64{a, b, c, d, e, g, h, i})
		degenerate(m, degen)

		fresh := smallKernels(m, NewWorkspace)
		for name, got := range smallKernels(m, reused) {
			if want := fresh[name]; !slices.Equal(got, want) {
				t.Fatalf("%s on %dx%d (degenerate %d): a reused workspace diverged from a fresh one\n m=%v", name, sh[0], sh[1], degen%6, m)
			}
		}
	})
}

// FuzzLeading2 drives the M = 2 closed-form leading singular vector
// through LeadingLeftSingularInto on 2 x k matrices (k = 1..4) beside
// the Jacobi path: the vector count must match wherever both paths can
// scale their input by a power of two (largest part within 2^±1000),
// and a vector that is not Jacobi's bits must be a leading vector by
// the math/big reference
// (leading2Ref: unit norm, and a Rayleigh quotient within 1e-14 of the
// leading eigenvalue of m m^H, which holds however close the two
// eigenvalues are). Seeds cover aligned and repeated interferers (the
// degeneracy selector's aligned columns and zero rows and columns),
// equal eigenvalues (orthogonal rows of equal norm) and very large and
// very small scales.
func FuzzLeading2(f *testing.F) {
	for degen := byte(0); degen < 5; degen++ {
		f.Add(byte(1), degen, 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
	}
	f.Add(byte(1), byte(0), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)   // identity: equal eigenvalues
	f.Add(byte(1), byte(0), 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, -1.0, 0.0)  // orthogonal rows, equal norms
	f.Add(byte(2), byte(0), 1.0, 1e-9, 1.0, 0.0, 0.5, 0.0, 1.0, 1e-9) // nearly equal eigenvalues
	f.Add(byte(2), byte(1), 1e-300, 1e300, -1e-300, 1e150, 5e-324, -1e8, 1e-16, 1.0)
	f.Add(byte(1), byte(0), 1e-200, -3e-200, 2e-201, 1e-199, 7e-200, 1e-200, -1e-200, 4e-200)
	f.Add(byte(3), byte(0), 1e250, -3e250, 2e251, 1e249, 7e250, 1e250, -1e250, 4e250)
	f.Add(byte(1), byte(0), 1e-7, 2e-7, -1e-7, 3e-7, 2e-7, -1e-7, 5e-8, 1e-7) // below Jacobi's absolute convergence test
	f.Fuzz(func(t *testing.T, sel, degen byte, a, b, c, d, e, g, h, i float64) {
		m := fuzzRect(2, 1+int(sel)%4, []float64{a, b, c, d, e, g, h, i})
		degenerate(m, degen)
		ws := NewWorkspace()
		got, want := []Vector{NewVector(2)}, []Vector{NewVector(2)}
		n := m.LeadingLeftSingularInto(ws, got, 1e-12)
		pm := maxPartOf(m.data...)
		if wantN := m.leadingJacobiInto(ws, want, 1e-12); n != wantN && pm >= 0x1p-1000 && pm <= 0x1p1000 {
			t.Fatalf("%d vectors, Jacobi %d\n m=%v", n, wantN, m)
		}
		if n == 1 && !bitEqualC(got[0], want[0]) {
			if err := leading2Ref(m, 1, got[0]); err != nil {
				t.Fatalf("%v\n m=%v\n got=%v Jacobi=%v", err, m, got[0], want[0])
			}
		}
	})
}

// FuzzQuadraticRoots drives QuadraticRootsInto beside RootsInto on
// fuzzed coefficients. The degree, the error and the root count must
// match Durand-Kerner's, and the roots must solve the (degree-trimmed)
// polynomial by the math/big reference: each root's residual |p(r)| is
// within 1e-13 of the sum of the terms |p_i r^i|, and for a quadratic
// the pair reproduces the coefficients (r1 + r2 = -p1/p2 and
// r1 r2 = p0/p2, to 1e-13 relative), so no root is returned twice in
// place of two. Residuals below 2^-1000 of the largest term count as
// zero: subnormal coefficients carry fewer bits. Seeds cover a leading
// coefficient shrinking through the degree trim (c2 -> 0), double and
// nearly double roots, a vanishing polynomial and very large and very
// small scales.
func FuzzQuadraticRoots(f *testing.F) {
	f.Add(1.0, 0.5, -0.25, 2.0, -1.0, 0.125)
	f.Add(1.0, 0.0, -2.0, 0.0, 1.0, 0.0)          // (t-1)^2
	f.Add(1.0, 0.0, -2.0, 1e-9, 1.0, 0.0)         // nearly double
	f.Add(2.0, 1.0, 1.0, -3.0, 1e-13, 1e-14)      // c2 at the degree trim
	f.Add(2.0, 1.0, 1.0, -3.0, 1e-12, 0.0)        // c2 just above it
	f.Add(2.0, 1.0, 1e-15, 0.0, 1e-16, 0.0)       // both upper coefficients trimmed
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)           // vanishing polynomial
	f.Add(1e-300, 0.0, 1e300, 0.0, -1e-300, 0.0)  // extreme dynamic range
	f.Add(5e-324, 0.0, 0.0, 0.0, 1.0, 0.0)        // subnormal constant term
	f.Add(1e250, -3e250, 2e249, 1e250, 7e250, 0.) // very large
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		p := Poly{fuzzEntry(a, b), fuzzEntry(c, d), fuzzEntry(e, g)}
		ws := NewWorkspace()
		var got, want [2]complex128
		n, err := p.QuadraticRootsInto(ws, got[:])
		wantN, wantErr := p.RootsInto(ws, want[:])
		if n != wantN || !errors.Is(err, wantErr) {
			t.Fatalf("%v: %d roots (%v), Durand-Kerner %d (%v)", p, n, err, wantN, wantErr)
		}
		if n == 0 {
			return
		}
		coeffs := [3]bigC{bigOf(p[0]), bigOf(p[1]), bigOf(p[n])}
		if n == 2 {
			coeffs[2] = bigOf(p[2])
		}
		eval := func(r bigC) (res, terms *big.Float) {
			v, terms, pow := bigC{newBig(), newBig()}, newBig(), bigOf(1)
			for i := 0; i <= n; i++ {
				term := coeffs[i].mul(pow)
				v, terms = v.add(term), terms.Add(terms, term.abs())
				pow = pow.mul(r)
			}
			return v.abs(), terms
		}
		floor := 0x1p-1000
		for i := 0; i <= n; i++ {
			floor = max(floor, 0x1p-1000*maxPart(p[i]))
		}
		close := func(x, bound *big.Float) bool {
			return bigFloat(x) <= 1e-13*bigFloat(bound)+floor
		}
		roots := []bigC{bigOf(got[0]), bigOf(got[1])}[:n]
		for j, r := range roots {
			if res, terms := eval(r); !close(res, terms) {
				t.Fatalf("%v: root %d = %v leaves |p(r)| = %.3g against terms %.3g", p, j, got[j], bigFloat(res), bigFloat(terms))
			}
		}
		if n == 2 {
			sum := roots[0].add(roots[1]).add(coeffs[1].quo(coeffs[2]))
			prod := roots[0].mul(roots[1]).sub(coeffs[0].quo(coeffs[2]))
			if !close(sum.abs(), newBig().Add(roots[0].abs(), roots[1].abs())) || !close(prod.abs(), roots[0].mul(roots[1]).abs()) {
				t.Fatalf("%v: roots %v do not reproduce the coefficients", p, got)
			}
		}
	})
}

// FuzzZF2 drives the M = 2 zero-forcing decoder ZeroForce2 on fuzzed
// interference, as the evaluator calls it: the single interferer of a
// 2x1 matrix, or the leading vector (LeadingLeftSingularInto) of a 2x2
// or 2x3 one, against a signal direction s. The degeneracy selector
// aligns the interferers or zeroes a row or column (degenerate), and
// the parallel flag puts s on the first interferer's line (an
// interferer parallel to the signal) plus a fuzzed fraction of the
// second. Against the math/big decoder: where s lies off a's line by
// more than 2e-9 of |s| there must be a decoder, within 1e-14 / ρ of
// the exact one for the relative distance ρ (its phase rests on the few
// digits of p^H s that survive); below 0.5e-9 there must be none. Where
// every part lies within 2^±400 and ρ is outside [1e-10, 1e-8], the
// decision must also be the Gram-Schmidt projection's (zfGeneral).
// ZeroForce2 declines only an a or s that Unit2 declines.
func FuzzZF2(f *testing.F) {
	for degen := byte(0); degen < 5; degen++ {
		f.Add(byte(1), degen, false, 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
	}
	f.Add(byte(0), byte(0), true, 1.0, 0.5, -0.25, 2.0, 0.0, 0.0, 0.0, 0.0)     // s on the interferer's line
	f.Add(byte(0), byte(0), true, 1.0, 0.5, -0.25, 2.0, 1e-9, 0.0, 0.0, 0.0)    // at the threshold
	f.Add(byte(1), byte(1), false, 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, 1.0) // aligned interferers
	f.Add(byte(2), byte(0), false, 1e-300, 1e300, -1e-300, 1e150, 5e-324, -1e8, 1e-16, 1.0)
	f.Fuzz(func(t *testing.T, sel, degen byte, parallel bool, a, b, c, d, e, g, h, i float64) {
		m := fuzzRect(2, 1+int(sel)%3, []float64{a, b, c, d, e, g, h, i})
		degenerate(m, degen)
		s := Vector{fuzzEntry(e, g), fuzzEntry(h, i)}
		if parallel {
			s = Vector{Mul(m.data[0], complex(1, 2)), Mul(m.data[m.cols], complex(1, 2))}
			s[1] += fuzzEntry(e, 0)
		}
		ws := NewWorkspace()
		av := Vector{m.data[0], m.data[m.cols]}
		if m.cols > 1 {
			if n := m.LeadingLeftSingularInto(ws, []Vector{av}, 1e-12); n == 0 {
				return // no interference left to null: the matched filter
			}
		}
		w0, w1, null, ok := ZeroForce2(av[0], av[1], s[0], s[1], 1e-9)
		_, _, okA := Unit2(av[0], av[1])
		_, _, okS := Unit2(s[0], s[1])
		if ok != (okA && okS) {
			t.Fatalf("a=%v s=%v: ok %v, Unit2 accepts a %v, s %v", av, s, ok, okA, okS)
		}
		if !ok {
			return
		}
		ref, refOK := bigZeroForce(av, s)
		var rho float64
		if refOK {
			// ρ = |r| / |s| for the exact rejection r.
			a0, a1, s0, s1 := bigOf(av[0]), bigOf(av[1]), bigOf(s[0]), bigOf(s[1])
			na, ns := newBig().Add(a0.abs2(), a1.abs2()), newBig().Add(s0.abs2(), s1.abs2())
			cross := a0.mul(s1).sub(a1.mul(s0)).abs2() // |det[a s]|^2 = |a|^2 |r|^2
			rho = bigFloat(newBig().Sqrt(newBig().Quo(cross, newBig().Mul(na, ns))))
		}
		switch {
		case rho > 2e-9 && null:
			t.Fatalf("a=%v s=%v: no decoder at ρ = %.3g", av, s, rho)
		case rho < 0.5e-9 && !null:
			t.Fatalf("a=%v s=%v: a decoder at ρ = %.3g", av, s, rho)
		case !null:
			if err := bigVecErr(Vector{w0, w1}, ref); err > 1e-14/rho {
				t.Fatalf("a=%v s=%v: decoder %v off the exact one by %.3g at ρ = %.3g", av, s, Vector{w0, w1}, err, rho)
			}
		}
		pm := maxPartOf(av[0], av[1], s[0], s[1])
		pn := min(maxPartOf(av[0], av[1]), maxPartOf(s[0], s[1]))
		if pm <= 0x1p400 && pn >= 0x1p-400 && (rho < 1e-10 || rho > 1e-8) {
			if want := zfGeneral(ws, av, s); null != (want == nil) {
				t.Fatalf("a=%v s=%v: null %v, Gram-Schmidt %v (ρ = %.3g)", av, s, null, want, rho)
			}
		}
	})
}

// FuzzSVD2 drives the closed-form 2x2 SVD (SVD2, SingularValues2)
// beside SVDWS on fuzzed matrices scaled by 2^k: the degeneracy
// selector gives rank one (aligned columns), a zero row or column and
// equal singular values (a scaled identity); the seeds add the zero
// matrix, subnormal entries and scales at pow2Scale's 2^±1000 edges.
// Where pow2Scale declines the largest part, SingularValues2 must
// decline and SVD2 must return SVDWS's bits. Elsewhere SingularValues2
// must give SVD2's values bit for bit, s0 >= s1 >= 0, and against the
// math/big reference (bigSVDOf) the closed form's errors must be no
// worse than SVDWS's on the same input, or at rounding level: the
// values and the backward error below svd2Floor, the vectors below
// svd2Floor times the problem's conditioning s0^2/(s0^2 - s1^2).
func FuzzSVD2(f *testing.F) {
	for degen := byte(0); degen < 5; degen++ {
		f.Add(degen, int16(0), 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
	}
	f.Add(byte(0), int16(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)                 // zero matrix
	f.Add(byte(0), int16(0), 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)                 // identity: equal values
	f.Add(byte(0), int16(0), 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, -1.0, 0.0)                // orthogonal columns, equal norms
	f.Add(byte(0), int16(0), 1.0, 1e-9, 1.0, 0.0, 0.5, 0.0, 1.0, 1e-9)               // nearly rank one
	f.Add(byte(0), int16(0), 5e-324, 0.0, 1e-310, -3e-320, 0.0, 2e-315, 1e-308, 0.0) // subnormal
	f.Add(byte(0), int16(0), 1.0, 5e-324, -1e-310, 0.5, 2.0, 0.0, 0.25, 1e-320)      // subnormal beside normal
	f.Add(byte(1), int16(999), 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
	f.Add(byte(0), int16(1000), 1.5, 0.5, -0.25, 1.0, -1.0, 0.125, 1.0, -0.5)
	f.Add(byte(2), int16(-1000), 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
	f.Add(byte(4), int16(-1001), 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
	f.Add(byte(0), int16(0), 1e-300, 1e300, -1e-300, 1e150, 5e-324, -1e8, 1e-16, 1.0)
	f.Fuzz(func(t *testing.T, degen byte, k int16, a, b, c, d, e, g, h, i float64) {
		m := fuzzRect(2, 2, []float64{a, b, c, d, e, g, h, i})
		degenerate(m, degen)
		m = m.Scale(complex(math.Ldexp(1, max(-1030, min(1030, int(k)))), 0))
		_, _, inRange := pow2Scale(maxPartOf(m.data...))
		s0, s1, ok := m.SingularValues2()
		u, s, v := m.SVD2(NewWorkspace())
		gu, gs, gv := m.SVDWS(NewWorkspace())
		if ok != inRange {
			t.Fatalf("SingularValues2 ok %v, pow2Scale %v\n m=%v", ok, inRange, m)
		}
		if !ok {
			if !bitEqualM(u, gu) || !bitEqualF(s, gs) || !bitEqualM(v, gv) {
				t.Fatalf("a declined input did not reach SVDWS\n m=%v", m)
			}
			return
		}
		if math.Float64bits(s0) != math.Float64bits(s[0]) || math.Float64bits(s1) != math.Float64bits(s[1]) {
			t.Fatalf("SingularValues2 gave %v %v, SVD2 %v\n m=%v", s0, s1, s, m)
		}
		if !(s[0] >= s[1] && s[1] >= 0) || math.IsInf(s[0], 0) {
			t.Fatalf("singular values %v\n m=%v", s, m)
		}
		ref := bigSVDOf(m)
		closed, general := ref.errs(m, u, s, v), ref.errs(m, gu, gs, gv)
		if closed.values > max(general.values, svd2Floor) || closed.backward > max(general.backward, svd2Floor) {
			t.Fatalf("closed form errors %+v, SVDWS %+v\n m=%v", closed, general, m)
		}
		if ref.vectors && closed.vectors > max(general.vectors, svd2Floor*ref.cond) {
			t.Fatalf("closed form vector error %.3g, SVDWS %.3g, conditioning %.3g\n m=%v", closed.vectors, general.vectors, ref.cond, m)
		}
	})
}

// svd2Floor is the rounding level of SVD2's errors, 8 units in the last
// place of 1: its values, vectors and backward error each come from a
// few rounded products and square roots.
const svd2Floor = 0x1p-49
