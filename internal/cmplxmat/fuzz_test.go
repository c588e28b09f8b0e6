package cmplxmat

import (
	"math"
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
// shape (one more column than rows), whatever path it takes.
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
						if !bitEqualC(lead[j], u.Col(j)) {
							t.Fatalf("LeadingLeftSingularWS(%d, %g) column %d diverged from SVDWS U", k, rel, j)
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

// smallKernels runs every kernel with small-n storage on m (and on its
// Gram matrix, its columns, and a polynomial with m's entries as
// coefficients), each on a fresh workspace, and returns one trace per
// kernel. A panic is part of the result.
func smallKernels(m *Matrix) map[string]kernelTrace {
	out := map[string]kernelTrace{}
	run := func(name string, f func(ws *Workspace, tr *kernelTrace)) {
		var tr kernelTrace
		defer func() {
			if r := recover(); r != nil {
				tr = append(tr, tracePanic)
			}
			out[name] = tr
		}()
		f(NewWorkspace(), &tr)
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

// FuzzSmallKernels pins the small-n storage rule: each kernel body that
// runs on fixed-size local arrays up to SmallDim (Jacobi and the Gram
// product behind LeadingLeftSingularWS, SVDWS and EigenHermitianWS, the
// LU behind DetWS, SolveWS and InverseWS, rankOf, the null-space
// elimination, the interpolation and Durand-Kerner buffers) must give
// the bits it gives on arena storage, with forceArena set. Shapes are
// the planners' 2 x k and n x n up to 4 x 4; the degeneracy selector
// adds aligned columns, zero rows and columns, and repeated
// eigenvalues, and rel = -1 on rank-deficient input drives
// LeadingLeftSingularWS into its SVDWS null-completion fallback.
func FuzzSmallKernels(f *testing.F) {
	for shape := range smallShapes {
		for degen := byte(0); degen < 5; degen++ {
			f.Add(byte(shape), degen, 1.0, 0.5, -0.25, 2.0, -1.0, 0.125, 3.0, -0.5)
		}
	}
	f.Add(byte(1), byte(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(byte(2), byte(1), 1e-300, 1e300, -1e-300, 1e150, 5e-324, -1e8, 1e-16, 1.0)
	f.Add(byte(6), byte(4), math.Pi, -math.E, math.Sqrt2, 0.1, -0.7, 42.0, 1e-9, -3.5)
	f.Fuzz(func(t *testing.T, shape, degen byte, a, b, c, d, e, g, h, i float64) {
		sh := smallShapes[int(shape)%len(smallShapes)]
		m := fuzzRect(sh[0], sh[1], []float64{a, b, c, d, e, g, h, i})
		degenerate(m, degen)

		small := smallKernels(m)
		forceArena = true
		defer func() { forceArena = false }()
		arena := smallKernels(m)
		for name, want := range arena {
			if got := small[name]; !slices.Equal(got, want) {
				t.Fatalf("%s on %dx%d (degenerate %d): local storage diverged from arena storage\n m=%v", name, sh[0], sh[1], degen%6, m)
			}
		}
	})
}
