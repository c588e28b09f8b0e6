package cmplxmat

import (
	"math"
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
// singular and badly scaled) systems — and then drives the same fuzzed
// system through SolveBatchWS alongside a shifted copy, pinning the
// batched SoA kernel to the identical contract.
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

		// Batch kernel: the fuzzed system plus a shifted sibling packed
		// into one strided buffer must reproduce the scalar bits (and the
		// scalar error behavior as ok flags) system by system.
		m2 := fuzzMatrix(n, pool[1:])
		rhs2 := fuzzVector(n, pool, 5)
		packA := make([]complex128, 2*n*n)
		packB := make([]complex128, 2*n)
		m.PackInto(packA[:n*n])
		m2.PackInto(packA[n*n:])
		PackVecInto(packB[:n], rhs)
		PackVecInto(packB[n:], rhs2)
		x, ok := SolveBatchWS(NewWorkspace(), n, 2, packA, packB)
		if ok[0] != (gotErr == nil) {
			t.Fatalf("batch ok[0]=%v, scalar err=%v", ok[0], gotErr)
		}
		if ok[0] && !bitEqualC(x[:n], gotX) {
			t.Fatalf("SolveBatchWS system 0 diverged from SolveWS:\n batch=%v\n scalar=%v", x[:n], gotX)
		}
		want2, err2 := m2.SolveWS(NewWorkspace(), rhs2)
		if ok[1] != (err2 == nil) {
			t.Fatalf("batch ok[1]=%v, scalar err=%v", ok[1], err2)
		}
		if ok[1] && !bitEqualC(x[n:], want2) {
			t.Fatalf("SolveBatchWS system 1 diverged from SolveWS:\n batch=%v\n scalar=%v", x[n:], want2)
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
