package cmplxmat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The *WS variants must compute bit-identical results to their heap
// counterparts: they run the same operations in the same order and only
// change where the memory comes from.

func TestWorkspaceOpsMatchHeapOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		ws.Reset()
		n := 2 + trial%3
		m := RandomGaussian(rng, n, n)
		b := RandomGaussian(rng, n, n)
		v := RandomGaussianVector(rng, n)

		if !m.MulWS(ws, b).Equal(m.Mul(b), 0) {
			t.Fatal("MulWS diverged from Mul")
		}
		if !reflect.DeepEqual(m.MulVecWS(ws, v), m.MulVec(v)) {
			t.Fatal("MulVecWS diverged from MulVec")
		}
		if !m.SubWS(ws, b).Equal(m.Sub(b), 0) {
			t.Fatal("SubWS diverged from Sub")
		}
		if !m.HWS(ws).Equal(m.H(), 0) {
			t.Fatal("HWS diverged from H")
		}
		if m.DetWS(ws) != m.Det() {
			t.Fatal("DetWS diverged from Det")
		}
		x1, err1 := m.SolveWS(ws, v)
		x2, err2 := m.Solve(v)
		if (err1 == nil) != (err2 == nil) {
			t.Fatal("SolveWS error behavior diverged")
		}
		if err1 == nil && !reflect.DeepEqual([]complex128(x1), []complex128(x2)) {
			t.Fatal("SolveWS diverged from Solve")
		}
		i1, err1 := m.InverseWS(ws)
		i2, err2 := m.Inverse()
		if (err1 == nil) != (err2 == nil) {
			t.Fatal("InverseWS error behavior diverged")
		}
		if err1 == nil && !i1.Equal(i2, 0) {
			t.Fatal("InverseWS diverged from Inverse")
		}

		gram := m.H().Mul(m)
		v1, e1 := gram.EigenHermitianWS(ws)
		v2, e2 := gram.EigenHermitian()
		if !reflect.DeepEqual(v1, v2) || !e1.Equal(e2, 0) {
			t.Fatal("EigenHermitianWS diverged from EigenHermitian")
		}
		u1, s1, vv1 := m.SVDWS(ws)
		u2, s2, vv2 := m.SVD()
		if !reflect.DeepEqual(s1, s2) || !u1.Equal(u2, 0) || !vv1.Equal(vv2, 0) {
			t.Fatal("SVDWS diverged from SVD")
		}
	}
}

func TestWorkspaceMarkRelease(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Vector(4)
	mark := ws.Mark()
	b := ws.Vector(4)
	for i := range b {
		b[i] = complex(float64(i+1), 0)
	}
	ws.Release(mark)
	c := ws.Vector(4)
	// c reuses b's memory and must come back zeroed.
	for i, x := range c {
		if x != 0 {
			t.Fatalf("released memory not zeroed at %d: %v", i, x)
		}
	}
	// a was allocated before the mark and must be untouched by Release
	// (it is only reclaimed by a full Reset).
	_ = a
}

func TestWorkspaceAllocationsAreZeroed(t *testing.T) {
	ws := NewWorkspace()
	v := ws.Vector(8)
	for i := range v {
		v[i] = 42
	}
	m := ws.Matrix(3, 3)
	m.SetAt(1, 1, 7)
	ws.Reset()
	v2 := ws.Vector(8)
	for i, x := range v2 {
		if x != 0 {
			t.Fatalf("reused vector not zeroed at %d: %v", i, x)
		}
	}
	m2 := ws.Matrix(3, 3)
	if m2.At(1, 1) != 0 {
		t.Fatal("reused matrix not zeroed")
	}
}

func TestWorkspaceChunksStayValidAcrossGrowth(t *testing.T) {
	ws := NewWorkspace()
	first := ws.Vector(4)
	first[0] = 5
	// Force many new chunks; earlier views must remain intact.
	for i := 0; i < 64; i++ {
		_ = ws.Vector(arenaMinChunk)
	}
	if first[0] != 5 {
		t.Fatal("early allocation corrupted by arena growth")
	}
}

func TestWorkspacePoolRoundTrip(t *testing.T) {
	ws := GetWorkspace()
	v := ws.Vector(16)
	v[3] = 9
	PutWorkspace(ws)
	ws2 := GetWorkspace()
	defer PutWorkspace(ws2)
	v2 := ws2.Vector(16)
	for i, x := range v2 {
		if x != 0 {
			t.Fatalf("pooled workspace leaked state at %d: %v", i, x)
		}
	}
}

// TestHeapFormsOwnTheirResults pins the copy-out contract of the heap
// forms that run their kernel on a pooled workspace: once the call
// returns, the workspace is back in the pool, and whoever borrows it
// next overwrites its arena. A heap form that returned arena memory
// instead of a copy would see its result change underneath the caller.
func TestHeapFormsOwnTheirResults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := RandomGaussian(rng, 3, 3)
	wide := RandomGaussian(rng, 2, 4)
	b := RandomGaussianVector(rng, 3)
	span := []Vector{RandomGaussianVector(rng, 3), RandomGaussianVector(rng, 3)}

	comp := OrthogonalComplementVector(3, 1e-9, span...)
	inv, err := m.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	x, err := m.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	null := wide.NullSpace(1e-9)
	vals, vecs := m.H().Mul(m).EigenHermitian()
	u, s, v := wide.SVD()

	results := []any{comp, inv, x, null, vals, vecs, u, s, v}
	want := make([]string, len(results))
	for i, r := range results {
		want[i] = fmt.Sprint(r)
	}

	// Borrow several workspaces at once, so the ones the calls above
	// used come back out of the pool, and overwrite their arenas.
	nan := complex(math.NaN(), math.NaN())
	borrowed := make([]*Workspace, 4)
	for i := range borrowed {
		ws := GetWorkspace()
		for k := 0; k < 256; k++ {
			for _, c := range [][]complex128{ws.Vector(8), ws.Complexes(8), ws.Matrix(2, 4).data} {
				for j := range c {
					c[j] = nan
				}
			}
			f := ws.Floats(8)
			for j := range f {
				f[j] = math.NaN()
			}
			hdr := ws.Vectors(4)
			for j := range hdr {
				hdr[j] = Vector{nan}
			}
		}
		borrowed[i] = ws
	}
	for _, ws := range borrowed {
		PutWorkspace(ws)
	}

	for i, r := range results {
		if got := fmt.Sprint(r); got != want[i] {
			t.Errorf("result %d changed after its workspace was reused:\n was %s\n now %s", i, want[i], got)
		}
	}
}
