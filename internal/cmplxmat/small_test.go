package cmplxmat

import (
	"math/rand"
	"testing"
)

// TestSmallKernelsZeroAlloc pins the general kernels on the planners'
// small shapes at zero heap allocations on a warm workspace: their
// scratch comes from the arena, so a buffer that escapes to the heap
// fails this test. A kernel whose result is not arena-backed must also
// hand its scratch back: on a workspace that is not reset, ws.Mark()
// reads the same before and after the call, which AllocsPerRun's
// integer average would not show for slow arena growth.
func TestSmallKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m22 := RandomGaussian(rng, 2, 2)
	m23 := RandomGaussian(rng, 2, 3)
	m33 := RandomGaussian(rng, 3, 3)
	ws := NewWorkspace()
	dst := []Vector{NewVector(2)}
	dst3 := []Vector{NewVector(3), NewVector(3)}
	poly := Poly(m33.data[:4])
	roots := NewVector(3)
	xs, coeffs := m22.data, NewVector(4)
	cases := []struct {
		name     string
		run      func()
		releases bool
	}{
		{"LeadingLeftSingularInto 2x2", func() { m22.LeadingLeftSingularInto(ws, dst, 1e-12) }, true},
		{"LeadingLeftSingularInto 2x3", func() { m23.LeadingLeftSingularInto(ws, dst, 1e-12) }, true},
		{"LeadingLeftSingularInto 3x3", func() { m33.LeadingLeftSingularInto(ws, dst3, 1e-12) }, true},
		{"DetWS 2x2", func() { m22.DetWS(ws) }, true},
		{"DetWS 3x3", func() { m33.DetWS(ws) }, true},
		{"RankWS 2x2", func() { m22.RankWS(ws, 1e-7) }, true},
		{"RankWS 2x3", func() { m23.RankWS(ws, 1e-7) }, true},
		{"RootsInto cubic", func() { _, _ = poly.RootsInto(ws, roots) }, true},
		{"InterpolatePolyInto 4 points", func() {
			clear(coeffs)
			InterpolatePolyInto(ws, Poly(coeffs), xs, m33.data[4:8])
		}, true},
		{"InverseWS 2x2", func() { _, _ = m22.InverseWS(ws) }, false},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			ws.Reset()
			c.run()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per call on a warm workspace, want 0", c.name, allocs)
		}
		if !c.releases {
			continue
		}
		ws.Reset()
		ws.Vector(3) // something live below the mark
		before := ws.Mark()
		for i := 0; i < 100; i++ {
			c.run()
		}
		if after := ws.Mark(); after != before {
			t.Errorf("%s: arena mark %+v after 100 calls, want %+v: scratch not released", c.name, after, before)
		}
	}
}

// benchKernel runs one kernel on a warm workspace, resetting it each
// iteration so the arena stays at its high-water mark.
func benchKernel(b *testing.B, run func(ws *Workspace)) {
	ws := NewWorkspace()
	run(ws)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		run(ws)
	}
}

// BenchmarkLeadingLeftSingular2x2 and BenchmarkLeadingLeftSingular2x3
// time LeadingLeftSingularInto on a 2-row matrix of two and three
// columns, one leading column written into a caller-held destination:
// the closed form leading2Into behind the matrix form, which no
// workload reaches. The M = 2 planners reach the same closed form as
// Leading2 (BenchmarkLeading2), through core's scalar decoder zf2,
// without the matrix and destination.
func BenchmarkLeadingLeftSingular2x2(b *testing.B) {
	m := RandomGaussian(rand.New(rand.NewSource(71)), 2, 2)
	dst := []Vector{NewVector(2)}
	benchKernel(b, func(ws *Workspace) { m.LeadingLeftSingularInto(ws, dst, 1e-12) })
}

func BenchmarkLeadingLeftSingular2x3(b *testing.B) {
	m := RandomGaussian(rand.New(rand.NewSource(73)), 2, 3)
	dst := []Vector{NewVector(2)}
	benchKernel(b, func(ws *Workspace) { m.LeadingLeftSingularInto(ws, dst, 1e-12) })
}

// BenchmarkLeading2 times Leading2, the leading vector core's M = 2
// decoder zf2 nulls when a packet has two or more interferers, on the
// rows of 16 Gaussian interference matrices of two and three columns,
// cycled.
func BenchmarkLeading2(b *testing.B) {
	rng := rand.New(rand.NewSource(151))
	rows := make([][2][]complex128, 16)
	for i := range rows {
		m := RandomGaussian(rng, 2, 2+i%2)
		rows[i] = [2][]complex128{m.data[:m.cols], m.data[m.cols:]}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		r := rows[i%len(rows)]
		Leading2(r[0], r[1], 1e-12)
	}
}

// BenchmarkDet2 times DetWS's LU determinant on a 2 x 2, its scratch
// taken from the arena and released on every call. The M = 2
// alignment solver forms its determinant polynomial in closed form
// (LineDet2) instead; the M >= 3 solver calls DetWS at every sample
// point.
func BenchmarkDet2(b *testing.B) {
	m := RandomGaussian(rand.New(rand.NewSource(79)), 2, 2)
	benchKernel(b, func(ws *Workspace) { m.DetWS(ws) })
}
