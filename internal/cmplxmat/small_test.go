package cmplxmat

import (
	"math/rand"
	"testing"
)

// TestSmallKernelsZeroAlloc pins the planners' 2 x k kernels at zero
// heap allocations on a warm workspace. Their scratch lives in local
// arrays, so a local that escapes to the heap fails this test.
func TestSmallKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m22 := RandomGaussian(rng, 2, 2)
	m23 := RandomGaussian(rng, 2, 3)
	ws := NewWorkspace()
	dst := []Vector{NewVector(2)}
	cases := []struct {
		name string
		run  func()
	}{
		{"LeadingLeftSingularInto 2x2", func() { m22.LeadingLeftSingularInto(ws, dst, 1e-12) }},
		{"LeadingLeftSingularInto 2x3", func() { m23.LeadingLeftSingularInto(ws, dst, 1e-12) }},
		{"DetWS 2x2", func() { m22.DetWS(ws) }},
		{"RankWS 2x2", func() { m22.RankWS(ws, 1e-7) }},
		{"InverseWS 2x2", func() { _, _ = m22.InverseWS(ws) }},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			ws.Reset()
			c.run()
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per call on a warm workspace, want 0", c.name, allocs)
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
// time the zero-forcing decoder's principal-component step at M = 2:
// two and three interferers stacked as columns, one leading column
// written into a caller-held destination, as the decoder calls it.
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

// BenchmarkDet2 times the 2 x 2 determinant the alignment solver
// evaluates at every sample point of its determinant polynomial.
func BenchmarkDet2(b *testing.B) {
	m := RandomGaussian(rand.New(rand.NewSource(79)), 2, 2)
	benchKernel(b, func(ws *Workspace) { m.DetWS(ws) })
}
