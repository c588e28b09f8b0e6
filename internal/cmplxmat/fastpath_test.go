package cmplxmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Bitwise pins for the planner's arena fast paths: RootsWS against its
// heap twin, RootsWS and InterpolatePolyInto against the original
// growth-allocating heap bodies (kept here as oracles), and
// LeadingLeftSingularInto against the U columns of SVDWS, including the
// inputs that take its SVDWS fallback. The one exception is the M = 2
// closed form (two.go) for a 2-row matrix when one vector is asked for:
// its vector is checked against the math/big reference instead.

// rootsOracle is the original heap Poly.Roots body.
func rootsOracle(p Poly) ([]complex128, error) {
	deg := p.Degree(1e-13)
	if deg < 1 {
		return nil, ErrNoRoots
	}
	monic := make(Poly, deg+1)
	lead := p[deg]
	for i := 0; i <= deg; i++ {
		monic[i] = p[i] / lead
	}
	roots := make([]complex128, deg)
	seed := complex(0.4, 0.9)
	acc := complex(1, 0)
	for i := range roots {
		acc *= seed
		roots[i] = acc
	}
	next := make([]complex128, deg)
	for iter := 0; iter < 500; iter++ {
		var maxDelta float64
		for i := range roots {
			num := monic.Eval(roots[i])
			den := complex(1, 0)
			for j := range roots {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				den = complex(1e-12, 1e-12)
			}
			delta := num / den
			next[i] = roots[i] - delta
			if d := cmplx.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
		copy(roots, next)
		if maxDelta < 1e-14 {
			break
		}
	}
	return roots, nil
}

// interpolateOracle is the original heap InterpolatePoly body, whose
// Newton basis grew by a fresh allocation per factor.
func interpolateOracle(xs, ys []complex128) Poly {
	n := len(xs)
	dd := make([]complex128, n)
	copy(dd, ys)
	for level := 1; level < n; level++ {
		for i := n - 1; i >= level; i-- {
			dd[i] = (dd[i] - dd[i-1]) / (xs[i] - xs[i-level])
		}
	}
	coeffs := make(Poly, n)
	basis := make(Poly, 1, n)
	basis[0] = 1
	for k := 0; k < n; k++ {
		for i := 0; i < len(basis); i++ {
			coeffs[i] += dd[k] * basis[i]
		}
		if k < n-1 {
			nb := make(Poly, len(basis)+1)
			for i, c := range basis {
				nb[i+1] += c
				nb[i] -= c * xs[k]
			}
			basis = nb
		}
	}
	return coeffs
}

// dirtyWorkspace returns a workspace whose arenas already handed out
// and released non-zero data, so a fast path that relied on fresh
// memory instead of its own initialization would show.
func dirtyWorkspace(rng *rand.Rand) *Workspace {
	ws := NewWorkspace()
	for i := 0; i < 4; i++ {
		m := RandomGaussian(rng, 4, 6)
		ws.Vector(64)
		m.SVDWS(ws)
		ws.Reset()
	}
	return ws
}

func randPoly(rng *rand.Rand, n int) Poly {
	p := make(Poly, n)
	for i := range p {
		p[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return p
}

func TestRootsWSMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	polys := []Poly{
		{5},                      // constant: no roots
		{0, 0, 0},                // zero polynomial
		{-1, 3, -3, 1},           // (z-1)^3: coincident roots
		{1, 0, 0, 0, 1},          // roots of unity rotated: z^4 = -1
		{2, 1, 1e-15},            // leading coefficient trimmed as noise
		{0, 0, 1},                // double root at zero
		{1e-300, 1e300, -1e-300}, // extreme dynamic range
	}
	for deg := 1; deg <= 8; deg++ {
		for k := 0; k < 6; k++ {
			polys = append(polys, randPoly(rng, deg+1))
		}
	}
	ws := dirtyWorkspace(rng)
	for i, p := range polys {
		want, wantErr := rootsOracle(p)
		heap, heapErr := p.Roots()
		got, gotErr := p.RootsWS(ws)
		if !errors.Is(heapErr, wantErr) || !errors.Is(gotErr, wantErr) {
			t.Fatalf("poly %d: errors oracle=%v heap=%v ws=%v", i, wantErr, heapErr, gotErr)
		}
		if !bitEqualC(heap, want) || !bitEqualC(got, want) {
			t.Fatalf("poly %d: roots diverged:\n oracle=%v\n heap=%v\n ws=%v", i, want, heap, got)
		}
	}
}

func TestInterpolatePolyWSMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type pts struct{ xs, ys []complex128 }
	cases := []pts{
		{[]complex128{2}, []complex128{3}},              // single point: constant
		{[]complex128{0, 1, 2}, []complex128{0, 0, 0}},  // zero data
		{[]complex128{-1, 0, 1}, []complex128{1, 0, 1}}, // exact z^2
	}
	for n := 1; n <= 9; n++ {
		for k := 0; k < 4; k++ {
			xs := make([]complex128, n)
			for i := range xs {
				// The alignment solver's sample points, jittered.
				xs[i] = complex(float64(i)-float64(n)/2+0.1*rng.NormFloat64(), float64(i%2)+0.5)
			}
			cases = append(cases, pts{xs, randPoly(rng, n)})
		}
	}
	ws := dirtyWorkspace(rng)
	for i, c := range cases {
		want := interpolateOracle(c.xs, c.ys)
		got := InterpolatePolyWS(ws, c.xs, c.ys)
		if !bitEqualC(got, want) {
			t.Fatalf("case %d: coefficients diverged:\n oracle=%v\n ws=%v", i, want, got)
		}
	}
}

// leadingFromSVD applies LeadingLeftSingularWS's selection rule to
// SVDWS's output: the first n columns of U, stopping before the first
// singular value at or below rel times the largest.
func leadingFromSVD(m *Matrix, n int, rel float64) []Vector {
	ws := NewWorkspace()
	u, s, _ := m.SVDWS(ws)
	var out []Vector
	for j := 0; j < n && j < len(s); j++ {
		if s[j] <= rel*s[0] {
			break
		}
		out = append(out, u.Col(j))
	}
	return out
}

// needsFallback reports whether one of the columns the rule selects has
// a singular value at SVDWS's null threshold, so LeadingLeftSingularWS
// must take its SVDWS fallback for it.
func needsFallback(m *Matrix, n int, rel float64) bool {
	_, s, _ := m.SVDWS(NewWorkspace())
	nullTol := 1e-12 * (1 + m.MaxAbs())
	for j := 0; j < n && j < len(s); j++ {
		if s[j] <= rel*s[0] {
			return false
		}
		if !(s[j] > nullTol) {
			return true
		}
	}
	return false
}

func checkLeading(t *testing.T, ws *Workspace, name string, m *Matrix, n int, rel float64) {
	t.Helper()
	want := leadingFromSVD(m, n, rel)
	got := m.LeadingLeftSingularWS(ws, n, rel)
	if len(got) != len(want) {
		t.Fatalf("%s (n=%d rel=%g): %d columns, SVDWS rule gives %d", name, n, rel, len(got), len(want))
	}
	for j := range want {
		if bitEqualC(got[j], want[j]) {
			continue
		}
		if err := leading2Ref(m, min(n, m.Cols()), got[j]); err != nil {
			t.Fatalf("%s (n=%d rel=%g): column %d diverged:\n got=%v\n svd=%v\n %v", name, n, rel, j, got[j], want[j], err)
		}
	}
}

// leading2Ref checks a leading left singular vector u of m that is not
// SVDWS's bits. Only the M = 2 closed form (a 2-row m, one vector
// asked for) may write such a vector, and it must then be a leading
// vector by the math/big reference: unit norm to 1e-14, and missing at
// most 1e-14 of the leading eigenvalue of m m^H (its Rayleigh quotient
// deficit), which holds however close the two eigenvalues are.
func leading2Ref(m *Matrix, n int, u Vector) error {
	if m.Rows() != 2 || n != 1 {
		return fmt.Errorf("a %dx%d matrix with %d vectors asked for is not the closed form's shape", m.Rows(), m.Cols(), n)
	}
	_, lambda, ok := bigLeading(m)
	if !ok {
		return fmt.Errorf("the closed form wrote a vector for equal eigenvalues")
	}
	if d := math.Abs(u.Norm() - 1); d > 1e-14 {
		return fmt.Errorf("closed form vector's norm is off 1 by %.3g", d)
	}
	if d := rayleighDeficit(m, u, lambda); d > 1e-14 {
		return fmt.Errorf("closed form vector misses %.3g of the leading eigenvalue", d)
	}
	return nil
}

func TestLeadingLeftSingularWSMatchesSVDWS(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ws := dirtyWorkspace(rng)
	for rows := 1; rows <= 4; rows++ {
		for cols := 1; cols <= 6; cols++ {
			for trial := 0; trial < 5; trial++ {
				m := RandomGaussian(rng, rows, cols)
				for n := 0; n <= min(rows, cols)+1; n++ {
					for _, rel := range []float64{1e-12, 0, -1} {
						checkLeading(t, ws, "gaussian", m, n, rel)
					}
				}
			}
		}
	}
}

func TestLeadingLeftSingularWSFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	ws := dirtyWorkspace(rng)
	a, b := RandomGaussianVector(rng, 3), RandomGaussianVector(rng, 3)
	zero := NewVector(3)
	cases := []struct {
		name string
		m    *Matrix
	}{
		{"rank-deficient", FromColumns(a, b, a.Add(b))},
		{"repeated column", FromColumns(a, a, b, a)},
		{"zero column", FromColumns(a, zero, b)},
		{"rank one", FromColumns(a, a.Scale(2i), a.Scale(-0.5))},
		{"all zero", New(3, 4)},
	}
	fellBack := 0
	for _, c := range cases {
		for n := 1; n <= 3; n++ {
			for _, rel := range []float64{1e-12, 0, -1} {
				if needsFallback(c.m, n, rel) {
					fellBack++
				}
				checkLeading(t, ws, c.name, c.m, n, rel)
			}
		}
	}
	if fellBack == 0 {
		t.Fatal("no case reached the SVDWS fallback")
	}
}
