package cmplxmat

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// durandKernerFull is the Durand-Kerner loop without the fixed-point
// stop: it ends only on the absolute step test or after all 500
// iterations. It is the reference the fixed-point stop must match bit
// for bit.
func (p Poly) durandKernerFull(deg int, monic Poly, roots, next []complex128) int {
	lead := p[deg]
	for i := 0; i <= deg; i++ {
		monic[i] = p[i] / lead
	}
	seed := complex(0.4, 0.9)
	acc := complex(1, 0)
	for i := range roots {
		acc *= seed
		roots[i] = acc
	}
	const maxIter = 500
	for iter := 0; iter < maxIter; iter++ {
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
			return iter + 1
		}
	}
	return maxIter
}

// solveBoth runs the production loop and the full-length reference on
// p and fails unless their roots are bitwise equal. It returns both
// iteration counts.
func solveBoth(t *testing.T, name string, p Poly) (fast, full int) {
	t.Helper()
	deg := p.Degree(1e-13)
	got, want := make([]complex128, deg), make([]complex128, deg)
	fast = p.durandKerner(deg, make(Poly, deg+1), got, make([]complex128, deg))
	full = p.durandKernerFull(deg, make(Poly, deg+1), want, make([]complex128, deg))
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: root %d is %v after %d iterations, reference %v after %d", name, i, got[i], fast, want[i], full)
		}
	}
	return fast, full
}

// fromRoots returns the monic polynomial with the given roots.
func fromRoots(rs ...complex128) Poly {
	p := Poly{1}
	for _, r := range rs {
		q := make(Poly, len(p)+1)
		for i, c := range p {
			q[i+1] += c
			q[i] -= r * c
		}
		p = q
	}
	return p
}

// TestDurandKernerFixedPointStop: stopping at an exact fixed point
// returns the same bits as iterating on to the 500-iteration cap, and
// on large roots, where the absolute step test cannot pass, it stops
// early.
func TestDurandKernerFixedPointStop(t *testing.T) {
	// These reach the cap without a fixed point (the iterates cycle
	// between neighbouring floats): both loops run all 500 iterations.
	for name, p := range map[string]Poly{
		"(z-1e6)(z-2e6)":    fromRoots(1e6, 2e6),
		"(z-1e6-1i)(z-2e6)": fromRoots(1e6+1i, 2e6),
	} {
		solveBoth(t, name, p)
	}
	// This one reaches an exact fixed point long before the cap.
	fast, full := solveBoth(t, "(z-123456.7)(z-7654321.1)", fromRoots(123456.7, 7654321.1))
	if full != 500 || fast >= 100 {
		t.Errorf("(z-123456.7)(z-7654321.1): fast loop ran %d iterations, reference %d; want the reference at the cap and the fast loop stopped early", fast, full)
	}
	// Roots that converge under the absolute test take the same exit in
	// both loops.
	for name, p := range map[string]Poly{
		"(z-1)(z-2)":          fromRoots(1, 2),
		"(z-1e6)(z-3e6)":      fromRoots(1e6, 3e6),
		"(z-3e5)(z-4e5i)":     fromRoots(3e5, 4e5i),
		"(z-1e3)(z-2i)(z+1)":  fromRoots(1e3, 2i, -1),
		"(z-5e5-5e5i)(z+2e6)": fromRoots(5e5+5e5i, -2e6),
	} {
		if fast, full := solveBoth(t, name, p); fast != full {
			t.Errorf("%s: fast loop ran %d iterations, reference %d", name, fast, full)
		}
	}

	// Characteristic polynomials of channel-like products H1·H2⁻¹·H3
	// at path gains from unit to 1e4, the shape the downlink triangle
	// planner solves. Both loops must agree on every one; large gains
	// put some at the 500 cap, where the fast loop must stop early.
	rng := rand.New(rand.NewSource(7))
	ws := NewWorkspace()
	capped, stoppedEarly := 0, 0
	for trial := range 300 {
		gain := complex([]float64{1, 30, 1e3, 1e4}[trial%4], 0)
		h2inv, err := RandomGaussian(rng, 2, 2).Inverse()
		if err != nil {
			continue
		}
		prod := RandomGaussian(rng, 2, 2).Scale(gain).Mul(h2inv).Mul(RandomGaussian(rng, 2, 2).Scale(gain))
		ws.Reset()
		fast, full := solveBoth(t, "channel product", prod.CharPolyWS(ws))
		if full == 500 {
			capped++
			if fast < 500 {
				stoppedEarly++
			}
		}
	}
	if capped == 0 || stoppedEarly == 0 {
		t.Fatalf("channel products: %d reached the 500 cap, %d of them stopped early; the test no longer exercises the fixed-point stop", capped, stoppedEarly)
	}
	t.Logf("channel products: %d of 300 reach the 500 cap, %d of those stop at a fixed point", capped, stoppedEarly)
}
