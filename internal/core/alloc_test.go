package core

import (
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
)

// TestM2KernelsZeroAlloc pins the M = 2 zero-forcing decoder (one, two
// and three interferers: the Gram-Schmidt branch and the 2x2 and 2x3
// principal-component branches), the alignment solver's dependent
// direction and the slot evaluator (collapsed and full direction
// tables and scoring on a checked set, all on the fixed-size evaluators
// at M = 2, and scoring on the general evaluator at M = 3) at zero heap
// allocations on a warm workspace. Their working storage is fixed-size
// locals at M = 2 and arena slices otherwise, so a buffer that escapes
// to the heap fails this test.
func TestM2KernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	sig := cmplxmat.RandomGaussianVector(rng, 2)
	interf := make([]cmplxmat.Vector, 3)
	for i := range interf {
		interf[i] = cmplxmat.RandomGaussianVector(rng, 2)
	}
	g := []*cmplxmat.Matrix{cmplxmat.RandomGaussian(rng, 2, 2), cmplxmat.RandomGaussian(rng, 2, 2)}
	ws := cmplxmat.NewWorkspace()
	cs := RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR)
	plan, err := SolveUplinkChain(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	est := perturbedEstimate(rng, cs)
	checked, err := CheckSet(est)
	if err != nil {
		t.Fatal(err)
	}
	opts := EvalOptions{NodePower: 1.0, Noise: testNoise / testSNR, ResidualCancel: true}
	cs3 := RandomChannelSet(rng, UplinkChainAssignment{M: 3}.NumClients(), UplinkAPsNeeded(3), 3, testSNR)
	plan3, err := SolveUplinkChain(cs3, rng)
	if err != nil {
		t.Fatal(err)
	}
	checked3, err := CheckSet(cs3)
	if err != nil {
		t.Fatal(err)
	}
	evaluate := func(trueCS ChannelSet) func() {
		return func() {
			if _, err := plan.EvaluateWS(ws, trueCS, est, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		run  func()
	}{
		{"zfDecodingVectorWS, 1 interferer", func() { zfDecodingVectorWS(ws, sig, interf[:1], 2) }},
		{"zfDecodingVectorWS, 2 interferers", func() { zfDecodingVectorWS(ws, sig, interf[:2], 2) }},
		{"zfDecodingVectorWS, 3 interferers", func() { zfDecodingVectorWS(ws, sig, interf, 2) }},
		{"dependentDirectionWS", func() {
			if _, err := dependentDirectionWS(ws, g, rng); err != nil {
				t.Fatal(err)
			}
		}},
		{"EvaluateWS, estimates only", evaluate(est)},
		{"ScoreWS", func() {
			if _, err := plan.ScoreWS(ws, checked, opts); err != nil {
				t.Fatal(err)
			}
		}},
		{"ScoreWS, M = 3", func() {
			if _, err := plan3.ScoreWS(ws, checked3, opts); err != nil {
				t.Fatal(err)
			}
		}},
		{"EvaluateWS, true channels", evaluate(cs)},
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
