package core

import (
	"math/rand"
	"testing"
)

// buildOFDMSet makes an nsub-subcarrier channel set that interpolates
// between a base draw and an independent draw, so selectivity grows with
// the mix parameter.
func buildOFDMSet(rng *rand.Rand, nsub int, mix float64) OFDMChannelSet {
	base := RandomChannelSet(rng, 2, 2, 2, testSNR)
	other := RandomChannelSet(rng, 2, 2, 2, testSNR)
	ocs := make(OFDMChannelSet, nsub)
	for k := 0; k < nsub; k++ {
		cs := NewChannelSet(2, 2)
		// Linear drift across the band.
		w := mix * float64(k) / float64(nsub-1)
		for t := 0; t < 2; t++ {
			for r := 0; r < 2; r++ {
				cs[t][r] = base[t][r].Scale(complex(1-w, 0)).Add(other[t][r].Scale(complex(w, 0)))
			}
		}
		ocs[k] = cs
	}
	return ocs
}

func TestPerSubcarrierAlignmentExactEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ocs := buildOFDMSet(rng, 16, 0.5)
	plan, err := SolveUplinkThreePerSubcarrier(ocs, rng)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range plan.AlignmentResidualPerSubcarrier(ocs) {
		if r > 1e-7 {
			t.Fatalf("subcarrier %d residual %v", k, r)
		}
	}
	rate, worst, err := plan.EvaluatePerSubcarrier(ocs, ocs, 1, 1.0/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 || worst < 5 {
		t.Fatalf("rate %v worst SINR %v", rate, worst)
	}
}

func TestFlatAssumptionDegradesWithSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	residualAt := func(mix float64) float64 {
		ocs := buildOFDMSet(rng, 16, mix)
		plan, err := SolveUplinkThreeFlatAssumption(ocs, 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		rs := plan.AlignmentResidualPerSubcarrier(ocs)
		var mean float64
		for _, r := range rs {
			mean += r
		}
		return mean / float64(len(rs))
	}
	small := residualAt(0.02)
	large := residualAt(0.6)
	if small > 0.2 {
		t.Fatalf("near-flat channel residual %v too large (conjecture says acceptable)", small)
	}
	if large <= small {
		t.Fatalf("selectivity should raise the flat-assumption residual: %v vs %v", large, small)
	}
	// On the reference subcarrier itself the flat plan is exact.
	ocs := buildOFDMSet(rng, 16, 0.6)
	plan, err := SolveUplinkThreeFlatAssumption(ocs, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r := plan.Plans[5].AlignmentResidual(ocs[5]); r > 1e-7 {
		t.Fatalf("reference subcarrier residual %v", r)
	}
}

func TestPerSubcarrierBeatsFlatAssumptionInRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ocs := buildOFDMSet(rng, 16, 0.5)
	per, err := SolveUplinkThreePerSubcarrier(ocs, rng)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := SolveUplinkThreeFlatAssumption(ocs, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	perRate, _, err := per.EvaluatePerSubcarrier(ocs, ocs, 1, 1.0/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	flatRate, _, err := flat.EvaluatePerSubcarrier(ocs, ocs, 1, 1.0/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	if perRate <= flatRate {
		t.Fatalf("per-subcarrier %v should beat flat assumption %v on a selective channel", perRate, flatRate)
	}
}

func TestOFDMPlanValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := SolveUplinkThreePerSubcarrier(nil, rng); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := SolveUplinkThreeFlatAssumption(nil, 0, rng); err == nil {
		t.Fatal("empty set accepted")
	}
	ocs := buildOFDMSet(rng, 4, 0.1)
	if _, err := SolveUplinkThreeFlatAssumption(ocs, 9, rng); err == nil {
		t.Fatal("bad reference subcarrier accepted")
	}
	plan, err := SolveUplinkThreePerSubcarrier(ocs, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.EvaluatePerSubcarrier(ocs[:2], ocs[:2], 1, 1); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if len(ocs) != 4 {
		t.Fatalf("subcarriers %d", len(ocs))
	}
}
