package core

import (
	"fmt"
	"math/rand"
)

// This file implements the paper's Section 6(c) extension conjecture:
// when the channel is not quite flat, "one can still do the alignment
// separately in each OFDM subcarrier without trying to synchronize the
// transmitters", and for moderate-width channels even a single
// alignment (computed at one subcarrier) stays acceptable because
// nearby subcarriers have similar frequency responses.

// OFDMChannelSet holds one ChannelSet per OFDM subcarrier.
type OFDMChannelSet []ChannelSet

// OFDMPlan is a per-subcarrier alignment plan: one Plan per subcarrier,
// sharing packet structure (owners, schedule) but with per-subcarrier
// encoding vectors.
type OFDMPlan struct {
	Plans []*Plan
}

// SolveUplinkThreePerSubcarrier solves the Eq. 2 alignment independently
// on every subcarrier's channel matrices. All subcarriers share the same
// packet layout and decode schedule; only the vectors differ.
func SolveUplinkThreePerSubcarrier(ocs OFDMChannelSet, rng *rand.Rand) (*OFDMPlan, error) {
	if len(ocs) == 0 {
		return nil, fmt.Errorf("core: empty OFDM channel set")
	}
	out := &OFDMPlan{Plans: make([]*Plan, len(ocs))}
	for k, cs := range ocs {
		plan, err := SolveUplinkThree(cs, rng)
		if err != nil {
			return nil, fmt.Errorf("subcarrier %d: %w", k, err)
		}
		out.Plans[k] = plan
	}
	return out, nil
}

// SolveUplinkThreeFlatAssumption solves the alignment ONCE on the
// reference subcarrier's channels and reuses those encoding vectors on
// every subcarrier — what a flat-channel implementation does when the
// channel is mildly selective. The returned plan set shares one vector
// family across subcarriers.
func SolveUplinkThreeFlatAssumption(ocs OFDMChannelSet, refSubcarrier int, rng *rand.Rand) (*OFDMPlan, error) {
	if len(ocs) == 0 {
		return nil, fmt.Errorf("core: empty OFDM channel set")
	}
	if refSubcarrier < 0 || refSubcarrier >= len(ocs) {
		return nil, fmt.Errorf("core: reference subcarrier %d out of range", refSubcarrier)
	}
	ref, err := SolveUplinkThree(ocs[refSubcarrier], rng)
	if err != nil {
		return nil, err
	}
	out := &OFDMPlan{Plans: make([]*Plan, len(ocs))}
	for k := range ocs {
		out.Plans[k] = ref
	}
	return out, nil
}

// AlignmentResidualPerSubcarrier evaluates each subcarrier's alignment
// residual under that subcarrier's true channels. For per-subcarrier
// plans the residual is ~0 everywhere; for a flat-assumption plan it
// grows with the distance from the reference subcarrier and the
// channel's selectivity — quantifying the paper's "the resulting
// imperfection in the alignment stays acceptable" claim.
func (p *OFDMPlan) AlignmentResidualPerSubcarrier(ocs OFDMChannelSet) []float64 {
	out := make([]float64, len(ocs))
	for k := range ocs {
		out[k] = p.Plans[k].AlignmentResidual(ocs[k])
	}
	return out
}

// EvaluatePerSubcarrier evaluates every subcarrier's plan and returns
// the mean sum rate per subcarrier use (bit/s/Hz, averaged across
// subcarriers) plus the worst per-packet SINR anywhere in the band.
func (p *OFDMPlan) EvaluatePerSubcarrier(trueOCS, estOCS OFDMChannelSet, nodePower, noise float64) (meanRate, worstSINR float64, err error) {
	if len(trueOCS) != len(p.Plans) || len(estOCS) != len(p.Plans) {
		return 0, 0, fmt.Errorf("core: OFDM set size mismatch")
	}
	worstSINR = -1
	for k := range p.Plans {
		ev, e := p.Plans[k].Evaluate(trueOCS[k], estOCS[k], nodePower, noise)
		if e != nil {
			return 0, 0, fmt.Errorf("subcarrier %d: %w", k, e)
		}
		meanRate += ev.SumRate
		for _, s := range ev.SINR {
			if worstSINR < 0 || s < worstSINR {
				worstSINR = s
			}
		}
	}
	meanRate /= float64(len(p.Plans))
	return meanRate, worstSINR, nil
}
