package core

import (
	"math"
	"math/cmplx"

	"iaclan/internal/cmplxmat"
)

// Test-only references: the paper's Section 5 formulas and the plan
// checks that the tests pin, which no binary calls.

// DownlinkAPsNeeded returns the AP count Lemma 5.1 prescribes: M-1 APs
// for M > 2; the M = 2 case uses the 3-AP triangle construction.
func DownlinkAPsNeeded(m int) int {
	if m > 2 {
		return m - 1
	}
	return 3
}

// MultiplexingGain returns IAC's multiplexing gain over point-to-point
// MIMO for the given direction, the quantity the paper's capacity
// characterization C(SNR) = d log(SNR) + o(log SNR) scales with. The
// baseline is the throughput limit of existing MIMO LANs the paper's
// introduction states: M packets, the number of antennas per AP.
func MultiplexingGain(m int, uplink bool) float64 {
	if m < 1 {
		return 0
	}
	if uplink {
		return float64(MaxUplinkPackets(m)) / float64(m)
	}
	return float64(MaxDownlinkPackets(m)) / float64(m)
}

// AlignmentConstraintBudget reports the feasibility argument of Section 5:
// every alignment constraint consumes free variables of an encoding
// vector, and an encoding vector has only M of them. It returns the free
// variables per packet (M-1, after normalization removes scale) and the
// constraint count a chain of k alignments of that packet imposes (k).
// A packet's alignments are feasible iff constraints <= free variables.
func AlignmentConstraintBudget(m, alignments int) (freeVars, constraints int, feasible bool) {
	freeVars = m - 1
	constraints = alignments
	return freeVars, constraints, constraints <= freeVars
}

// Validate runs the plan's structural checks (validateWith) with fresh
// scratch.
func (p *Plan) Validate() error {
	return p.validateWith(make([]bool, len(p.Owner)))
}

// PacketPowers returns the per-packet powers of packetPowersInto in a
// fresh slice.
func (p *Plan) PacketPowers(nodePower float64) []float64 {
	out := make([]float64, len(p.Owner))
	p.packetPowersInto(out, nodePower)
	return out
}

// parallel reports whether v and w point along the same complex line,
// i.e. whether v = alpha*w for some complex scalar alpha, within tol.
// This is the paper's definition of "aligned" (footnote 2): a scalar
// multiple preserves alignment. Zero vectors are parallel to everything.
func parallel(v, w cmplxmat.Vector, tol float64) bool {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return true
	}
	// |<v,w>| == |v||w| iff Cauchy-Schwarz is tight iff parallel.
	d := cmplx.Abs(v.Dot(w))
	return math.Abs(d-nv*nw) <= tol*nv*nw
}
