package core

import (
	"fmt"
	"math/rand"

	"iaclan/internal/cmplxmat"
)

// SolveDownlinkTriangle builds the paper's three-packet downlink plan
// (Section 4d, Fig. 6, Eqs. 5-7): three APs each transmit one packet to
// one of three clients. Clients cannot cancel — each must see its two
// undesired packets aligned on a single direction.
//
// cs is a 3-transmitter (APs) by 3-receiver (clients) channel set of
// downlink matrices; packet i goes from AP i to client i.
//
// Solving Eqs. 5-7 up to scalars:
//
//	H[1][0] v1 ~ H[2][0] v2   (client 0 sees p1, p2 aligned)
//	H[0][1] v0 ~ H[2][1] v2   (client 1 sees p0, p2 aligned)
//	H[0][2] v0 ~ H[1][2] v1   (client 2 sees p0, p1 aligned)
//
// gives v1 = A v2 and v0 = B v2 with A = H[1][0]^-1 H[2][0] and
// B = H[0][1]^-1 H[2][1]; substituting into the third equation makes v2
// an eigenvector of (H[1][2] A)^-1 (H[0][2] B) — the closed form of the
// paper's footnote 4 transplanted to the downlink.
func SolveDownlinkTriangle(cs ChannelSet) (*Plan, error) {
	ws := cmplxmat.GetWorkspace()
	defer cmplxmat.PutWorkspace(ws)
	plan, err := SolveDownlinkTriangleWS(ws, cs)
	if err != nil {
		return nil, err
	}
	return plan.Clone(), nil
}

// The triangle's packet layout is fixed; the shared read-only slices are
// referenced by every candidate plan and deep-copied only on Clone.
var triangleLayout = newPlanLayout([]int{0, 1, 2}, []DecodeStep{
	{Rx: 0, Packets: []int{0}},
	{Rx: 1, Packets: []int{1}},
	{Rx: 2, Packets: []int{2}},
})

// SolveDownlinkTriangleWS is SolveDownlinkTriangle with the intermediate
// linear algebra and the plan's encoding vectors in the workspace arena
// (its layout slices are shared read-only tables). The plan comes back
// by value, so a caller that stores it (the slot planner's candidate
// list) allocates nothing. Callers that keep the plan past the
// workspace's lifetime must Clone it.
func SolveDownlinkTriangleWS(ws *cmplxmat.Workspace, cs ChannelSet) (Plan, error) {
	if cs.NumTx() != 3 || cs.NumRx() != 3 {
		return Plan{}, fmt.Errorf("core: triangle needs 3 APs and 3 clients, got %dx%d", cs.NumTx(), cs.NumRx())
	}
	m := cs.Antennas()
	inv := func(x *cmplxmat.Matrix) (*cmplxmat.Matrix, error) {
		i, err := x.InverseWS(ws)
		if err != nil {
			return nil, fmt.Errorf("%w: singular downlink channel", ErrInfeasible)
		}
		return i, nil
	}
	h10Inv, err := inv(cs[1][0])
	if err != nil {
		return Plan{}, err
	}
	a := h10Inv.MulWS(ws, cs[2][0])
	h01Inv, err := inv(cs[0][1])
	if err != nil {
		return Plan{}, err
	}
	b := h01Inv.MulWS(ws, cs[2][1])
	lhs := cs[1][2].MulWS(ws, a)
	lhsInv, err := inv(lhs)
	if err != nil {
		return Plan{}, err
	}
	prod := lhsInv.MulWS(ws, cs[0][2].MulWS(ws, b))
	_, v2, err := prod.AnyEigenvectorWS(ws)
	if err != nil {
		return Plan{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	v1 := a.MulVecWS(ws, v2).NormalizeWS(ws)
	v0 := b.MulVecWS(ws, v2).NormalizeWS(ws)
	enc := ws.Vectors(3)
	enc[0], enc[1], enc[2] = v0, v1, v2.NormalizeWS(ws)
	return Plan{
		M:        m,
		Owner:    triangleLayout.owners,
		Encoding: enc,
		Schedule: triangleLayout.schedule,
		Wired:    false,
		layout:   triangleLayout,
	}, nil
}

// SolveDownlinkTwoClient builds the paper's general downlink construction
// (Section 5a, Fig. 7): M-1 APs and two clients, each AP transmitting one
// packet to each client, for 2M-2 concurrent packets.
//
// cs is an (M-1)-transmitter by 2-receiver downlink channel set. Packet
// 2a goes from AP a to client 0 and packet 2a+1 from AP a to client 1.
//
// Each client needs its M-1 undesired packets collapsed onto a single
// direction. Pick random unit interference directions e0 (at client 0)
// and e1 (at client 1); then every packet destined to client 1 uses
// v = H[a][0]^-1 e0 (aligned at client 0) and every packet to client 0
// uses v = H[a][1]^-1 e1 (aligned at client 1). The desired directions
// are generically independent, so each client zero-forces its M-1 packets
// against one dimension of interference.
func SolveDownlinkTwoClient(cs ChannelSet, rng *rand.Rand) (*Plan, error) {
	m := cs.Antennas()
	if m < 3 {
		return nil, fmt.Errorf("core: two-client downlink needs M >= 3 (M=2 delivers more packets via the triangle construction)")
	}
	if cs.NumTx() != m-1 || cs.NumRx() != 2 {
		return nil, fmt.Errorf("core: two-client downlink needs %d APs and 2 clients, got %dx%d", m-1, cs.NumTx(), cs.NumRx())
	}
	e0 := randUnit(rng, m)
	e1 := randUnit(rng, m)
	numPackets := 2 * (m - 1)
	owners := make([]int, numPackets)
	enc := make([]cmplxmat.Vector, numPackets)
	var client0Pkts, client1Pkts []int
	for ap := 0; ap < m-1; ap++ {
		p0 := 2 * ap // to client 0: align at client 1
		p1 := 2*ap + 1
		owners[p0], owners[p1] = ap, ap
		h1Inv, err := cs[ap][1].Inverse()
		if err != nil {
			return nil, fmt.Errorf("%w: H[%d][1] singular", ErrInfeasible, ap)
		}
		h0Inv, err := cs[ap][0].Inverse()
		if err != nil {
			return nil, fmt.Errorf("%w: H[%d][0] singular", ErrInfeasible, ap)
		}
		enc[p0] = h1Inv.MulVec(e1).Normalize()
		enc[p1] = h0Inv.MulVec(e0).Normalize()
		client0Pkts = append(client0Pkts, p0)
		client1Pkts = append(client1Pkts, p1)
	}
	plan := &Plan{
		M:        m,
		Owner:    owners,
		Encoding: enc,
		Schedule: []DecodeStep{
			{Rx: 0, Packets: client0Pkts},
			{Rx: 1, Packets: client1Pkts},
		},
		Wired: false,
	}
	return plan, nil
}

// SolveDownlink dispatches to the construction that achieves the paper's
// Lemma 5.1 bound max(2M-2, floor(3M/2)) for the antenna count of cs:
// the triangle scheme for M = 2 (3 packets) and the two-client scheme for
// M >= 3 (2M-2 packets, which ties or beats floor(3M/2) from M = 3 up).
// The channel set must have the matching shape (3x3 for M=2, (M-1)x2
// otherwise).
func SolveDownlink(cs ChannelSet, rng *rand.Rand) (*Plan, error) {
	if cs.Antennas() == 2 {
		return SolveDownlinkTriangle(cs)
	}
	return SolveDownlinkTwoClient(cs, rng)
}

// The diversity options' owners, each with their shared decode step:
// read-only tables referenced by every candidate plan and deep-copied
// only on Clone.
var diversityLayouts = func() (out [3]*planLayout) {
	schedule := []DecodeStep{{Rx: 0, Packets: []int{0, 1}}}
	for i, owners := range [][]int{{0, 0}, {1, 1}, {0, 1}} {
		out[i] = newPlanLayout(owners, schedule)
	}
	return out
}()

// SolveDownlinkDiversityWS builds the paper's single-client diversity
// plan (Section 10.2, Fig. 14): one client, two APs, two packets. The
// leader compares three options — both packets from AP 0, both from AP
// 1, or one from each — and returns the plan whose estimated sum rate is
// highest. This is pure selection diversity across APs; no alignment is
// needed because the client has as many antennas as there are packets.
//
// cs is a 2-transmitter (APs) by 1-receiver (client) downlink set.
// nodePower and noise parametrize the rate estimates, which run through
// EvaluateWS. The plan's encoding vectors and every temporary live in
// the workspace arena and the plan comes back by value; callers that
// keep it past the workspace's lifetime must Clone it.
func SolveDownlinkDiversityWS(ws *cmplxmat.Workspace, cs ChannelSet, rng *rand.Rand, nodePower, noise float64) (Plan, error) {
	if cs.NumTx() != 2 || cs.NumRx() != 1 {
		return Plan{}, fmt.Errorf("core: diversity needs 2 APs and 1 client, got %dx%d", cs.NumTx(), cs.NumRx())
	}
	m := cs.Antennas()
	opts := EvalOptions{NodePower: nodePower, Noise: noise}
	var best Plan
	bestRate := -1.0
	for _, layout := range diversityLayouts {
		owners := layout.owners
		enc := ws.Vectors(2)
		enc[0], enc[1] = randUnitWS(ws, rng, m), randUnitWS(ws, rng, m)
		if owners[0] == owners[1] {
			// Same AP: use its two eigenmodes instead of random vectors,
			// matching what a point-to-point MIMO transmitter would do.
			_, _, v := cs[owners[0]][0].SVDWS(ws)
			enc[0], enc[1] = v.ColWS(ws, 0), v.ColWS(ws, 1)
		}
		plan := Plan{M: m, Owner: owners, Encoding: enc, Schedule: layout.schedule, layout: layout}
		ev, err := plan.EvaluateWS(ws, cs, cs, opts)
		if err != nil {
			continue
		}
		if ev.SumRate > bestRate {
			bestRate = ev.SumRate
			best = plan
		}
	}
	if best.Owner == nil {
		return Plan{}, ErrInfeasible
	}
	return best, nil
}
