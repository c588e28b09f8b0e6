package core

import (
	"fmt"
	"math"
	"math/rand"

	"iaclan/internal/cmplxmat"
)

// SolveUplinkThree builds the paper's first IAC example (Section 4b,
// Fig. 4b): two 2-antenna clients upload three packets to two APs.
// Client 0 owns packets 0 and 1; client 1 owns packet 2. The encoding
// vectors align packets 1 and 2 at AP 0 (Eq. 2: H00*v1 = H10*v2), so
// AP 0 decodes packet 0, ships it over the wire, and AP 1 cancels it and
// decodes packets 1 and 2.
//
// cs must be a 2-transmitter, 2-receiver channel set of invertible
// matrices (any antenna count M >= 2 works; the construction only uses
// one aligned pair).
func SolveUplinkThree(cs ChannelSet, rng *rand.Rand) (*Plan, error) {
	ws := cmplxmat.GetWorkspace()
	defer cmplxmat.PutWorkspace(ws)
	plan, err := SolveUplinkThreeWS(ws, cs, rng)
	if err != nil {
		return nil, err
	}
	return plan.Clone(), nil
}

// uplinkThree's packet layout is fixed; the shared read-only slices are
// referenced by every candidate plan and deep-copied only on Clone.
var uplinkThreeLayout = newPlanLayout([]int{0, 0, 1}, []DecodeStep{
	{Rx: 0, Packets: []int{0}},
	{Rx: 1, Packets: []int{1, 2}},
})

// SolveUplinkThreeWS is SolveUplinkThree with the intermediate linear
// algebra and the plan's encoding vectors in the workspace arena (its
// layout slices are shared read-only tables). The plan comes back by
// value, so a caller that stores it (the slot planner's candidate list)
// allocates nothing. Callers that keep the plan past the workspace's
// lifetime must Clone it.
func SolveUplinkThreeWS(ws *cmplxmat.Workspace, cs ChannelSet, rng *rand.Rand) (Plan, error) {
	if cs.NumTx() != 2 || cs.NumRx() != 2 {
		return Plan{}, fmt.Errorf("core: SolveUplinkThree needs 2 clients and 2 APs, got %dx%d", cs.NumTx(), cs.NumRx())
	}
	m := cs.Antennas()
	v1 := randUnitWS(ws, rng, m)
	h10Inv, err := cs[1][0].InverseWS(ws)
	if err != nil {
		return Plan{}, fmt.Errorf("%w: %v", ErrInfeasible, err)
	}
	// Eq. 2: v2 = H10^-1 * H00 * v1 aligns packets 1 and 2 at AP 0.
	v2 := h10Inv.MulWS(ws, cs[0][0]).MulVecWS(ws, v1).NormalizeWS(ws)
	// Packet 0's vector is unconstrained; beamform it at AP 0's decoding
	// direction (the complement of the aligned interference) instead of
	// sending it blindly. This is transmit matched filtering — part of
	// the diversity headroom the paper observes beyond the analytic
	// multiplexing gain (Section 10.1).
	v0 := matchedFreeVectorWS(ws, cs[0][0], cs[0][0].MulVecWS(ws, v1), rng)
	enc := ws.Vectors(3)
	enc[0], enc[1], enc[2] = v0, v1, v2
	return Plan{
		M:        m,
		Owner:    uplinkThreeLayout.owners,
		Encoding: enc,
		Schedule: uplinkThreeLayout.schedule,
		Wired:    true,
		layout:   uplinkThreeLayout,
	}, nil
}

// UplinkChainAssignment describes the packet layout SolveUplinkChain
// builds plans for: 2M packets across M clients, three APs.
//
// Client k owns packets 2k and 2k+1. The odd packets {1, 3, ..., 2M-1}
// of clients 1..M-1 plus packet 1 form the sets the construction aligns:
//
//   - AP 0 decodes packet 0 after all other 2M-1 packets collapse into an
//     (M-1)-dimensional subspace there.
//   - AP 1 cancels packet 0 and decodes the M-1 packets {2,4,...}? No --
//     see below -- it decodes the B set while the A set stays aligned on
//     one direction.
//   - AP 2 cancels everything decoded so far and zero-forces the A set.
//
// Concretely, A = {1, 3, ..., 2M-1} (one packet per client: the alignment
// requires distinct owners, because two same-owner packets aligned at one
// AP would be parallel at every AP) and B = {2, 4, ..., 2M-2}.
//
// For M=2 this is exactly the paper's four-packet example (Fig. 5,
// Eqs. 3-4), and for M=3 the six-packet example (Fig. 8). The paper's
// Lemma 5.2 states 2M packets are achievable with as few as two clients;
// the constructive proof lives in an unpublished tech report [15], so this
// repository implements the M-client construction its figures depict.
type UplinkChainAssignment struct {
	M int
}

// NumClients returns the client count the assignment needs. M=2 uses
// three clients (the paper's Fig. 5 layout: client 0 owns two packets,
// clients 1 and 2 one each); M>=3 uses M clients with two packets each
// (Fig. 8). The M=2 case cannot reuse the two-packets-per-client layout:
// with only one free dimension in the aligned subspace's null space, the
// B-set vector of a client would be forced parallel to its own A-set
// vector, making the two packets inseparable at every AP.
func (a UplinkChainAssignment) NumClients() int {
	if a.M == 2 {
		return 3
	}
	return a.M
}

// Owners returns the owner of each of the 2M packets.
func (a UplinkChainAssignment) Owners() []int {
	if a.M == 2 {
		return []int{0, 0, 1, 2} // Fig. 5: p0,p1 from client 0; p2, p3 single
	}
	owners := make([]int, 2*a.M)
	for i := range owners {
		owners[i] = i / 2
	}
	return owners
}

// ASet returns the packets aligned at AP 1 and decoded at AP 2. Their
// owners are pairwise distinct: two same-owner packets aligned at one AP
// would have parallel encoding vectors and collide at every AP.
func (a UplinkChainAssignment) ASet() []int {
	if a.M == 2 {
		return []int{2, 3}
	}
	set := make([]int, a.M)
	for k := 0; k < a.M; k++ {
		set[k] = 2*k + 1
	}
	return set
}

// BSet returns the packets decoded at AP 1.
func (a UplinkChainAssignment) BSet() []int {
	if a.M == 2 {
		return []int{1}
	}
	set := make([]int, 0, a.M-1)
	for k := 1; k < a.M; k++ {
		set = append(set, 2*k)
	}
	return set
}

// SolveUplinkChain builds an uplink plan over the chain assignment's
// clients and N APs (paper Section 5b, generalized). cs must have
// invertible M x M channels and:
//
//   - N == 2 receivers: the solver degenerates to the two-AP,
//     three-packet construction of Section 4b and is bit-for-bit
//     SolveUplinkThree (cs must then be 2x2).
//   - N >= 3 receivers: the full 2M-packet successive-alignment chain.
//     APs 0 and 1 play their Lemma 5.2 roles (free packet, B set); the
//     M-packet A set is split across APs 2..min(N, M+2)-1, each later
//     AP cancelling everything the wire already carries before
//     zero-forcing its share. The split needs no extra alignment: once
//     the B set and the earlier A packets are cancelled, any leftover
//     A packets span a generic subspace of matching dimension. APs
//     beyond M+2 get no decode step (they still matter upstream, as
//     role-assignment diversity).
//
// The construction:
//
//  1. The A-set packets must share one direction d at AP 1:
//     v_a = H[c(a)][1]^-1 * d, so their AP-0 directions are G_a*d with
//     G_a = H[c(a)][0] * H[c(a)][1]^-1.
//  2. AP 0 needs all 2M-1 packets other than packet 0 inside an
//     (M-1)-dim subspace, so the M vectors {G_a d} must be linearly
//     dependent: det[G_a1 d ... G_aM d] = 0, a degree-M polynomial in d
//     solved along a random line d = x + t*y. At M = 2 the solutions
//     are the two null vectors of the pencil G_1 - λ G_2
//     (UplinkPrep.DependentDirections2), which the slot planner runs one
//     attempt each from; this one-shot solver keeps the random line.
//  3. The B-set vectors are chosen in the null space of u1^H * H[c(b)][0],
//     where u1 is the normal of the aligned subspace at AP 0, placing
//     them inside it.
//  4. Packet 0's vector is random; its AP-0 direction is generically
//     outside the subspace, so AP 0 decodes it by orthogonal projection.
func SolveUplinkChain(cs ChannelSet, rng *rand.Rand) (*Plan, error) {
	ws := cmplxmat.GetWorkspace()
	defer cmplxmat.PutWorkspace(ws)
	plan, err := SolveUplinkChainWS(ws, cs, rng)
	if err != nil {
		return nil, err
	}
	return plan.Clone(), nil
}

// chainLayout caches the chain construction's deterministic packet
// layout per (antenna count, chain length). The slices are shared
// read-only across candidate plans and deep-copied only when a winner
// is cloned.
type chainLayout struct {
	owners, aSet, bSet []int
	schedule           []DecodeStep
	checked            *planLayout // owners and schedule, checked
}

// chainKey identifies a layout by antennas and the number of APs the
// schedule spreads over (after clamping to UplinkChainMaxAPs).
type chainKey struct{ m, aps int }

// makeChainLayout builds the layout for M antennas with the A set split
// across aps-2 decode steps (aps is already clamped to [3, M+2]). With
// aps == 3 the schedule is the paper's three-step chain.
func makeChainLayout(m, aps int) chainLayout {
	asgn := UplinkChainAssignment{M: m}
	l := chainLayout{owners: asgn.Owners(), aSet: asgn.ASet(), bSet: asgn.BSet()}
	l.schedule = []DecodeStep{
		{Rx: 0, Packets: []int{0}},
		{Rx: 1, Packets: l.bSet},
	}
	// Split the A set as evenly as possible over APs 2..aps-1, earlier
	// APs taking the remainder. Every step cancels all packets decoded
	// before it, so later shares face strictly less interference.
	steps := aps - 2
	quo, rem := m/steps, m%steps
	start := 0
	for s := 0; s < steps; s++ {
		size := quo
		if s < rem {
			size++
		}
		l.schedule = append(l.schedule, DecodeStep{Rx: 2 + s, Packets: l.aSet[start : start+size]})
		start += size
	}
	l.checked = newPlanLayout(l.owners, l.schedule)
	return l
}

// chainLayouts covers every shape the package targets (2x2 to 8x8
// arrays, three APs up to the full M+2 chain); anything else falls back
// to building the layout per call.
var chainLayouts = func() map[chainKey]chainLayout {
	out := map[chainKey]chainLayout{}
	for m := 2; m <= 8; m++ {
		for aps := 3; aps <= UplinkChainMaxAPs(m); aps++ {
			out[chainKey{m, aps}] = makeChainLayout(m, aps)
		}
	}
	return out
}()

// SolveUplinkChainWS is SolveUplinkChain with the intermediate linear
// algebra and the plan's encoding vectors in the workspace arena (its
// layout slices are shared read-only tables; the Plan header itself is
// heap-allocated). Callers that keep the plan past the workspace's
// lifetime must Clone it. For three or more APs it is
// PrepareUplinkChainWS followed by one attempt; a search running several
// attempts on one channel set prepares once instead.
func SolveUplinkChainWS(ws *cmplxmat.Workspace, cs ChannelSet, rng *rand.Rand) (*Plan, error) {
	var plan Plan
	var err error
	if cs.Antennas() >= 2 && cs.NumRx() == 2 {
		// Two APs cannot carry the 2M chain; the three-packet Section 4b
		// construction is the two-AP member of the family.
		plan, err = SolveUplinkThreeWS(ws, cs, rng)
	} else {
		prep := PrepareUplinkChainWS(ws, cs)
		plan, err = prep.SolveWS(ws, rng)
	}
	if err != nil {
		return nil, err
	}
	return &plan, nil
}

// UplinkPrep is the part of the chain construction that depends only on
// the channel set: the shape checks, the layout, and for every aligned
// packet a the inverse H[c(a)][1]^-1 and G_a = H[c(a)][0] * H[c(a)][1]^-1.
// Solver attempts on one channel set differ only in their random draws,
// so a role-assignment search prepares once per receiver ordering and
// calls SolveWS per attempt. Its matrices live in the workspace arena
// passed to the Prepare call.
type UplinkPrep struct {
	cs     ChannelSet
	layout chainLayout
	// invs[i] and gs[i] belong to layout.aSet[i].
	invs, gs []*cmplxmat.Matrix
	// err is the preparation failure every attempt returns.
	err error
}

// PrepareUplinkChainWS runs the channel-only half of SolveUplinkChainWS
// on a channel set of three or more APs. Failures are not returned here
// but by every SolveWS call, as the same error SolveUplinkChainWS would
// return; preparing draws no randomness.
func PrepareUplinkChainWS(ws *cmplxmat.Workspace, cs ChannelSet) UplinkPrep {
	prep := UplinkPrep{cs: cs}
	m := cs.Antennas()
	if m < 2 {
		prep.err = fmt.Errorf("core: chain construction needs M >= 2")
		return prep
	}
	asgn := UplinkChainAssignment{M: m}
	if cs.NumTx() != asgn.NumClients() {
		prep.err = fmt.Errorf("core: chain construction needs %d clients for M=%d, got %d", asgn.NumClients(), m, cs.NumTx())
		return prep
	}
	if cs.NumRx() < 3 {
		prep.err = fmt.Errorf("core: chain construction needs >= 3 APs, got %d", cs.NumRx())
		return prep
	}
	aps := cs.NumRx()
	if max := UplinkChainMaxAPs(m); aps > max {
		aps = max
	}
	layout, ok := chainLayouts[chainKey{m, aps}]
	if !ok {
		layout = makeChainLayout(m, aps)
	}
	prep.layout = layout
	owners, aSet := layout.owners, layout.aSet

	// Step 1: G_a per aligned packet.
	prep.invs = ws.MatrixPtrs(len(aSet))
	prep.gs = ws.MatrixPtrs(len(aSet))
	inverse := (*cmplxmat.Matrix).InverseWS
	if m == 2 {
		inverse = (*cmplxmat.Matrix).Inverse2WS
	}
	for i, a := range aSet {
		inv, err := inverse(cs[owners[a]][1], ws)
		if err != nil {
			prep.err = fmt.Errorf("%w: H[%d][1] singular", ErrInfeasible, owners[a])
			return prep
		}
		prep.invs[i] = inv
		prep.gs[i] = cs[owners[a]][0].MulWS(ws, inv)
	}
	return prep
}

// SolveWS runs one solver attempt on the prepared channel set, drawing
// from rng exactly as SolveUplinkChainWS does, and returns the plan by
// value with its encoding vectors in the arena.
func (prep *UplinkPrep) SolveWS(ws *cmplxmat.Workspace, rng *rand.Rand) (Plan, error) {
	if prep.err != nil {
		return Plan{}, prep.err
	}
	// Step 2: root of det[G_1 d, ..., G_M d] = 0 along d = x + t*y.
	d, err := dependentDirectionWS(ws, prep.gs, rng)
	if err != nil {
		return Plan{}, err
	}
	return prep.solveFromWS(ws, rng, d)
}

// SolveAlongWS runs one solver attempt of an M = 2 chain from the
// dependent direction d, one of DependentDirections2's: SolveWS with d
// in place of the random-line search, so it draws only the tail's
// values.
func (prep *UplinkPrep) SolveAlongWS(ws *cmplxmat.Workspace, rng *rand.Rand, d [2]complex128) (Plan, error) {
	if prep.err != nil {
		return Plan{}, prep.err
	}
	dv := ws.Vector(2)
	dv[0], dv[1] = d[0], d[1]
	return prep.solveFromWS(ws, rng, dv)
}

// solveFromWS is a solver attempt after its dependent direction d.
func (prep *UplinkPrep) solveFromWS(ws *cmplxmat.Workspace, rng *rand.Rand, d cmplxmat.Vector) (Plan, error) {
	m := prep.cs.Antennas()
	layout := prep.layout
	enc := ws.Vectors(2 * m)
	var err error
	if m == 2 {
		err = prep.tail2WS(ws, rng, d, enc)
	} else {
		err = prep.tailWS(ws, rng, d, enc)
	}
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		M:        m,
		Owner:    layout.owners,
		Encoding: enc,
		Schedule: layout.schedule,
		Wired:    true,
		layout:   layout.checked,
	}, nil
}

// DependentDirections2 returns the dependent directions of an M = 2
// chain in closed form, n of them (at most two), for one solver attempt
// each. With G_1 and G_2 the prepared matrices, [G_1 d, G_2 d] is
// singular exactly when G_1 d = λ G_2 d for some λ (or G_2 d = 0), so the
// directions are the null vectors of the pencil G_1 - λ G_2 at the roots
// of its quadratic
//
//	det(G_1 - λ G_2) = det G_1 - (a00 b11 + b00 a11 - a01 b10 - b01 a10) λ + det G_2 λ²,
//
// with a = G_1 and b = G_2: two points, where the random-line search
// samples lines through the plane and roots each one's quadratic to land
// on one of the same two. The quadratic is formed on G_1 and G_2 each
// scaled by a power of two (cmplxmat.Matrix.Scaled2), which scales λ and
// not the null vectors, and rooted by Poly.QuadraticRootsInto, in its
// order; each direction is the unit null vector of the larger row r of
// G_1 - λ G_2, (-r1, r0)/|r| = Perp2(conj(r)). A direction is kept when
// it passes the random-line search's screen, rank [G_1 d, G_2 d] = 1 by
// cmplxmat.Rank2 at 1e-7. n is 0, and the caller must take the
// random-line search (SolveWS), when the pencil declines: the chain is
// not M = 2 or did not prepare, G_1 or G_2 has an Inf or NaN part or is
// zero or out of scaling range, the quadratic loses its degree (G_2
// singular to within 1e-13), G_1 - λ G_2 is zero (G_1 a multiple of G_2,
// where every direction is dependent), or no direction passes the
// screen. It draws nothing. Every product is rounded before a sum, so
// nothing fuses.
func (prep *UplinkPrep) DependentDirections2(ws *cmplxmat.Workspace) (dirs [2][2]complex128, n int) {
	if prep.err != nil || len(prep.gs) != 2 || prep.gs[0].Rows() != 2 {
		return dirs, 0
	}
	a, okA := prep.gs[0].Scaled2()
	b, okB := prep.gs[1].Scaled2()
	if !okA || !okB {
		return dirs, 0
	}
	p := [3]complex128{
		cmplxmat.Mul(a[0], a[3]) - cmplxmat.Mul(a[1], a[2]),
		cmplxmat.Mul(a[1], b[2]) + cmplxmat.Mul(b[1], a[2]) - cmplxmat.Mul(a[0], b[3]) - cmplxmat.Mul(b[0], a[3]),
		cmplxmat.Mul(b[0], b[3]) - cmplxmat.Mul(b[1], b[2]),
	}
	var roots [2]complex128
	if nr, err := cmplxmat.Poly(p[:]).QuadraticRootsInto(ws, roots[:]); err != nil || nr != 2 {
		return dirs, 0
	}
	for _, l := range roots {
		r0, r1 := a[0]-cmplxmat.Mul(l, b[0]), a[1]-cmplxmat.Mul(l, b[1])
		s0, s1 := a[2]-cmplxmat.Mul(l, b[2]), a[3]-cmplxmat.Mul(l, b[3])
		if cmplxmat.Abs2(s0)+cmplxmat.Abs2(s1) > cmplxmat.Abs2(r0)+cmplxmat.Abs2(r1) {
			r0, r1 = s0, s1
		}
		d0, d1, ok := cmplxmat.Perp2(complex(real(r0), -imag(r0)), complex(real(r1), -imag(r1)))
		if !ok {
			return dirs, 0
		}
		h00, h10 := prep.gs[0].MulVec2(d0, d1)
		h01, h11 := prep.gs[1].MulVec2(d0, d1)
		if cmplxmat.Rank2(h00, h01, h10, h11, 1e-7) == 1 {
			dirs[n] = [2]complex128{d0, d1}
			n++
		}
	}
	return dirs, n
}

// tailWS is SolveWS after the dependent direction d (steps 3 and 4 and
// the aligned packets' vectors) for any M: it writes the encoding
// vectors into enc, drawing from rng for the B-set combinations and a
// degenerate packet 0.
func (prep *UplinkPrep) tailWS(ws *cmplxmat.Workspace, rng *rand.Rand, d cmplxmat.Vector, enc []cmplxmat.Vector) error {
	cs := prep.cs
	m := cs.Antennas()
	owners, aSet, bSet := prep.layout.owners, prep.layout.aSet, prep.layout.bSet
	gs := prep.gs

	tmp := ws.Vector(m)
	ap0Dirs, basis := ws.Vectors(len(aSet)), ws.Vectors(len(aSet))
	for i := range ap0Dirs {
		ap0Dirs[i], basis[i] = ws.Vector(m), ws.Vector(m)
	}

	// Aligned packets.
	for i, a := range aSet {
		prep.invs[i].MulVecInto(tmp, d)
		enc[a] = tmp.NormalizeWS(ws)
		gs[i].MulVecInto(ap0Dirs[i], d)
	}

	// Step 3: normal of the aligned subspace at AP 0.
	basis = basis[:cmplxmat.OrthonormalBasisInto(basis, 1e-9, ap0Dirs)]
	if len(basis) != m-1 {
		return fmt.Errorf("%w: aligned subspace has dim %d, want %d", ErrInfeasible, len(basis), m-1)
	}
	u1 := cmplxmat.OrthogonalComplementVectorWS(ws, m, 1e-9, basis)
	if u1 == nil {
		return fmt.Errorf("%w: no subspace normal", ErrInfeasible)
	}

	// B-set packets: v_b in the null space of the row u1^H * H[c(b)][0].
	rowData, v := ws.Vector(m), ws.Vector(m)
	for _, b := range bSet {
		hb := cs[owners[b]][0]
		for j := 0; j < m; j++ {
			for i := range tmp {
				tmp[i] = hb.At(i, j)
			}
			rowData[j] = u1.Dot(tmp)
		}
		row := cmplxmat.View(1, m, rowData)
		ns := row.NullSpaceWS(ws, 1e-9)
		if len(ns) == 0 {
			return fmt.Errorf("%w: empty null space for packet %d", ErrInfeasible, b)
		}
		// Random combination within the null space avoids pathological
		// overlaps between B-set directions at AP 1.
		clear(v)
		for _, n := range ns {
			c := nullCoefficient(rng)
			for i := range v {
				v[i] = v[i] + c*n[i]
			}
		}
		enc[b] = v.NormalizeWS(ws)
	}

	// Packet 0: beamformed at AP 0's decoding direction u1 (the normal of
	// the aligned subspace): v0 = H^H u1 maximizes |u1^H H v0|.
	cs[owners[0]][0].MulHVecInto(tmp, u1)
	enc[0] = tmp.NormalizeWS(ws)
	if enc[0].Norm() == 0 {
		enc[0] = randUnitWS(ws, rng, m)
	}
	return nil
}

// nullCoefficient draws the coefficient of one null-space vector in a
// B-set packet's random combination.
func nullCoefficient(rng *rand.Rand) complex128 {
	return complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
}

// tail2WS is tailWS at M = 2, in closed form. The aligned subspace at
// AP 0 is the line of x = G_1 d, and the rank test of x and y = G_2 d
// is |u^H y| <= 1e-9 |y| for the unit u = Perp2(x) orthogonal to x,
// which is the residual Gram-Schmidt compares. u is AP 0's decoding
// direction u1, the general path's complement up to phase. The B-set
// packet's row r = u^H H_b has the null vector (-r1, r0)/|r| =
// Perp2(conj(r)), with conj(r) = H_b^H u, and takes the same one drawn
// coefficient; packet 0 is H_0^H u normalized, or drawn when that is
// zero. The aligned packets' vectors are tailWS's. It draws exactly as
// tailWS does and returns its errors. An input the closed forms decline
// (a zero or non-finite x, y, row or H_0^H u, among them the zero row
// whose null space is the whole plane) goes to tailWS before anything
// is drawn. Every product is rounded before a sum, so nothing fuses.
func (prep *UplinkPrep) tail2WS(ws *cmplxmat.Workspace, rng *rand.Rand, d cmplxmat.Vector, enc []cmplxmat.Vector) error {
	cs := prep.cs
	owners, aSet, bSet := prep.layout.owners, prep.layout.aSet, prep.layout.bSet
	x0, x1 := prep.gs[0].MulVec2(d[0], d[1])
	y0, y1 := prep.gs[1].MulVec2(d[0], d[1])
	u0, u1, okU := cmplxmat.Perp2(x0, x1)
	y0, y1, okY := cmplxmat.Unit2(y0, y1)
	b := bSet[0]
	r0, r1 := cs[owners[b]][0].MulHVec2(u0, u1)
	n0, n1, okN := cmplxmat.Perp2(r0, r1)
	f0, f1 := cs[owners[0]][0].MulHVec2(u0, u1)
	e0, e1, okE := cmplxmat.Unit2(f0, f1)
	if !okU || !okY || !okN || !okE && (f0 != 0 || f1 != 0) {
		return prep.tailWS(ws, rng, d, enc)
	}
	// |u^H y|^2 against (1e-9)^2, y being unit.
	if c := cmplxmat.Inner2(u0, u1, y0, y1); cmplxmat.Abs2(c) > 1e-18 {
		return fmt.Errorf("%w: aligned subspace has dim %d, want %d", ErrInfeasible, 2, 1)
	}
	var tmpBuf [2]complex128
	tmp := cmplxmat.Vector(tmpBuf[:])
	for i, a := range aSet {
		prep.invs[i].MulVecInto(tmp, d)
		enc[a] = tmp.NormalizeWS(ws)
	}
	c := nullCoefficient(rng)
	enc[b] = ws.Vector(2)
	enc[b][0], enc[b][1], _ = cmplxmat.Unit2(cmplxmat.Mul(c, n0), cmplxmat.Mul(c, n1))
	if okE {
		enc[0] = ws.Vector(2)
		enc[0][0], enc[0][1] = e0, e1
	} else {
		enc[0] = randUnitWS(ws, rng, 2)
	}
	return nil
}

// dependentDirectionWS finds a nonzero d with det[g[0]d, ..., g[k-1]d] = 0,
// where k = len(g) equals the matrix dimension. It parametrizes d along a
// random complex line, interpolates the degree-k determinant polynomial
// from k+1 point evaluations, and roots it with Durand-Kerner. Roots are
// screened so the resulting column family has rank exactly k-1. The
// returned direction, the product matrices, the sample points and the
// polynomial are workspace-backed. At k = 2 it is
// dependentDirection2WS, in closed form; the slot planner calls it there
// only for a pencil UplinkPrep.DependentDirections2 declines.
func dependentDirectionWS(ws *cmplxmat.Workspace, g []*cmplxmat.Matrix, rng *rand.Rand) (cmplxmat.Vector, error) {
	m := g[0].Rows()
	if len(g) != m {
		return nil, fmt.Errorf("core: need %d matrices for dimension %d, got %d", m, m, len(g))
	}
	if m == 1 {
		return nil, fmt.Errorf("%w: no nontrivial dependence in dimension 1", ErrInfeasible)
	}
	if m == 2 {
		return dependentDirection2WS(ws, g[0], g[1], rng)
	}
	prod := ws.Complexes(m * m)
	col, d, roots := ws.Vector(m), ws.Vector(m), ws.Vector(m)
	ts, vals := ws.Complexes(m+1), ws.Complexes(m+1)
	coeffs := cmplxmat.Poly(ws.Complexes(m + 1))
	for attempt := 0; attempt < dependentAttempts; attempt++ {
		x := cmplxmat.RandomGaussianVectorWS(ws, rng, m)
		y := cmplxmat.RandomGaussianVectorWS(ws, rng, m)
		// Sample at m+1 points and interpolate the degree-m polynomial.
		for i := range ts {
			// Deterministic, well-separated sample points.
			ts[i] = complex(float64(i)-float64(m)/2, float64(i%2)+0.5)
			alongLine(d, x, y, ts[i])
			h := productColumns(prod, col, g, d)
			vals[i] = h.DetWS(ws)
		}
		clear(coeffs)
		cmplxmat.InterpolatePolyInto(ws, coeffs, ts, vals)
		nr, err := coeffs.RootsInto(ws, roots)
		if err != nil {
			continue
		}
		for _, t := range roots[:nr] {
			alongLine(d, x, y, t)
			if d.Norm() < 1e-9 {
				continue
			}
			dn := d.NormalizeWS(ws)
			h := productColumns(prod, col, g, dn)
			if h.RankWS(ws, 1e-7) == m-1 {
				return dn, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: no dependent direction found", ErrInfeasible)
}

// dependentAttempts is how many random lines dependentDirectionWS tries.
const dependentAttempts = 8

// dependentDirection2WS is dependentDirectionWS at M = 2, in closed
// form: the determinant along d = x + t y is a quadratic, formed
// directly (cmplxmat.LineDet2) instead of interpolated from three LU
// determinants, and rooted by Poly.QuadraticRootsInto instead of
// Durand-Kerner, in Durand-Kerner's root order. The screen takes the
// rank of [g1 d, g2 d] by cmplxmat.Rank2. The draws, the degree trim,
// the root order and the screen's rule are dependentDirectionWS's; only
// the rounding differs. Every product is rounded before a sum, so
// nothing here fuses. It stays beside the pencil: on inputs out of the
// pencil's scaling range it finds directions the general path does not
// (DESIGN.md, "The M = 2 alignment in closed form").
func dependentDirection2WS(ws *cmplxmat.Workspace, g1, g2 *cmplxmat.Matrix, rng *rand.Rand) (cmplxmat.Vector, error) {
	for attempt := 0; attempt < dependentAttempts; attempt++ {
		x := cmplxmat.RandomGaussianVectorWS(ws, rng, 2)
		y := cmplxmat.RandomGaussianVectorWS(ws, rng, 2)
		coeffs := cmplxmat.LineDet2(g1, g2, x, y)
		// A determinant that vanishes along the whole line (g1 and g2
		// align every direction) makes every point of it dependent: take
		// t = 0. The general path roots its interpolation's rounding
		// noise there, an arbitrary point.
		var roots [2]complex128
		nr := 1
		if coeffs != ([3]complex128{}) {
			var err error
			if nr, err = cmplxmat.Poly(coeffs[:]).QuadraticRootsInto(ws, roots[:]); err != nil {
				continue
			}
		}
		for _, t := range roots[:nr] {
			d0, d1 := x[0]+cmplxmat.Mul(t, y[0]), x[1]+cmplxmat.Mul(t, y[1])
			nrm := math.Sqrt(cmplxmat.Abs2(d0) + cmplxmat.Abs2(d1))
			if nrm < 1e-9 {
				continue
			}
			s := complex(1/nrm, 0)
			d0, d1 = cmplxmat.Mul(s, d0), cmplxmat.Mul(s, d1)
			h00, h10 := g1.MulVec2(d0, d1)
			h01, h11 := g2.MulVec2(d0, d1)
			if cmplxmat.Rank2(h00, h01, h10, h11, 1e-7) == 1 {
				dn := ws.Vector(2)
				dn[0], dn[1] = d0, d1
				return dn, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: no dependent direction found", ErrInfeasible)
}

// alongLine writes x + t*y into d: entry for entry the sum of x and
// y.ScaleWS(ws, t), without the arena.
func alongLine(d, x, y cmplxmat.Vector, t complex128) {
	for i := range d {
		d[i] = x[i] + t*y[i]
	}
}

// productColumns writes the square matrix [g[0]d, ..., g[k-1]d] into
// prod (row-major, k*k long), computing each column into col, and
// returns it as a matrix over prod.
func productColumns(prod []complex128, col cmplxmat.Vector, g []*cmplxmat.Matrix, d cmplxmat.Vector) cmplxmat.Matrix {
	k := len(g)
	for j, gj := range g {
		gj.MulVecInto(col, d)
		for i, c := range col {
			prod[i*k+j] = c
		}
	}
	return cmplxmat.View(k, k, prod)
}

// matchedFreeVectorWS beamforms an unconstrained packet at the projection
// direction its receiver will use: given the channel h and the aligned
// interference direction d at that receiver, the receiver projects on
// w = complement(d), and the transmit vector maximizing |w^H h v| is
// v = h^H w (transmit matched filter). Falls back to a random vector for
// degenerate channels. The returned vector is workspace-backed. At
// M = 2 the complement is cmplxmat.Perp2, the tail2WS decoding
// direction's closed form, unless it declines.
func matchedFreeVectorWS(ws *cmplxmat.Workspace, h *cmplxmat.Matrix, alignedDir cmplxmat.Vector, rng *rand.Rand) cmplxmat.Vector {
	m := h.Rows()
	var w cmplxmat.Vector
	var perpBuf [2]complex128
	var p0, p1 complex128
	ok := false
	if m == 2 {
		p0, p1, ok = cmplxmat.Perp2(alignedDir[0], alignedDir[1])
	}
	if ok {
		w = perpBuf[:]
		w[0], w[1] = p0, p1
	} else {
		single := ws.Vectors(1)
		single[0] = alignedDir
		w = cmplxmat.OrthogonalComplementVectorWS(ws, m, 1e-12, single)
	}
	if w == nil {
		return randUnitWS(ws, rng, m)
	}
	v := ws.Vector(h.Cols())
	h.MulHVecInto(v, w)
	if v.Norm() < 1e-12 {
		return randUnitWS(ws, rng, m)
	}
	return v.NormalizeWS(ws)
}
