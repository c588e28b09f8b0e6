// Package core implements the paper's primary contribution: interference
// alignment and cancellation (IAC) plans for MIMO LANs.
//
// A Plan assigns every concurrent packet an encoding vector (applied by
// its transmitter) and a decode schedule across the receivers. Uplink
// plans exploit the wired backend: an AP that decodes a packet shares it,
// and later APs subtract ("cancel") it before zero-forcing the rest.
// Downlink plans cannot cancel — clients do not share a wire — so the
// encoding vectors must align all undesired packets at every client.
//
// The solvers here produce the constructions of paper Sections 4 and 5:
//
//   - SolveUplinkThree:     2 clients, 2 APs, 3 packets (Eq. 2)
//   - SolveUplinkChain:     N >= 3 APs, 2M packets (Eqs. 3-4, Fig. 5,
//     Fig. 8; the A set splits across APs 2..N-1, and N == 2 degenerates
//     to SolveUplinkThree)
//   - SolveDownlinkTriangle: 3 APs, 3 clients, 3 packets (Eqs. 5-7)
//   - SolveDownlinkTwoClient: M-1 APs, 2 clients, 2M-2 packets (Lemma 5.1)
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/stats"
)

// ChannelSet holds the channel matrix from every transmitter to every
// receiver for one scenario: H[tx][rx] is an M x M complex matrix.
// For uplink scenarios transmitters are clients and receivers are APs;
// on the downlink the roles flip.
type ChannelSet [][]*cmplxmat.Matrix

// NewChannelSet allocates a numTx x numRx set with nil entries.
func NewChannelSet(numTx, numRx int) ChannelSet {
	cs := make(ChannelSet, numTx)
	for i := range cs {
		cs[i] = make([]*cmplxmat.Matrix, numRx)
	}
	return cs
}

// NewChannelSetWS is NewChannelSet with the set's slices in the
// workspace arena.
func NewChannelSetWS(ws *cmplxmat.Workspace, numTx, numRx int) ChannelSet {
	return ChannelSet(ws.MatrixGrid(numTx, numRx))
}

// NumTx returns the number of transmitters.
func (cs ChannelSet) NumTx() int { return len(cs) }

// NumRx returns the number of receivers.
func (cs ChannelSet) NumRx() int {
	if len(cs) == 0 {
		return 0
	}
	return len(cs[0])
}

// Antennas returns the antenna count M of the first channel matrix.
func (cs ChannelSet) Antennas() int {
	for _, row := range cs {
		for _, h := range row {
			if h != nil {
				return h.Rows()
			}
		}
	}
	return 0
}

// RandomChannelSet draws every channel as an i.i.d. Rayleigh matrix with
// the given average per-entry power (linear SNR at unit noise). Used by
// analytic experiments and tests that do not need geometry.
func RandomChannelSet(rng *rand.Rand, numTx, numRx, m int, snr float64) ChannelSet {
	cs := NewChannelSet(numTx, numRx)
	amp := complex(math.Sqrt(snr), 0)
	for t := 0; t < numTx; t++ {
		for r := 0; r < numRx; r++ {
			cs[t][r] = cmplxmat.RandomGaussian(rng, m, m).Scale(amp)
		}
	}
	return cs
}

// DecodeStep is one stage of successive decoding: receiver Rx decodes
// Packets after cancelling everything decoded in earlier steps (uplink
// only; downlink plans have one independent step per receiver).
type DecodeStep struct {
	Rx      int
	Packets []int
}

// Plan is a complete IAC transmission plan for one slot.
type Plan struct {
	// M is the per-node antenna count.
	M int
	// Owner maps packet index to its transmitter index.
	Owner []int
	// Encoding holds one unit-norm encoding vector per packet.
	Encoding []cmplxmat.Vector
	// Schedule is the decode order. Steps run sequentially; within a step
	// the receiver zero-forces all its packets jointly.
	Schedule []DecodeStep
	// Wired reports whether receivers share decoded packets (uplink: APs
	// on Ethernet). When false, no cancellation happens between steps.
	Wired bool
}

// NumPackets returns the number of concurrent packets in the plan.
func (p *Plan) NumPackets() int { return len(p.Owner) }

// Clone returns a deep heap copy of p, detaching it from any workspace
// arena or shared layout table its slices may reference. The solvers'
// *WS variants return arena-backed candidate plans; the role-assignment
// search clones only the winner.
func (p *Plan) Clone() *Plan {
	q := &Plan{M: p.M, Wired: p.Wired}
	q.Owner = append([]int(nil), p.Owner...)
	q.Encoding = make([]cmplxmat.Vector, len(p.Encoding))
	for i, v := range p.Encoding {
		q.Encoding[i] = v.Clone()
	}
	q.Schedule = make([]DecodeStep, len(p.Schedule))
	for i, st := range p.Schedule {
		q.Schedule[i] = DecodeStep{Rx: st.Rx, Packets: append([]int(nil), st.Packets...)}
	}
	return q
}

// validateWith checks structural invariants: every packet appears
// exactly once in the schedule, owners and receivers are non-negative,
// and encoding vectors have the right dimension and are unit norm. Their
// upper bounds depend on the channel set, so the evaluator checks those.
// seen is caller-provided (usually workspace-backed) scratch of length
// NumPackets.
func (p *Plan) validateWith(seen []bool) error {
	if len(p.Encoding) != len(p.Owner) {
		return fmt.Errorf("core: %d encodings for %d packets", len(p.Encoding), len(p.Owner))
	}
	for i, o := range p.Owner {
		if o < 0 {
			return fmt.Errorf("core: packet %d has owner %d", i, o)
		}
	}
	for _, step := range p.Schedule {
		if step.Rx < 0 {
			return fmt.Errorf("core: schedule references receiver %d", step.Rx)
		}
		for _, pkt := range step.Packets {
			if pkt < 0 || pkt >= len(p.Owner) {
				return fmt.Errorf("core: schedule references packet %d", pkt)
			}
			if seen[pkt] {
				return fmt.Errorf("core: packet %d decoded twice", pkt)
			}
			seen[pkt] = true
		}
	}
	for i, s := range seen {
		if !s {
			return fmt.Errorf("core: packet %d never decoded", i)
		}
	}
	for i, v := range p.Encoding {
		if v.Dim() != p.M {
			return fmt.Errorf("core: encoding %d has dim %d want %d", i, v.Dim(), p.M)
		}
		if n := v.Norm(); n < 0.999 || n > 1.001 {
			return fmt.Errorf("core: encoding %d has norm %v", i, n)
		}
	}
	return nil
}

// packetPowersInto splits each node's transmit power budget evenly
// across the packets it owns, filling out (length NumPackets) with
// per-packet linear power. This keeps the comparison with point-to-point
// MIMO fair: a node radiates nodePower total regardless of how many
// concurrent packets it carries. It does not allocate: owner indices are
// small and dense, so the count pass runs over a fixed-size array.
func (p *Plan) packetPowersInto(out []float64, nodePower float64) {
	maxOwner := 0
	for _, o := range p.Owner {
		if o > maxOwner {
			maxOwner = o
		}
	}
	var countsArr [8]int
	counts := countsArr[:]
	if maxOwner >= len(counts) {
		counts = make([]int, maxOwner+1)
	} else {
		counts = counts[:maxOwner+1]
		clear(counts)
	}
	for _, o := range p.Owner {
		counts[o]++
	}
	for i, o := range p.Owner {
		out[i] = nodePower / float64(counts[o])
	}
}

// ErrInfeasible is returned when a solver cannot produce the requested
// alignment, e.g. the channels are degenerate or the packet-to-client
// assignment violates the construction's requirements.
var ErrInfeasible = errors.New("core: alignment infeasible for these channels")

// randUnit returns a random unit vector of dimension m.
func randUnit(rng *rand.Rand, m int) cmplxmat.Vector {
	for {
		v := cmplxmat.RandomGaussianVector(rng, m)
		if v.Norm() > 1e-6 {
			return v.Normalize()
		}
	}
}

// randUnitWS is randUnit with the vector in the workspace arena.
func randUnitWS(ws *cmplxmat.Workspace, rng *rand.Rand, m int) cmplxmat.Vector {
	for {
		v := cmplxmat.RandomGaussianVectorWS(ws, rng, m)
		if v.Norm() > 1e-6 {
			return v.NormalizeWS(ws)
		}
	}
}

// receivedDirection returns the spatial direction along which receiver rx
// observes packet pkt: H[owner][rx] * v_pkt.
func (p *Plan) receivedDirection(cs ChannelSet, pkt, rx int) cmplxmat.Vector {
	return cs[p.Owner[pkt]][rx].MulVec(p.Encoding[pkt])
}

// AlignmentResidual measures how well the plan's alignment holds under
// the given channels: for each decode step it collects the interference
// directions that should be confined to a low-dimensional subspace and
// returns the worst sine of the angle between any interferer and the
// subspace spanned by the rest. Zero means perfect alignment; values near
// one mean no alignment. Useful for testing Section 6's claims that
// frequency offsets and modulation leave alignment intact.
func (p *Plan) AlignmentResidual(cs ChannelSet) float64 {
	worst := 0.0
	decoded := map[int]bool{}
	for _, step := range p.Schedule {
		inStep := map[int]bool{}
		for _, pkt := range step.Packets {
			inStep[pkt] = true
		}
		// Interference at this receiver: packets not yet decoded, not in
		// this step (and not cancelled, which decoded implies when wired).
		var interferers []int
		for pkt := range p.Owner {
			if p.Wired && decoded[pkt] {
				continue
			}
			if !p.Wired && decoded[pkt] {
				// Without a wire, previously decoded packets still
				// interfere at other receivers; but each downlink step has
				// its own receiver, so they count as interference there.
				interferers = append(interferers, pkt)
				continue
			}
			if !inStep[pkt] {
				interferers = append(interferers, pkt)
			}
		}
		// The interference must fit in an (M - len(step.Packets))-dim
		// subspace for the step's packets to be decodable.
		free := p.M - len(step.Packets)
		if len(interferers) > free {
			dirs := make([]cmplxmat.Vector, len(interferers))
			for i, pkt := range interferers {
				dirs[i] = p.receivedDirection(cs, pkt, step.Rx).Normalize()
			}
			if r := subspaceExcess(dirs, free); r > worst {
				worst = r
			}
		}
		for _, pkt := range step.Packets {
			decoded[pkt] = true
		}
	}
	return worst
}

// subspaceExcess returns how far the directions stick out of their best
// fitting dim-dimensional subspace, as the worst residual norm after
// projecting each direction onto the span of a greedy basis of size dim.
func subspaceExcess(dirs []cmplxmat.Vector, dim int) float64 {
	if dim <= 0 {
		// Any interference at all is excess.
		worst := 0.0
		for _, d := range dirs {
			if n := d.Norm(); n > worst {
				worst = n
			}
		}
		return worst
	}
	// Greedy basis: repeatedly take the direction with the largest
	// residual against the current basis.
	basis := make([]cmplxmat.Vector, 0, dim)
	residual := func(v cmplxmat.Vector) cmplxmat.Vector {
		u := v.Clone()
		for _, b := range basis {
			u = u.Sub(u.ProjectOnto(b))
		}
		return u
	}
	for len(basis) < dim {
		bestIdx, bestNorm := -1, 0.0
		for i, d := range dirs {
			if n := residual(d).Norm(); n > bestNorm {
				bestIdx, bestNorm = i, n
			}
		}
		if bestIdx < 0 || bestNorm < 1e-12 {
			break
		}
		basis = append(basis, residual(dirs[bestIdx]).Normalize())
	}
	worst := 0.0
	for _, d := range dirs {
		if n := residual(d).Norm(); n > worst {
			worst = n
		}
	}
	return worst
}

// Evaluation reports the analytic performance of a plan.
type Evaluation struct {
	// SINR is the post-projection signal-to-interference-plus-noise ratio
	// of each packet (linear).
	SINR []float64
	// PacketRate is log2(1+SINR) per packet (bit/s/Hz).
	PacketRate []float64
	// SumRate is the total achievable rate of the slot, the paper's
	// Eq. 9 metric.
	SumRate float64
	// Decoding holds the unit decoding vector used for each packet.
	Decoding []cmplxmat.Vector
	// Products is how many channel-direction products the evaluation
	// computed for its direction table: one per (packet, visited
	// receiver) and kind — est, true and (true - est), or est alone when
	// the true set is the estimate set. It is set on a decoding failure
	// and on a pruned evaluation too, since the table was built first.
	Products int
	// Pruned reports that the evaluation stopped early because the
	// plan's sum rate provably cannot exceed EvalOptions.PruneAt; only
	// Products is set then.
	Pruned bool
}

// EvalOptions parametrizes Plan evaluation beyond the basic power and
// noise budget. The zero value of the optional fields reproduces the
// historical behavior exactly: perfect reconstruction given the
// estimated channels, and continuous Shannon rates.
type EvalOptions struct {
	// NodePower is each transmitter's total power budget (split across
	// its packets); Noise is the receiver noise power.
	NodePower float64
	Noise     float64
	// ResidualCancel models imperfect reconstruct-and-subtract
	// cancellation (Section 8): a packet decoded at SINR γ is
	// re-modulated and reconstructed with an effective post-decoding
	// error of 1/(1+γ) of its received power (the MMSE residual
	// fraction), and that fraction leaks back as interference at every
	// later receiver that cancels it. Late packets in a cancellation
	// chain therefore inherit degraded SINR from the packets before
	// them — IAC becomes residual-limited at high SNR and collapses
	// toward the baseline at low SNR. False cancels exactly (up to
	// channel-estimate mismatch), the historical model.
	ResidualCancel bool
	// Rate maps a packet's linear SINR to its rate in bit/s/Hz. Nil
	// means the continuous Shannon rate log2(1+SINR) (paper Eq. 9); a
	// discrete MCS table's Rate method models real rate adaptation.
	Rate func(sinr float64) float64
	// Decodes reports whether the packet actually decodes at the
	// realized SINR (e.g. clears its committed MCS rung). A packet that
	// fails is never reconstructed, so wired plans cannot cancel it:
	// it keeps interfering at full power in every later step, and the
	// outage cascades down the chain. Nil means every packet decodes —
	// the continuous model, where any SINR carries log2(1+SINR).
	Decodes func(pkt int, sinr float64) bool
	// Prune lets the evaluator stop as soon as the plan's SumRate
	// provably cannot exceed PruneAt, reporting Evaluation.Pruned
	// instead of rates: a search that keeps only candidates strictly
	// above its best so far sets PruneAt to that best. Before each
	// packet's zero-forcing, the rates already computed plus an upper
	// bound on every remaining packet's rate are summed in schedule
	// order; the evaluation stops when that sum is <= PruneAt (see
	// rateBound). It prunes only with positive NodePower and Noise,
	// where every interference term is non-negative.
	Prune   bool
	PruneAt float64
}

// rate maps a SINR to a packet rate under the options.
func (o *EvalOptions) rate(sinr float64) float64 {
	if o.Rate != nil {
		return o.Rate(sinr)
	}
	return stats.ShannonRate(sinr)
}

// boundMargin is the relative slack on the interference-free SNR in
// rateBound. The computed SINR can exceed the exact Cauchy-Schwarz bound
// only by rounding, a few ulps (~1e-15) at the antenna counts the
// solvers support; 1e-9 covers that many times over and costs the bound
// at most ~1.5e-9 bit per packet.
const boundMargin = 1e-9

// minBoundScale is where rateBound stops trusting relative error
// arguments: below 2^54 times the smallest normal float64, a squared
// norm or a power product may have lost its low bits to underflow, and
// the bound gives up (+Inf). The Shannon rate of any SNR below 2^-53 is
// exactly 0 anyway (1 + snr rounds to 1), so nothing real is lost.
const minBoundScale = 0x1p-968

// rateBound is an upper bound on the rate a packet of power p can
// score when its true received direction d = H v has squared norm g,
// at receiver noise `noise` > 0: with a unit-norm decoding vector w,
// |w·d|^2 <= g (Cauchy-Schwarz), interference, leakage and the
// ResidualCancel residual only add to the denominator, and the rate map
// is non-decreasing, so rate(p g / noise · (1 + boundMargin)) bounds
// the computed rate, rounding included. Underflowing inputs get +Inf.
func (o *EvalOptions) rateBound(p, g, noise float64) float64 {
	pg := p * g
	x := pg / noise * (1 + boundMargin)
	if !(g >= minBoundScale && pg >= minBoundScale && x >= minBoundScale) {
		return math.Inf(1)
	}
	return o.rate(x)
}

// Evaluate computes decoding vectors from the estimated channels and then
// measures the resulting SINR under the true channels.
//
// nodePower is each transmitter's total power budget (split across its
// packets); noise is the receiver noise power. Cancellation uses the
// estimated channels to reconstruct decoded packets, so channel estimation
// error leaves residual interference — the same imperfection the paper's
// implementation faces (Section 8a). Evaluate is EvaluateWS on a pooled
// workspace with the result copied onto the heap.
func (p *Plan) Evaluate(trueCS, estCS ChannelSet, nodePower, noise float64) (Evaluation, error) {
	ws := cmplxmat.GetWorkspace()
	defer cmplxmat.PutWorkspace(ws)
	wev, err := p.EvaluateWS(ws, trueCS, estCS, EvalOptions{NodePower: nodePower, Noise: noise})
	if err != nil {
		return Evaluation{}, err
	}
	// Deep-copy out of the arena: the caller keeps the evaluation.
	ev := Evaluation{
		SINR:       append([]float64(nil), wev.SINR...),
		PacketRate: append([]float64(nil), wev.PacketRate...),
		SumRate:    wev.SumRate,
		Decoding:   make([]cmplxmat.Vector, len(wev.Decoding)),
		Products:   wev.Products,
	}
	for i, d := range wev.Decoding {
		ev.Decoding[i] = d.Clone()
	}
	return ev, nil
}

// Direction kinds in an evaluation's direction table.
const (
	kindEst  = 0 // estimated channel product (zero-forcing inputs)
	kindTrue = 1 // true channel product (realized signal/interference)
	kindDiff = 2 // (true - est) product (cancellation leakage)
	numKinds = 3
)

// dirTable is one evaluation's (packet, receiver) direction table: the
// products H v of every packet at every receiver the schedule visits,
// computed once. The SINR recursion reads the same interference
// direction at every packet of a step and every decoded packet's
// leakage at every later step, so the table is what keeps the
// recursion from re-deriving them.
type dirTable struct {
	m, np  int
	kinds  int   // numKinds, or 1 when the true set is the estimate set
	rxSlot []int // receiver index -> dense table slot, -1 if unvisited
	y      []complex128
	// scaled holds the amplitude-weighted est directions, slot*np+pkt.
	scaled []complex128
	zero   cmplxmat.Vector // the diff direction of a collapsed table
}

// dir returns the direction of the given kind for (packet, receiver).
func (t *dirTable) dir(kind, pkt, rx int) cmplxmat.Vector {
	if kind >= t.kinds {
		// Collapsed table (the true set is the estimate set): the true
		// direction IS the est direction — the same operands through the
		// same kernel give the same bits — and every diff product is
		// exactly zero, the product of the (t - t) zero matrix.
		if kind == kindDiff {
			return t.zero
		}
		kind = kindEst
	}
	off := ((t.rxSlot[rx]*t.np+pkt)*t.kinds + kind) * t.m
	return cmplxmat.Vector(t.y[off : off+t.m : off+t.m])
}

// scaledDir returns the packet's est direction at rx weighted by its
// transmit amplitude.
func (t *dirTable) scaledDir(pkt, rx int) cmplxmat.Vector {
	off := (t.rxSlot[rx]*t.np + pkt) * t.m
	return cmplxmat.Vector(t.scaled[off : off+t.m : off+t.m])
}

// sameChannels reports whether two channel sets hold identical matrices,
// entry by pointer-equal entry. Scoring measures a plan under the
// planner's own estimates — the same set passed as both TrueCS and
// EstCS — and the table then holds the est kind alone.
func sameChannels(a, b ChannelSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkChannels rejects channel sets the plan cannot be evaluated on:
// an estimate set shaped unlike the true set, an owner or receiver out
// of range, or a channel that is not M x M.
func (p *Plan) checkChannels(trueCS, estCS ChannelSet) error {
	numRx := trueCS.NumRx()
	if len(estCS) != len(trueCS) {
		return fmt.Errorf("core: estimate set has %d transmitters, true set %d", len(estCS), len(trueCS))
	}
	for tx := range trueCS {
		if len(trueCS[tx]) != numRx || len(estCS[tx]) != numRx {
			return fmt.Errorf("core: channel sets are not %dx%d at transmitter %d", len(trueCS), numRx, tx)
		}
	}
	for pkt, o := range p.Owner {
		if o >= len(trueCS) {
			return fmt.Errorf("core: packet %d owner %d out of range (%d transmitters)", pkt, o, len(trueCS))
		}
	}
	for _, step := range p.Schedule {
		if step.Rx >= numRx {
			return fmt.Errorf("core: receiver %d out of range (%d receivers)", step.Rx, numRx)
		}
		for _, o := range p.Owner {
			for _, h := range [2]*cmplxmat.Matrix{trueCS[o][step.Rx], estCS[o][step.Rx]} {
				if h == nil || h.Rows() != p.M || h.Cols() != p.M {
					return fmt.Errorf("core: channel %d->%d is not %dx%d", o, step.Rx, p.M, p.M)
				}
			}
		}
	}
	return nil
}

// EvaluateWS is the slot evaluator: it computes decoding vectors from
// the estimated channels and measures the resulting SINRs under the
// true channels, with the full option set — receiver noise as an
// operating point, the imperfect-cancellation residual model, and a
// pluggable SINR->rate mapping. Every temporary and the returned
// evaluation live in the workspace arena; the result is valid until the
// workspace is reset, so copy anything that must outlive it.
//
// It first builds the plan's direction table with one product per
// (packet, receiver, kind), then runs the SINR recursion off the table.
// When trueCS and estCS hold the same matrices (every candidate
// scoring), the table holds the est products alone.
func (p *Plan) EvaluateWS(ws *cmplxmat.Workspace, trueCS, estCS ChannelSet, opts EvalOptions) (Evaluation, error) {
	k := p.NumPackets()
	if err := p.validateWith(ws.Bools(k)); err != nil {
		return Evaluation{}, err
	}
	if err := p.checkChannels(trueCS, estCS); err != nil {
		return Evaluation{}, err
	}
	m := p.M
	powers := ws.Floats(k)
	p.packetPowersInto(powers, opts.NodePower)

	t := dirTable{m: m, np: k, kinds: numKinds, rxSlot: ws.Ints(trueCS.NumRx())}
	for r := range t.rxSlot {
		t.rxSlot[r] = -1
	}
	nrx := 0
	for _, step := range p.Schedule {
		if t.rxSlot[step.Rx] < 0 {
			t.rxSlot[step.Rx] = nrx
			nrx++
		}
	}
	if sameChannels(trueCS, estCS) {
		t.kinds = 1
		t.zero = cmplxmat.Vector(ws.Complexes(m))
	}
	products := nrx * k * t.kinds
	t.y = ws.Complexes(products * m)
	t.scaled = ws.Complexes(nrx * k * m)
	// The (true - est) matrix of each diff product, on local storage up
	// to cmplxmat.SmallDim antennas.
	const sd = cmplxmat.SmallDim
	var diffBuf [sd * sd]complex128
	diff := cmplxmat.View(m, m, ws.VectorIn(diffBuf[:], m*m))
	for rx, slot := range t.rxSlot {
		if slot < 0 {
			continue
		}
		for pkt, o := range p.Owner {
			e, enc, d := estCS[o][rx], p.Encoding[pkt], t.dir(kindEst, pkt, rx)
			e.MulVecInto(d, enc)
			d.ScaleInto(t.scaledDir(pkt, rx), complex(math.Sqrt(powers[pkt]), 0))
			if t.kinds == numKinds {
				tr := trueCS[o][rx]
				tr.MulVecInto(t.dir(kindTrue, pkt, rx), enc)
				tr.SubInto(&diff, e)
				diff.MulVecInto(t.dir(kindDiff, pkt, rx), enc)
			}
		}
	}

	noise := opts.Noise
	// bound[i] bounds the rate of the i-th packet in schedule order.
	var bound []float64
	if opts.Prune && noise > 0 && opts.NodePower > 0 {
		bound = ws.Floats(k)
		i := 0
		for _, step := range p.Schedule {
			for _, pkt := range step.Packets {
				g := 0.0
				for _, c := range t.dir(kindTrue, pkt, step.Rx) {
					g += cmplxAbs2(c)
				}
				bound[i] = opts.rateBound(powers[pkt], g, noise)
				i++
			}
		}
	}
	pos := 0 // schedule position of the packet being decoded
	ev := Evaluation{
		SINR:       ws.Floats(k),
		PacketRate: ws.Floats(k),
		Decoding:   ws.Vectors(k),
		Products:   products,
	}
	decoded := ws.Bools(k)
	residual := ws.Ints(k)
	interfDirs := ws.Vectors(k)
	for _, step := range p.Schedule {
		// Residual packets at this receiver: everything not cancelled.
		nRes := 0
		for pkt := range p.Owner {
			if p.Wired && decoded[pkt] {
				continue // cancelled via backend
			}
			residual[nRes] = pkt
			nRes++
		}
		for _, pkt := range step.Packets {
			if bound != nil {
				// Rounded additions are monotone, so adding the bounds
				// in the order the rates will be added keeps the sum an
				// upper bound on the final SumRate.
				ub := ev.SumRate
				for _, b := range bound[pos:] {
					ub += b
				}
				if ub <= opts.PruneAt {
					return Evaluation{Products: products, Pruned: true}, nil
				}
			}
			pos++
			// Decoding vector: project the estimated signal direction off
			// the estimated interference subspace (zero forcing). The
			// interference directions are weighted by transmit amplitude
			// so that, when estimation noise makes them span more than
			// M-1 dimensions, the nulled principal subspace suppresses
			// the strongest interference first (Section 8a: slight
			// estimation inaccuracy only leaves residual interference).
			nInt := 0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				interfDirs[nInt] = t.scaledDir(q, step.Rx)
				nInt++
			}
			w := zfDecodingVectorWS(ws, t.dir(kindEst, pkt, step.Rx), interfDirs[:nInt], m)
			if w == nil {
				// The table is built: its products still count.
				return Evaluation{Products: products}, fmt.Errorf("%w: no decoding vector for packet %d at rx %d", ErrInfeasible, pkt, step.Rx)
			}
			ev.Decoding[pkt] = w

			// True post-projection powers.
			sig := cmplxAbs2(w.Dot(t.dir(kindTrue, pkt, step.Rx))) * powers[pkt]
			interf := 0.0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				interf += cmplxAbs2(w.Dot(t.dir(kindTrue, q, step.Rx))) * powers[q]
			}
			// Cancellation residual: packets subtracted using estimated
			// channels leave (Htrue - Hest) v of leakage, and — under the
			// ResidualCancel model — an additional 1/(1+SINR_q) fraction of
			// the cancelled packet's received power, the reconstruction
			// error inherited from its own decoding quality. ev.SINR[q] is
			// already measured: a wired plan only cancels packets decoded
			// in earlier steps.
			if p.Wired {
				for q := range p.Owner {
					if !decoded[q] {
						continue
					}
					interf += cmplxAbs2(w.Dot(t.dir(kindDiff, q, step.Rx))) * powers[q]
					if opts.ResidualCancel {
						interf += cmplxAbs2(w.Dot(t.dir(kindTrue, q, step.Rx))) * powers[q] / (1 + ev.SINR[q])
					}
				}
			}
			sinr := sig / (noise + interf)
			ev.SINR[pkt] = sinr
			ev.PacketRate[pkt] = opts.rate(sinr)
			ev.SumRate += ev.PacketRate[pkt]
		}
		for _, pkt := range step.Packets {
			// A packet that failed to decode cannot be re-modulated and
			// subtracted (footnote 5 needs the bits); leaving it
			// un-decoded keeps it as full-power interference downstream.
			if opts.Decodes == nil || opts.Decodes(pkt, ev.SINR[pkt]) {
				decoded[pkt] = true
			}
		}
	}
	return ev, nil
}

func cmplxAbs2(c complex128) float64 {
	return real(c)*real(c) + imag(c)*imag(c)
}

// zfDecodingVector returns a unit vector that nulls the (at most M-1
// dimensional) dominant subspace of the interference directions while
// retaining a component along the signal direction. It returns nil when
// the signal direction is indistinguishable from interference.
//
// With exact alignment the interference genuinely spans at most M-1
// dimensions and this reduces to the paper's orthogonal projection; with
// estimation noise it nulls the strongest M-1 principal components, the
// least-squares interference suppressor.
//
// Up to cmplxmat.SmallDim antennas the stacked interference matrix, the
// basis and the projected signal direction live in local arrays; only
// the returned decoder is arena-backed.
func zfDecodingVectorWS(ws *cmplxmat.Workspace, sigDir cmplxmat.Vector, interf []cmplxmat.Vector, m int) cmplxmat.Vector {
	sigNorm := sigDir.Norm()
	if sigNorm == 0 {
		return nil
	}
	if len(interf) == 0 {
		return sigDir.NormalizeWS(ws) // matched filter: no interference
	}
	const sd = cmplxmat.SmallDim
	var stackedBuf [sd * sd]complex128
	var basisBuf [sd - 1][sd]complex128
	var basisHdr [sd - 1]cmplxmat.Vector
	var wBuf [sd]complex128
	var basis []cmplxmat.Vector
	if m <= sd {
		// Filled through basisHdr itself: a stack pointer stored through
		// basis, which may hold arena memory, would move basisBuf to the
		// heap.
		for i := 0; i < m-1; i++ {
			basisHdr[i] = basisBuf[i][:m]
		}
		basis = basisHdr[:m-1]
	} else {
		basis = ws.Vectors(m - 1)
		for i := range basis {
			basis[i] = ws.Vector(m)
		}
	}
	var nb int
	if len(interf) <= m-1 {
		nb = cmplxmat.OrthonormalBasisInto(basis, 1e-12, interf)
	} else {
		// Principal components of the stacked interference matrix: null
		// the strongest m-1 directions, skipping numerically null ones.
		k := len(interf)
		data := ws.VectorIn(stackedBuf[:], m*k)
		for j, c := range interf {
			for i := 0; i < m; i++ {
				data[i*k+j] = c[i]
			}
		}
		stacked := cmplxmat.View(m, k, data)
		nb = stacked.LeadingLeftSingularInto(ws, basis, 1e-12)
	}
	w := ws.VectorIn(wBuf[:], m)
	copy(w, sigDir)
	for _, b := range basis[:nb] {
		w.RejectInPlace(b)
	}
	if w.Norm() < 1e-9*sigNorm {
		return nil
	}
	return w.NormalizeWS(ws)
}
