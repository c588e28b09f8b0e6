// Package channel models the wireless propagation environment of a MIMO
// LAN: node geometry, flat-fading channel matrices, distance path loss,
// oscillator offsets, and uplink/downlink reciprocity with per-node
// hardware calibration (paper Eq. 8).
//
// The paper's testbed models the channel between each transmit-receive
// antenna pair as a single complex number (flat / narrowband channel,
// Section 6c). This package generates exactly that: one complex matrix per
// node pair, with entries drawn i.i.d. CN(0, g) where g is the distance
// path gain — Rayleigh flat fading, the standard statistical model for
// rich-scattering indoor channels.
package channel

import (
	"cmp"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/flat"
)

// Params configures a World.
type Params struct {
	// Antennas is the per-node antenna count M. The paper's testbed uses 2.
	Antennas int
	// PathLossExp is the path loss exponent alpha; indoor LANs are ~3.
	PathLossExp float64
	// RefSNRdB is the mean per-antenna SNR at RefDist meters, in dB.
	RefSNRdB float64
	// RefDist is the reference distance in meters for RefSNRdB.
	RefDist float64
	// ShadowSigmaDB is the log-normal shadowing standard deviation in dB
	// applied per node pair (0 disables shadowing).
	ShadowSigmaDB float64
	// CFOStdHz is the standard deviation of each node's oscillator offset
	// from nominal, in Hz. A transmitter-receiver pair sees the difference
	// of the two offsets (Section 6a).
	CFOStdHz float64
	// HardwareSpreadDB is the gain spread of per-antenna TX/RX hardware
	// chains in dB; chains also get a uniform random phase. These are the
	// constant diagonal calibration matrices of Eq. 8.
	HardwareSpreadDB float64
}

// DefaultParams returns parameters resembling the paper's indoor USRP
// testbed: 2 antennas and moderate, single-room SNRs. The paper's rate
// axes span roughly 4-14 b/s/Hz for 802.11-MIMO, i.e. per-stream SNRs of
// about 6-20 dB with a modest spread (all nodes are within radio range
// in one room, Fig. 11); a low indoor path-loss exponent keeps our
// spread comparable.
func DefaultParams() Params {
	return Params{
		Antennas:         2,
		PathLossExp:      2.2,
		RefSNRdB:         36,
		RefDist:          1.0,
		ShadowSigmaDB:    2.0,
		CFOStdHz:         300, // hundreds of Hz is typical for USRP oscillators
		HardwareSpreadDB: 1.5,
	}
}

// Node is a radio in the world. Create nodes with World.AddNode.
type Node struct {
	ID       int
	X, Y     float64
	Antennas int
	// oscHz is this node's oscillator offset from the nominal carrier.
	oscHz float64
	// txChain and rxChain are the constant diagonal hardware matrices of
	// this node's transmit and receive paths (Eq. 8 calibration inputs),
	// views into the world's chain slab.
	txChain, rxChain cmplxmat.Matrix
	// pairs heads the list of this node's pair rows (noRow when empty).
	pairs int32
}

const (
	// maxNodes bounds a world's node count, so node IDs fit an int32
	// and the 32-bit fields of a pair key.
	maxNodes = 1 << 31
	// noRow ends a pair-row list.
	noRow = -1
)

// keyField returns a node ID as a pair-key field, panicking unless the
// ID lies in [0, maxNodes).
func keyField(id int) uint64 {
	if id < 0 || id >= maxNodes {
		panic(fmt.Sprintf("channel: node ID %d outside [0, %d)", id, maxNodes))
	}
	return uint64(id)
}

// pairKey packs a node pair, lower ID first, into one index key.
func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return keyField(a)<<32 | keyField(b)
}

// The live bits of a pair row.
const (
	physLive = 1 << iota
	shadowLive
)

// pairRow is one node pair's fading state. next links the row into
// its two nodes' pair lists: next[0] in the lower ID's list, next[1] in
// the higher ID's.
type pairRow struct {
	key uint64
	// shadow is the pair's log-normal shadowing gain in dB.
	shadow float64
	// phys is the index in the world's propagation slab of the physical
	// propagation matrix P for the lo->hi direction (hi.Antennas x
	// lo.Antennas), or noRow before the row's first one; the hi->lo
	// channel is P^T by electromagnetic reciprocity.
	phys int32
	live uint8
	next [2]int32
}

// World owns the nodes and the fading state of every node pair.
// It is deterministic given its seed. World is not safe for concurrent
// mutation; the experiment harness runs each world on one goroutine.
//
// Storage is flat: nodes and their hardware chains come from chunked
// slabs, and each node pair the world has generated state for is one
// row of a slab, found through an index keyed by the packed (lo, hi)
// node IDs. A row carries the pair's propagation matrix (stored in a
// third slab), its shadowing and which of the two are live, and sits on
// both nodes' intrusive pair lists, so MoveNode visits only the moved
// node's pairs. Rows are never removed: Redraw and MoveNode mark fading
// dead, and the pair's next use redraws it into the row's own storage.
type World struct {
	params Params
	rng    *rand.Rand
	nodes  []*Node
	// epoch counts channel-state mutations (Redraw, MoveNode, Perturb).
	// Layers that memoize per-pair channel matrices or estimates key
	// their caches on it and drop everything when it moves.
	epoch uint64
	// nodeSlab and chains hold the nodes and their hardware chains;
	// props holds the propagation matrices of the pair rows.
	nodeSlab      flat.Slab[Node]
	chains, props flat.Slab[complex128]
	rows          flat.Slab[pairRow]
	index         flat.Index // pair key -> row
	// order is Perturb's reusable sort scratch.
	order []rowKey
}

// rowKey is a pair row and its key, sorted by key.
type rowKey struct {
	key uint64
	row int32
}

// NewWorld creates an empty world with deterministic randomness.
func NewWorld(params Params, seed int64) *World {
	if params.Antennas <= 0 {
		panic("channel: Antennas must be positive")
	}
	if params.RefDist <= 0 {
		panic("channel: RefDist must be positive")
	}
	return &World{
		params: params,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Params returns the world's configuration.
func (w *World) Params() Params { return w.params }

// Epoch returns the world's channel-state epoch: it increments whenever
// any pair's fading changes (Redraw, MoveNode, Perturb), so cached
// channel matrices, estimates, and plans derived from them are valid
// exactly while the epoch stands still.
func (w *World) Epoch() uint64 { return w.epoch }

// Nodes returns the nodes in creation order. The slice is shared; treat it
// as read-only.
func (w *World) Nodes() []*Node { return w.nodes }

// reserve sizes the node and chain storage for n nodes in all.
func (w *World) reserve(n int) {
	m := w.params.Antennas
	w.nodeSlab.Reserve(n)
	w.chains.Reserve(2 * n * m * m)
	w.nodes = slices.Grow(w.nodes, n-len(w.nodes))
}

// AddNode places a new node at (x, y) and returns it.
func (w *World) AddNode(x, y float64) *Node {
	keyField(len(w.nodes)) // the new node's ID must fit the pair keys
	m := w.params.Antennas
	_, run := w.nodeSlab.Take(1)
	n := &run[0]
	*n = Node{
		ID:       len(w.nodes),
		X:        x,
		Y:        y,
		Antennas: m,
		oscHz:    w.rng.NormFloat64() * w.params.CFOStdHz,
		pairs:    noRow,
	}
	w.randomChain(&n.txChain)
	w.randomChain(&n.rxChain)
	w.nodes = append(w.nodes, n)
	return n
}

// randomChain sets c to a diagonal hardware chain matrix on fresh slab
// storage: per-antenna gain within HardwareSpreadDB of unity and
// uniform random phase.
func (w *World) randomChain(c *cmplxmat.Matrix) {
	m := w.params.Antennas
	_, d := w.chains.Take(m * m)
	for i := 0; i < m; i++ {
		gainDB := (w.rng.Float64()*2 - 1) * w.params.HardwareSpreadDB
		gain := math.Pow(10, gainDB/20)
		phase := w.rng.Float64() * 2 * math.Pi
		d[i*m+i] = cmplx.Rect(gain, phase)
	}
	*c = cmplxmat.View(m, m, d)
}

// Distance returns the Euclidean distance between two nodes, floored at
// RefDist to keep the path loss model sane at very short range.
func (w *World) Distance(a, b *Node) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	d := math.Sqrt(dx*dx + dy*dy)
	if d < w.params.RefDist {
		return w.params.RefDist
	}
	return d
}

// PathGainDB returns the mean channel power gain for the pair in dB such
// that the per-antenna receive SNR at unit noise is RefSNRdB at RefDist,
// rolling off with the path-loss exponent, plus the pair's shadowing.
func (w *World) PathGainDB(a, b *Node) float64 {
	d := w.Distance(a, b)
	g := w.params.RefSNRdB - 10*w.params.PathLossExp*math.Log10(d/w.params.RefDist)
	return g + w.shadowOf(a, b)
}

func (w *World) shadowOf(a, b *Node) float64 {
	if w.params.ShadowSigmaDB == 0 {
		return 0
	}
	r := w.row(a, b)
	if r.live&shadowLive == 0 {
		r.shadow = w.rng.NormFloat64() * w.params.ShadowSigmaDB
		r.live |= shadowLive
	}
	return r.shadow
}

// MeanSNR returns the linear mean per-antenna SNR of the pair at unit
// noise power.
func (w *World) MeanSNR(a, b *Node) float64 {
	return math.Pow(10, w.PathGainDB(a, b)/10)
}

// row returns the pair's row, adding one with nothing live, at the
// head of both nodes' pair lists, on the pair's first use.
func (w *World) row(a, b *Node) *pairRow {
	if a.ID == b.ID {
		panic("channel: self channel requested")
	}
	k := pairKey(a.ID, b.ID)
	if r, ok := w.index.Get(k); ok {
		return w.rows.At(int(r))
	}
	i, row := w.rows.Take(1)
	r := int32(i) // past MaxInt32 rows this wraps, and Put panics
	w.index.Put(k, r)
	lo, hi := a, b
	if lo.ID > hi.ID {
		lo, hi = hi, lo
	}
	row[0] = pairRow{key: k, phys: noRow, next: [2]int32{lo.pairs, hi.pairs}}
	lo.pairs, hi.pairs = r, r
	return &row[0]
}

// propagation returns a view of the row's propagation matrix.
func (w *World) propagation(row *pairRow) cmplxmat.Matrix {
	m := w.params.Antennas
	return cmplxmat.View(m, m, w.props.Run(int(row.phys), m*m))
}

// physFor returns (generating on first use) the physical propagation
// matrix for the canonical direction lo->hi of the pair, as a view of
// the world's storage. A pair's first draw takes slab storage and every
// redraw refills it; the draws are those of
// RandomGaussian(...).Scale(amp) either way.
func (w *World) physFor(a, b *Node) cmplxmat.Matrix {
	row := w.row(a, b)
	if row.live&physLive == 0 {
		amp := math.Sqrt(w.MeanSNR(a, b))
		if row.phys == noRow {
			m := w.params.Antennas
			i, _ := w.props.Take(m * m)
			row.phys = int32(i)
		}
		p := w.propagation(row)
		p.FillGaussian(w.rng, complex(amp, 0))
		row.live |= physLive
	}
	return w.propagation(row)
}

// Channel returns the measured baseband channel for tx->rx including both
// ends' hardware chains: H = RxChain_rx * P * TxChain_tx. This is what a
// receiver estimates from training symbols, and the matrix all encoding
// and decoding math operates on.
//
// Only the result is allocated on the heap; see ChannelInto.
func (w *World) Channel(tx, rx *Node) *cmplxmat.Matrix {
	ws := cmplxmat.GetWorkspace()
	defer cmplxmat.PutWorkspace(ws)
	h := cmplxmat.New(rx.Antennas, tx.Antennas)
	w.ChannelInto(h, ws, tx, rx)
	return h
}

// ChannelInto writes Channel(tx, rx) into dst, which must be
// rx.Antennas x tx.Antennas. The propagation matrix is read in place (or
// transposed into ws) and the intermediate product lives in ws, released
// before return, with the same multiplications as
// rx.rxChain.Mul(w.Propagation(tx, rx)).Mul(tx.txChain).
func (w *World) ChannelInto(dst *cmplxmat.Matrix, ws *cmplxmat.Workspace, tx, rx *Node) {
	mark := ws.Mark()
	defer ws.Release(mark)
	phys := w.physFor(tx, rx)
	p := &phys
	if tx.ID > rx.ID {
		p = p.TWS(ws)
	}
	rx.rxChain.MulWS(ws, p).MulInto(dst, &tx.txChain)
}

// ChannelWS is Channel with the result in ws's arena.
func (w *World) ChannelWS(ws *cmplxmat.Workspace, tx, rx *Node) *cmplxmat.Matrix {
	h := ws.Matrix(rx.Antennas, tx.Antennas)
	w.ChannelInto(h, ws, tx, rx)
	return h
}

// CFO returns the carrier frequency offset in Hz that rx observes on a
// transmission from tx: the difference of the two oscillators.
func (w *World) CFO(tx, rx *Node) float64 { return tx.oscHz - rx.oscHz }

// MoveNode relocates n and invalidates the fading and shadowing of every
// pair involving n. The paper's reciprocity experiment moves the client
// between calibration and use (Section 10.4). It walks n's pair list
// only.
func (w *World) MoveNode(n *Node, x, y float64) {
	w.epoch++
	n.X, n.Y = x, y
	for r := n.pairs; r != noRow; {
		row := w.rows.At(int(r))
		row.live = 0
		if int(row.key>>32) == n.ID {
			r = row.next[0]
		} else {
			r = row.next[1]
		}
	}
}

// Perturb ages the fading of every generated pair by the innovation factor
// eps in [0,1]: H' = sqrt(1-eps^2) H + eps W with W fresh CN(0,g). eps=0
// is a static channel; eps=1 a full redraw. This is the block-fading step
// of the traffic engine's channel dynamics.
//
// Pairs are aged in sorted (lo, hi) key order, whatever order their rows
// were added in: every innovation draw must land on the same pair as it
// always has (the bit-for-bit-given-a-seed contract; pinned by
// TestPerturbDeterministic). The physical matrices are private
// to the world (Propagation and Channel hand out copies), so each is
// aged in place, with the same draws and complex operations as building
// H' afresh.
func (w *World) Perturb(eps float64) {
	if eps < 0 || eps > 1 {
		panic("channel: Perturb eps out of [0,1]")
	}
	w.epoch++
	keep := complex(math.Sqrt(1-eps*eps), 0)
	order := w.order[:0]
	for r := range w.rows.Len() {
		if row := w.rows.At(r); row.live&physLive != 0 {
			order = append(order, rowKey{row.key, int32(r)})
		}
	}
	slices.SortFunc(order, func(a, b rowKey) int { return cmp.Compare(a.key, b.key) })
	w.order = order
	for _, o := range order {
		a, b := w.nodes[o.key>>32], w.nodes[uint32(o.key)]
		amp := math.Sqrt(w.MeanSNR(a, b))
		p := w.propagation(w.rows.At(int(o.row)))
		p.BlendGaussianInPlace(w.rng, keep, complex(amp*eps, 0))
	}
}

// NoisyEstimate returns h corrupted by estimation noise of the given
// standard deviation per entry (real and imaginary each sigma/sqrt(2)),
// modeling least-squares channel estimation from a finite preamble.
func NoisyEstimate(h *cmplxmat.Matrix, sigma float64, rng *rand.Rand) *cmplxmat.Matrix {
	est := cmplxmat.New(h.Rows(), h.Cols())
	NoisyEstimateInto(est, h, sigma, rng)
	return est
}

// NoisyEstimateInto is NoisyEstimate into caller-owned storage of h's
// shape, with the same draws and bits. sigma 0 copies h and draws
// nothing.
func NoisyEstimateInto(dst, h *cmplxmat.Matrix, sigma float64, rng *rand.Rand) {
	if sigma == 0 {
		dst.CopyFrom(h)
		return
	}
	dst.SetNoisy(h, rng, complex(sigma, 0))
}

// EstimationSigma returns the per-entry noise standard deviation of a
// least-squares channel estimate obtained from trainSymbols unit-power
// training symbols per antenna at unit receiver noise: sigma = 1/sqrt(n).
func EstimationSigma(trainSymbols int) float64 {
	if trainSymbols <= 0 {
		panic("channel: trainSymbols must be positive")
	}
	return 1 / math.Sqrt(float64(trainSymbols))
}

// String describes a node.
func (n *Node) String() string {
	return fmt.Sprintf("node%d(%.1f,%.1f)", n.ID, n.X, n.Y)
}
