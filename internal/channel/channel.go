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
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"

	"iaclan/internal/cmplxmat"
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
	// this node's transmit and receive paths (Eq. 8 calibration inputs).
	txChain, rxChain *cmplxmat.Matrix
}

// pairKey canonically orders a node pair.
type pairKey struct{ lo, hi int }

func keyOf(a, b *Node) pairKey {
	if a.ID < b.ID {
		return pairKey{a.ID, b.ID}
	}
	return pairKey{b.ID, a.ID}
}

// World owns the nodes and the fading state of every node pair.
// It is deterministic given its seed. World is not safe for concurrent
// mutation; the experiment harness runs each world on one goroutine.
type World struct {
	params Params
	rng    *rand.Rand
	nodes  []*Node
	// epoch counts channel-state mutations (Redraw, MoveNode, Perturb).
	// Layers that memoize per-pair channel matrices or estimates key
	// their caches on it and drop everything when it moves.
	epoch uint64
	// phys maps a canonical pair to the physical propagation matrix P for
	// the lo->hi direction (hi.Antennas x lo.Antennas). The hi->lo channel
	// is P^T by electromagnetic reciprocity.
	phys map[pairKey]*cmplxmat.Matrix
	// shadow maps a canonical pair to its log-normal shadowing gain.
	shadow map[pairKey]float64
	// keyBuf is Perturb's reusable sorted-key buffer.
	keyBuf []pairKey
	// spare holds the propagation matrices Redraw and MoveNode dropped;
	// physFor refills one before it allocates. A spare matrix belongs
	// to no pair, so Perturb never ages it and never draws for it.
	spare []*cmplxmat.Matrix
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
		phys:   make(map[pairKey]*cmplxmat.Matrix),
		shadow: make(map[pairKey]float64),
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

// AddNode places a new node at (x, y) and returns it.
func (w *World) AddNode(x, y float64) *Node {
	n := &Node{
		ID:       len(w.nodes),
		X:        x,
		Y:        y,
		Antennas: w.params.Antennas,
		oscHz:    w.rng.NormFloat64() * w.params.CFOStdHz,
		txChain:  w.randomChain(),
		rxChain:  w.randomChain(),
	}
	w.nodes = append(w.nodes, n)
	return n
}

// randomChain builds a diagonal hardware chain matrix: per-antenna gain
// within HardwareSpreadDB of unity and uniform random phase.
func (w *World) randomChain() *cmplxmat.Matrix {
	m := w.params.Antennas
	d := make([]complex128, m)
	for i := range d {
		gainDB := (w.rng.Float64()*2 - 1) * w.params.HardwareSpreadDB
		gain := math.Pow(10, gainDB/20)
		phase := w.rng.Float64() * 2 * math.Pi
		d[i] = cmplx.Rect(gain, phase)
	}
	return cmplxmat.Diagonal(d...)
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
	k := keyOf(a, b)
	s, ok := w.shadow[k]
	if !ok {
		s = w.rng.NormFloat64() * w.params.ShadowSigmaDB
		w.shadow[k] = s
	}
	return s
}

// MeanSNR returns the linear mean per-antenna SNR of the pair at unit
// noise power.
func (w *World) MeanSNR(a, b *Node) float64 {
	return math.Pow(10, w.PathGainDB(a, b)/10)
}

// physFor returns (generating on first use) the physical propagation
// matrix for the canonical direction lo->hi of the pair. A new pair's
// matrix reuses a spare one when there is one; the draws are those of
// RandomGaussian(...).Scale(amp) either way.
func (w *World) physFor(a, b *Node) *cmplxmat.Matrix {
	if a.ID == b.ID {
		panic("channel: self channel requested")
	}
	k := keyOf(a, b)
	p, ok := w.phys[k]
	if !ok {
		amp := math.Sqrt(w.MeanSNR(a, b))
		if n := len(w.spare); n > 0 {
			p = w.spare[n-1]
			w.spare = w.spare[:n-1]
		} else {
			p = cmplxmat.New(w.params.Antennas, w.params.Antennas)
		}
		p.FillGaussian(w.rng, complex(amp, 0))
		w.phys[k] = p
	}
	return p
}

// dropPhys forgets the pair's fading realization and keeps its matrix
// as a spare for the next pair physFor generates.
func (w *World) dropPhys(k pairKey) {
	if p, ok := w.phys[k]; ok {
		delete(w.phys, k)
		w.spare = append(w.spare, p)
	}
}

// Propagation returns the physical over-the-air matrix for tx->rx,
// excluding hardware chains. Reciprocity holds exactly at this layer:
// Propagation(a,b) == Propagation(b,a)^T.
func (w *World) Propagation(tx, rx *Node) *cmplxmat.Matrix {
	p := w.physFor(tx, rx)
	if keyOf(tx, rx).lo == tx.ID {
		return p.Clone()
	}
	return p.T()
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
	p := w.physFor(tx, rx)
	if keyOf(tx, rx).lo != tx.ID {
		p = p.TWS(ws)
	}
	rx.rxChain.MulWS(ws, p).MulInto(dst, tx.txChain)
}

// CFO returns the carrier frequency offset in Hz that rx observes on a
// transmission from tx: the difference of the two oscillators.
func (w *World) CFO(tx, rx *Node) float64 { return tx.oscHz - rx.oscHz }

// Redraw replaces the fading realization of the pair (new multipath
// state), keeping geometry, shadowing and hardware chains fixed.
func (w *World) Redraw(a, b *Node) {
	w.epoch++
	w.dropPhys(keyOf(a, b))
}

// MoveNode relocates n and invalidates the fading and shadowing of every
// pair involving n. The paper's reciprocity experiment moves the client
// between calibration and use (Section 10.4).
func (w *World) MoveNode(n *Node, x, y float64) {
	w.epoch++
	n.X, n.Y = x, y
	//iacvet:allow maprange delete-only filter of cached pair state; the freed matrices join the spare pool in visit order, but every reuse overwrites a spare whole, so no RNG draw or value depends on it
	for k := range w.phys {
		if k.lo == n.ID || k.hi == n.ID {
			w.dropPhys(k)
		}
	}
	//iacvet:allow maprange delete-only filter of cached pair state; no RNG draw or accumulation depends on visit order
	for k := range w.shadow {
		if k.lo == n.ID || k.hi == n.ID {
			delete(w.shadow, k)
		}
	}
}

// node resolves a node ID to its Node. AddNode assigns IDs as creation
// indices, so the node slice doubles as the ID map.
func (w *World) node(id int) *Node { return w.nodes[id] }

// Perturb ages the fading of every generated pair by the innovation factor
// eps in [0,1]: H' = sqrt(1-eps^2) H + eps W with W fresh CN(0,g). eps=0
// is a static channel; eps=1 a full redraw. This is the block-fading step
// of the traffic engine's channel dynamics.
//
// Pairs are aged in sorted key order: every innovation draw must land on
// the same pair in every run, so Go's randomized map iteration order can
// never reach the world RNG stream (the bit-for-bit-given-a-seed
// contract; pinned by TestPerturbDeterministic). The physical matrices
// are private to the world (Propagation and Channel hand out copies), so
// each is aged in place, with the same draws and complex operations as
// building H' afresh.
func (w *World) Perturb(eps float64) {
	if eps < 0 || eps > 1 {
		panic("channel: Perturb eps out of [0,1]")
	}
	w.epoch++
	keep := complex(math.Sqrt(1-eps*eps), 0)
	keys := w.keyBuf[:0]
	for k := range w.phys {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b pairKey) int {
		if a.lo != b.lo {
			return a.lo - b.lo
		}
		return a.hi - b.hi
	})
	w.keyBuf = keys
	for _, k := range keys {
		a, b := w.node(k.lo), w.node(k.hi)
		amp := math.Sqrt(w.MeanSNR(a, b))
		w.phys[k].BlendGaussianInPlace(w.rng, keep, complex(amp*eps, 0))
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
