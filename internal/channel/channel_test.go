package channel

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"iaclan/internal/cmplxmat"
)

func newTestWorld(t *testing.T) *World {
	t.Helper()
	return NewWorld(DefaultParams(), 1)
}

func TestAddNodeAssignsIDs(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(3, 4)
	if a.ID != 0 || b.ID != 1 {
		t.Fatalf("ids %d %d", a.ID, b.ID)
	}
	if a.Antennas != 2 {
		t.Fatalf("antennas %d", a.Antennas)
	}
	if len(w.Nodes()) != 2 {
		t.Fatalf("node count %d", len(w.Nodes()))
	}
}

func TestDistanceFloor(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(3, 4)
	if d := w.Distance(a, b); math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance %v", d)
	}
	c := w.AddNode(0.1, 0)
	if d := w.Distance(a, c); d != w.Params().RefDist {
		t.Fatalf("floor %v", d)
	}
}

func TestPathGainMonotoneInDistance(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	w := NewWorld(p, 2)
	a := w.AddNode(0, 0)
	near := w.AddNode(2, 0)
	far := w.AddNode(8, 0)
	if w.PathGainDB(a, near) <= w.PathGainDB(a, far) {
		t.Fatal("nearer node should have higher gain")
	}
	// At reference distance the gain equals RefSNRdB.
	ref := w.AddNode(1, 0)
	if g := w.PathGainDB(a, ref); math.Abs(g-p.RefSNRdB) > 1e-9 {
		t.Fatalf("ref gain %v want %v", g, p.RefSNRdB)
	}
}

func TestChannelShapeAndDeterminism(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(5, 0)
	h1 := w.Channel(a, b)
	if h1.Rows() != 2 || h1.Cols() != 2 {
		t.Fatalf("shape %dx%d", h1.Rows(), h1.Cols())
	}
	h2 := w.Channel(a, b)
	if h1.Sub(h2).MaxAbs() > 0 {
		t.Fatal("channel must be stable between calls")
	}
	// Two worlds with the same seed generate identical channels.
	w2 := NewWorld(DefaultParams(), 1)
	a2 := w2.AddNode(0, 0)
	b2 := w2.AddNode(5, 0)
	if w2.Channel(a2, b2).Sub(h1).MaxAbs() > 0 {
		t.Fatal("seeded worlds must agree")
	}
}

func TestChannelDirectionsDiffer(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(5, 0)
	up := w.Channel(a, b)
	down := w.Channel(b, a)
	// With hardware chains, downlink is NOT simply the transpose of uplink;
	// but the underlying propagation is.
	if up.T().Sub(down).MaxAbs() <= 1e-12 {
		t.Fatal("hardware chains should break naive transpose reciprocity")
	}
	pUp := w.Propagation(a, b)
	pDown := w.Propagation(b, a)
	if pUp.T().Sub(pDown).MaxAbs() > 1e-12 {
		t.Fatal("physical propagation must be reciprocal")
	}
}

func TestSelfChannelPanics(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Channel(a, a)
}

func TestCFOAntisymmetric(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(5, 0)
	if w.CFO(a, b) != -w.CFO(b, a) {
		t.Fatal("CFO must be antisymmetric")
	}
}

func TestRedrawChangesFading(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(5, 0)
	h1 := w.Channel(a, b)
	w.Redraw(a, b)
	h2 := w.Channel(a, b)
	if h1.Sub(h2).MaxAbs() <= 1e-9 {
		t.Fatal("redraw did not change the channel")
	}
}

func TestMoveNodeInvalidates(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(5, 0)
	c := w.AddNode(0, 5)
	hab := w.Channel(a, b)
	hcb := w.Channel(c, b)
	w.MoveNode(a, 2, 2)
	if w.Channel(a, b).Sub(hab).MaxAbs() <= 1e-9 {
		t.Fatal("moving a should invalidate a-b")
	}
	if w.Channel(c, b).Sub(hcb).MaxAbs() > 0 {
		t.Fatal("moving a should not touch c-b")
	}
}

func TestPerturbSmallEpsSmallChange(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(5, 0)
	h1 := w.Propagation(a, b)
	w.Perturb(0.05)
	h2 := w.Propagation(a, b)
	rel := h1.Sub(h2).FrobeniusNorm() / h1.FrobeniusNorm()
	if rel > 0.5 {
		t.Fatalf("perturb 0.05 changed channel by %v", rel)
	}
	if rel == 0 {
		t.Fatal("perturb did nothing")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for bad eps")
			}
		}()
		w.Perturb(2)
	}()
}

func TestPerturbPreservesPower(t *testing.T) {
	// The AR(1) innovation model must keep mean channel power steady.
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	w := NewWorld(p, 3)
	a := w.AddNode(0, 0)
	b := w.AddNode(4, 0)
	var before, after float64
	const trials = 200
	for i := 0; i < trials; i++ {
		w.Redraw(a, b)
		h := w.Propagation(a, b)
		before += h.FrobeniusNorm() * h.FrobeniusNorm()
		w.Perturb(0.3)
		h = w.Propagation(a, b)
		after += h.FrobeniusNorm() * h.FrobeniusNorm()
	}
	ratio := after / before
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("power ratio after perturb: %v", ratio)
	}
}

func TestMeanSNRMatchesChannelPower(t *testing.T) {
	// Average |h_ij|^2 over many redraws should approximate MeanSNR.
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	p.HardwareSpreadDB = 0
	w := NewWorld(p, 4)
	a := w.AddNode(0, 0)
	b := w.AddNode(3, 0)
	want := w.MeanSNR(a, b)
	var got float64
	const trials = 500
	for i := 0; i < trials; i++ {
		w.Redraw(a, b)
		h := w.Channel(a, b)
		got += h.FrobeniusNorm() * h.FrobeniusNorm() / 4 // 4 entries
	}
	got /= trials
	if got < 0.85*want || got > 1.15*want {
		t.Fatalf("mean entry power %v want ~%v", got, want)
	}
}

func TestIdealCalibrationExact(t *testing.T) {
	w := newTestWorld(t)
	client := w.AddNode(0, 0)
	ap := w.AddNode(5, 0)
	cal, err := IdealCalibration(client, ap)
	if err != nil {
		t.Fatal(err)
	}
	hu := w.Channel(client, ap)
	hdTrue := w.Channel(ap, client)
	hdPred := cal.DownlinkFromUplink(hu)
	if e := FractionalError(hdTrue, hdPred); e > 1e-10 {
		t.Fatalf("ideal calibration error %v", e)
	}
	// Calibration must survive client movement (Fig. 16's key property).
	w.MoveNode(client, 3, 3)
	hu2 := w.Channel(client, ap)
	hd2 := w.Channel(ap, client)
	if e := FractionalError(hd2, cal.DownlinkFromUplink(hu2)); e > 1e-10 {
		t.Fatalf("calibration after move error %v", e)
	}
}

func TestMeasuredCalibrationApproximate(t *testing.T) {
	w := newTestWorld(t)
	client := w.AddNode(0, 0)
	ap := w.AddNode(4, 0)
	rng := rand.New(rand.NewSource(9))
	// Estimation noise small relative to channel magnitudes.
	sigma := 0.02 * w.Channel(client, ap).FrobeniusNorm() / 2
	cal, err := MeasureCalibration(w, client, ap, sigma, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Move the client; the measured calibration should still predict the
	// new downlink channel with small fractional error.
	w.MoveNode(client, 2, 3)
	hu := w.Channel(client, ap)
	hd := w.Channel(ap, client)
	if e := FractionalError(hd, cal.DownlinkFromUplink(hu)); e > 0.25 {
		t.Fatalf("measured calibration error %v", e)
	}
}

func TestNoisyEstimate(t *testing.T) {
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(5, 0)
	h := w.Channel(a, b)
	rng := rand.New(rand.NewSource(5))
	if NoisyEstimate(h, 0, rng).Sub(h).MaxAbs() > 0 {
		t.Fatal("sigma=0 must be exact")
	}
	est := NoisyEstimate(h, 0.1, rng)
	if est.Sub(h).MaxAbs() <= 1e-12 {
		t.Fatal("sigma>0 must perturb")
	}
	d := est.Sub(h).FrobeniusNorm()
	if d > 2 { // 4 entries at sigma .1: expected ~0.2
		t.Fatalf("noise too large: %v", d)
	}
}

func TestEstimationSigma(t *testing.T) {
	if s := EstimationSigma(100); math.Abs(s-0.1) > 1e-12 {
		t.Fatalf("sigma %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EstimationSigma(0)
}

func TestTestbed(t *testing.T) {
	w := DefaultTestbed(7)
	if len(w.Nodes()) != 20 {
		t.Fatalf("testbed size %d", len(w.Nodes()))
	}
	for _, n := range w.Nodes() {
		if n.X < 0 || n.X > 12 || n.Y < 0 || n.Y > 12 {
			t.Fatalf("node out of room: %v", n)
		}
	}
	picked := w.PickDistinct(5)
	seen := map[int]bool{}
	for _, n := range picked {
		if seen[n.ID] {
			t.Fatal("PickDistinct returned a duplicate")
		}
		seen[n.ID] = true
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		w.PickDistinct(21)
	}()
}

func TestChannelMatricesIndependentAcrossPairs(t *testing.T) {
	// The alignment argument depends on channels to different APs being
	// independent; verify two pairs do not share a matrix.
	w := newTestWorld(t)
	c := w.AddNode(0, 0)
	ap1 := w.AddNode(5, 0)
	ap2 := w.AddNode(0, 5)
	h1 := w.Channel(c, ap1)
	h2 := w.Channel(c, ap2)
	if h1.Sub(h2).MaxAbs() <= 1e-9 {
		t.Fatal("channels to different APs must differ")
	}
}

func TestChannelInvertible(t *testing.T) {
	// Footnote 3: channel matrices are typically invertible. Verify over
	// many draws that the 2x2 channels we generate are well conditioned
	// enough to invert.
	w := newTestWorld(t)
	a := w.AddNode(0, 0)
	b := w.AddNode(5, 0)
	for i := 0; i < 100; i++ {
		w.Redraw(a, b)
		if _, err := w.Channel(a, b).Inverse(); err != nil {
			t.Fatalf("draw %d: singular channel", i)
		}
	}
}

func TestWorldValidation(t *testing.T) {
	for _, p := range []Params{
		{Antennas: 0, RefDist: 1},
		{Antennas: 2, RefDist: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewWorld(p, 1)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		NewTestbed(DefaultParams(), 1, 0, 10)
	}()
}

var _ = cmplxmat.Vector{} // keep import if test edits drop direct uses

// TestPerturbDeterministic pins the run-twice-same-world contract: two
// identically seeded worlds whose pair channels were generated in the
// same order must age identically under Perturb. The old implementation
// iterated the phys map in Go's randomized order while drawing the
// innovations from the world RNG, so which pair received which draw
// differed between runs.
//
// The moves case interleaves MoveNode with Perturb. A move marks the
// moved node's pair rows dead and the next generation redraws into
// them; the map-based oracle always generates into fresh matrices.
// Identical channels and RNG positions show that reused rows never
// change a draw, and that Perturb never ages a dead row (that would
// draw extra numbers).
func TestPerturbDeterministic(t *testing.T) {
	build := func() *World {
		w := NewTestbed(DefaultParams(), 42, 10, 12)
		touchAll(w)
		return w
	}
	t.Run("static", func(t *testing.T) {
		a, b := build(), build()
		for step := 0; step < 3; step++ {
			a.Perturb(0.3)
			b.Perturb(0.3)
		}
		na, nb := a.Nodes(), b.Nodes()
		for i := range na {
			for j := i + 1; j < len(na); j++ {
				if a.Channel(na[i], na[j]).Sub(b.Channel(nb[i], nb[j])).MaxAbs() > 0 {
					t.Fatalf("pair (%d,%d) diverged after identical Perturb sequences", i, j)
				}
			}
		}
		if a.rng.Int63() != b.rng.Int63() {
			t.Fatal("world RNG streams diverged")
		}
	})
	t.Run("moves", func(t *testing.T) {
		reused := build()
		fresh := newTestbedOracle(DefaultParams(), 42, 10, 12)
		touchAll(fresh)
		for step := 0; step < 6; step++ {
			for _, w := range []worldOps{reused, fresh} {
				w.MoveNode(w.node(step%3), float64(step), float64(2*step%12))
				if step%2 == 0 {
					// Age before regenerating: the moved node's rows are
					// dead during Perturb.
					w.Perturb(0.3)
					touchAll(w)
				} else {
					touchAll(w)
					w.Perturb(0.3)
				}
			}
			if n := reused.rows.Len(); n != 45 {
				t.Fatalf("step %d: %d pair rows for 45 pairs", step, n)
			}
		}
		compareWorlds(t, reused, fresh, 10)
	})
}

// worldOps is the surface World and its map-based oracle share, by node
// index, for the differential tests.
type worldOps interface {
	addNode(x, y float64)
	node(id int) *Node
	numNodes() int
	Channel(tx, rx *Node) *cmplxmat.Matrix
	Propagation(tx, rx *Node) *cmplxmat.Matrix
	MeanSNR(a, b *Node) float64
	Redraw(a, b *Node)
	MoveNode(n *Node, x, y float64)
	Perturb(eps float64)
	Epoch() uint64
	nextDraw() int64
}

func (w *World) addNode(x, y float64) { w.AddNode(x, y) }
func (w *World) node(id int) *Node    { return w.nodes[id] }
func (w *World) numNodes() int        { return len(w.nodes) }
func (w *World) nextDraw() int64      { return w.rng.Int63() }

// touchAll generates every node pair's channel in a fixed order.
func touchAll(w worldOps) {
	for i := 0; i < w.numNodes(); i++ {
		for j := i + 1; j < w.numNodes(); j++ {
			w.Channel(w.node(i), w.node(j))
		}
	}
}

// compareWorlds fails unless the first n nodes of a and b have bitwise
// equal channels and propagation matrices in both directions of every
// pair, equal epochs, and equal next RNG draws. It generates any pair
// neither has yet, in the same order on both.
func compareWorlds(t *testing.T, a, b worldOps, n int) {
	t.Helper()
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epochs %d and %d", a.Epoch(), b.Epoch())
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			mustBitEqual(t, "channel", a.Channel(a.node(i), a.node(j)), b.Channel(b.node(i), b.node(j)))
			mustBitEqual(t, "propagation", a.Propagation(a.node(i), a.node(j)), b.Propagation(b.node(i), b.node(j)))
		}
	}
	if a.nextDraw() != b.nextDraw() {
		t.Fatal("world RNG streams diverged")
	}
}

func mustBitEqual(t *testing.T, what string, x, y *cmplxmat.Matrix) {
	t.Helper()
	if x.Rows() != y.Rows() || x.Cols() != y.Cols() {
		t.Fatalf("%s: shapes %dx%d and %dx%d", what, x.Rows(), x.Cols(), y.Rows(), y.Cols())
	}
	for r := 0; r < x.Rows(); r++ {
		for c := 0; c < x.Cols(); c++ {
			u, v := x.At(r, c), y.At(r, c)
			if math.Float64bits(real(u)) != math.Float64bits(real(v)) || math.Float64bits(imag(u)) != math.Float64bits(imag(v)) {
				t.Fatalf("%s entry (%d,%d): %v vs %v", what, r, c, u, v)
			}
		}
	}
}

// mapWorld is World as it was before flat storage, kept as the
// differential oracle: a heap Node with heap chain matrices per node,
// and maps of heap propagation matrices and shadowing gains per pair.
// MoveNode scans every pair; Perturb sorts the pair keys and replaces
// each matrix with a freshly allocated keep*P + amp*eps*W. Its nodes
// are World Nodes with chain views over heap matrices.
type mapWorld struct {
	params Params
	rng    *rand.Rand
	nodes  []*Node
	epoch  uint64
	phys   map[oraclePair]*cmplxmat.Matrix
	shadow map[oraclePair]float64
}

type oraclePair struct{ lo, hi int }

func oracleKey(a, b *Node) oraclePair {
	if a.ID < b.ID {
		return oraclePair{a.ID, b.ID}
	}
	return oraclePair{b.ID, a.ID}
}

func newMapWorld(params Params, seed int64) *mapWorld {
	return &mapWorld{
		params: params,
		rng:    rand.New(rand.NewSource(seed)),
		phys:   map[oraclePair]*cmplxmat.Matrix{},
		shadow: map[oraclePair]float64{},
	}
}

func newTestbedOracle(params Params, seed int64, n int, roomSize float64) *mapWorld {
	w := newMapWorld(params, seed)
	for i := 0; i < n; i++ {
		x := w.rng.Float64() * roomSize
		y := w.rng.Float64() * roomSize
		w.addNode(x, y)
	}
	return w
}

func (w *mapWorld) addNode(x, y float64) {
	n := &Node{ID: len(w.nodes), X: x, Y: y, Antennas: w.params.Antennas,
		oscHz: w.rng.NormFloat64() * w.params.CFOStdHz}
	n.txGain = w.randomChain()
	n.rxGain = w.randomChain()
	w.nodes = append(w.nodes, n)
}

func (w *mapWorld) randomChain() []complex128 {
	d := make([]complex128, w.params.Antennas)
	for i := range d {
		gainDB := (w.rng.Float64()*2 - 1) * w.params.HardwareSpreadDB
		gain := math.Pow(10, gainDB/20)
		phase := w.rng.Float64() * 2 * math.Pi
		d[i] = cmplx.Rect(gain, phase)
	}
	return d
}

func (w *mapWorld) node(id int) *Node { return w.nodes[id] }
func (w *mapWorld) numNodes() int     { return len(w.nodes) }
func (w *mapWorld) nextDraw() int64   { return w.rng.Int63() }
func (w *mapWorld) Epoch() uint64     { return w.epoch }

func (w *mapWorld) MeanSNR(a, b *Node) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	d := max(math.Sqrt(dx*dx+dy*dy), w.params.RefDist)
	g := w.params.RefSNRdB - 10*w.params.PathLossExp*math.Log10(d/w.params.RefDist)
	if w.params.ShadowSigmaDB != 0 {
		k := oracleKey(a, b)
		s, ok := w.shadow[k]
		if !ok {
			s = w.rng.NormFloat64() * w.params.ShadowSigmaDB
			w.shadow[k] = s
		}
		g += s
	}
	return math.Pow(10, g/10)
}

func (w *mapWorld) physFor(a, b *Node) *cmplxmat.Matrix {
	if a.ID == b.ID {
		panic("oracle: self channel requested")
	}
	k := oracleKey(a, b)
	p, ok := w.phys[k]
	if !ok {
		amp := math.Sqrt(w.MeanSNR(a, b))
		p = cmplxmat.RandomGaussian(w.rng, w.params.Antennas, w.params.Antennas).Scale(complex(amp, 0))
		w.phys[k] = p
	}
	return p
}

func (w *mapWorld) Propagation(tx, rx *Node) *cmplxmat.Matrix {
	p := w.physFor(tx, rx)
	if tx.ID < rx.ID {
		return p.Clone()
	}
	return p.T()
}

func (w *mapWorld) Channel(tx, rx *Node) *cmplxmat.Matrix {
	return chainProduct(rx.rxGain, w.Propagation(tx, rx), tx.txGain)
}

func (w *mapWorld) Redraw(a, b *Node) {
	w.epoch++
	delete(w.phys, oracleKey(a, b))
}

func (w *mapWorld) MoveNode(n *Node, x, y float64) {
	w.epoch++
	n.X, n.Y = x, y
	for k := range w.phys {
		if k.lo == n.ID || k.hi == n.ID {
			delete(w.phys, k)
		}
	}
	for k := range w.shadow {
		if k.lo == n.ID || k.hi == n.ID {
			delete(w.shadow, k)
		}
	}
}

func (w *mapWorld) Perturb(eps float64) {
	w.epoch++
	keep := math.Sqrt(1 - eps*eps)
	keys := make([]oraclePair, 0, len(w.phys))
	for k := range w.phys {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b oraclePair) int {
		if a.lo != b.lo {
			return a.lo - b.lo
		}
		return a.hi - b.hi
	})
	for _, k := range keys {
		a, b := w.nodes[k.lo], w.nodes[k.hi]
		amp := math.Sqrt(w.MeanSNR(a, b))
		wnew := cmplxmat.RandomGaussian(w.rng, w.params.Antennas, w.params.Antennas).Scale(complex(amp*eps, 0))
		w.phys[k] = w.phys[k].Scale(complex(keep, 0)).Add(wnew)
	}
}

// livePairs counts the pairs with a live propagation matrix.
func (w *World) livePairs() int {
	n := 0
	for r := range w.rows.Len() {
		if w.rows.At(r).live&physLive != 0 {
			n++
		}
	}
	return n
}

// TestPerturbInPlaceMatchesHeap pins the in-place World.Perturb against
// the map oracle's allocating version bit for bit: every pair's
// propagation and channel matrix and the world RNG stream compared after
// each of a sequence of perturbations (static, full redraw and in
// between), with a mobility move in the middle dropping and
// regenerating pairs.
func TestPerturbInPlaceMatchesHeap(t *testing.T) {
	fast, slow := NewWorld(DefaultParams(), 29), newMapWorld(DefaultParams(), 29)
	for i := 0; i < 6; i++ {
		fast.addNode(float64(i), float64(i%3))
		slow.addNode(float64(i), float64(i%3))
	}
	for round, eps := range []float64{0.3, 0, 1, 0.05, 0.3, 0.7} {
		touchAll(fast)
		touchAll(slow)
		fast.Perturb(eps)
		slow.Perturb(eps)
		if round == 3 {
			fast.MoveNode(fast.node(2), 7, 1)
			slow.MoveNode(slow.node(2), 7, 1)
		}
		if fast.livePairs() != len(slow.phys) {
			t.Fatalf("round %d: pairs %d/%d", round, fast.livePairs(), len(slow.phys))
		}
		compareWorlds(t, fast, slow, 6)
	}
}

// TestChannelMatchesChainProduct pins World.Channel, which multiplies
// through pooled scratch, bit for bit against the plain heap product
// RxChain * P * TxChain in both directions of every pair.
func TestChannelMatchesChainProduct(t *testing.T) {
	w := NewWorld(DefaultParams(), 31)
	var nodes []*Node
	for i := 0; i < 5; i++ {
		nodes = append(nodes, w.AddNode(float64(2*i), float64(i%2)))
	}
	for _, tx := range nodes {
		for _, rx := range nodes {
			if tx == rx {
				continue
			}
			got := w.Channel(tx, rx)
			want := chainProduct(rx.rxGain, w.Propagation(tx, rx), tx.txGain)
			for r := 0; r < want.Rows(); r++ {
				for c := 0; c < want.Cols(); c++ {
					x, y := got.At(r, c), want.At(r, c)
					if math.Float64bits(real(x)) != math.Float64bits(real(y)) || math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
						t.Fatalf("%v->%v entry (%d,%d): %v, heap product %v", tx, rx, r, c, x, y)
					}
				}
			}
		}
	}
}

// FuzzChannelKernel pins ChannelInto's one-pass kernel,
// cmplxmat.Matrix.DiagScaleInto, to the two-product oracle chainProduct
// (RxChain * P * TxChain through diagonal matrices) at M = 2 and 3, with
// P read in place and transposed. Every part of every entry comes from
// the input's bytes, so it can be any float64: ±0, subnormal, huge, Inf
// or NaN, and a chain gain can be zero. On finite operands whose
// oracle result is finite the two agree bit for bit. On a non-finite
// operand, or a product that overflows (which the oracle's products by
// the chains' zero entries turn into NaN across its row), the kernel's
// result must hold a non-finite entry. The oracle can stay finite on a
// non-finite operand: MulInto skips a zero gain's row, Inf and all.
func FuzzChannelKernel(f *testing.F) {
	seed := func(head byte, parts ...float64) []byte {
		out := []byte{head}
		for _, x := range parts {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return out
	}
	negZero := math.Copysign(0, -1)
	// P's entries, then r's, then t's, real and imaginary parts in turn.
	f.Add(seed(0, 0.3, -1.2, 0.7, 0.1, -0.4, 0.9, 1.1, -0.6, 1.05, 0.2, -0.8, 0.6, 0.9, -0.3, 0.5, 1.0))
	f.Add(seed(2, 0.3, -1.2, 0.7, 0.1, -0.4, 0.9, 1.1, -0.6, 1.05, 0.2, -0.8, 0.6, 0.9, -0.3, 0.5, 1.0))
	f.Add(seed(0, negZero, 0, 0, negZero, negZero, negZero, 1, -2, 1, negZero, -1, 0, negZero, 1, 2, negZero))
	f.Add(seed(2, negZero, 0, 0, negZero, negZero, negZero, 1, -2, 0, 0, -1, 0, negZero, 1, 2, negZero))
	f.Add(seed(0, math.Inf(1), 0, 1, 1, 1, math.NaN(), 1, 1, 1, 0, 1, 0, 1, 0, 1, 0))
	f.Add(seed(2, 1e300, 1e300, 1, 1, 1, 1, 1e-300, 1, 1e10, 1e10, 1, 0, 1, 0, 1e-10, 1))
	f.Add(seed(1, 0.3, -1.2, 0.7, 0.1, -0.4, 0.9, 1.1, -0.6, 0.2, negZero, 0.5, 0.5, 5e-324, 1, 1, 1, 1, 0, negZero, 2, 1, 1, 0.5, -0.5))
	f.Add(seed(3, 0.3, -1.2, 0.7, 0.1, -0.4, 0.9, 1.1, -0.6, 0.2, negZero, 0.5, 0.5, 5e-324, 1, 1, 1, 1, 0, negZero, 2, 1, 1, 0.5, -0.5))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m, transpose := 2+int(data[0]&1), data[0]&2 != 0
		data = data[1:]
		next := func() complex128 {
			var parts [2]float64
			for i := range parts {
				var b [8]byte
				data = data[copy(b[:], data):]
				parts[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
			}
			return complex(parts[0], parts[1])
		}
		p := cmplxmat.New(m, m)
		for i := range m {
			for j := range m {
				p.SetAt(i, j, next())
			}
		}
		r, tg := make([]complex128, m), make([]complex128, m)
		for i := range r {
			r[i] = next()
		}
		for i := range tg {
			tg[i] = next()
		}
		got := cmplxmat.New(m, m)
		p.DiagScaleInto(got, r, tg, transpose)
		q := p
		if transpose {
			q = p.T()
		}
		want := chainProduct(r, q, tg)
		finite := func(zs ...complex128) bool {
			for _, z := range zs {
				if math.IsInf(real(z), 0) || math.IsNaN(real(z)) || math.IsInf(imag(z), 0) || math.IsNaN(imag(z)) {
					return false
				}
			}
			return true
		}
		entries := func(h *cmplxmat.Matrix) []complex128 {
			var out []complex128
			for i := range m {
				for j := range m {
					out = append(out, h.At(i, j))
				}
			}
			return out
		}
		switch {
		case finite(entries(p)...) && finite(r...) && finite(tg...) && finite(entries(want)...):
			mustBitEqual(t, "DiagScaleInto", got, want)
		case finite(entries(got)...):
			t.Fatalf("DiagScaleInto %v finite on non-finite operands or products (chain product %v)", got, want)
		}
	})
}

// BenchmarkChannelInto times one slot's true channels at
// campus_fading's shape, warm: ChannelInto for every direction of every
// client-AP pair of three clients and four APs (24 calls, the 12
// uplink ones reading the propagation matrix transposed), every pair's
// fading drawn before the timer starts.
func BenchmarkChannelInto(b *testing.B) {
	w := NewWorld(DefaultParams(), 43)
	var aps, clients []*Node
	for i := 0; i < 4; i++ {
		aps = append(aps, w.AddNode(float64(3*i), 0))
	}
	for i := 0; i < 3; i++ {
		clients = append(clients, w.AddNode(float64(4*i), 5))
	}
	dst := cmplxmat.New(2, 2)
	slot := func() {
		for _, c := range clients {
			for _, a := range aps {
				w.ChannelInto(dst, c, a)
				w.ChannelInto(dst, a, c)
			}
		}
	}
	slot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot()
	}
}

// FuzzWorldOps runs one random sequence of world operations on World
// and on the map-based oracle: node additions, channel, propagation and
// mean-SNR lookups, redraws, moves (whose dropped rows later pairs
// reuse) and perturbations. Every returned matrix and SNR must be
// bitwise equal, and so must the next RNG draw at the end.
func FuzzWorldOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 6, 0, 9, 9, 1, 1, 2, 7, 80, 1, 0, 2})
	f.Add([]byte{1, 0, 1, 2, 0, 3, 4, 0, 5, 6, 1, 0, 2, 7, 255, 6, 2, 1, 1, 0, 0, 4, 2, 1, 5, 0, 1})
	f.Add([]byte{2, 1, 0, 2, 0, 1, 6, 1, 3, 4, 1, 2, 0, 6, 0, 8, 8, 3, 1, 0, 7, 30, 2, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		params := DefaultParams()
		if ops[0]%2 == 1 {
			params.ShadowSigmaDB = 0
		}
		seed := int64(ops[0])
		w, o := NewWorld(params, seed), newMapWorld(params, seed)
		if ops[0]%3 == 2 {
			w.reserve(5)
		}
		for i := 0; i < 3; i++ {
			w.addNode(float64(3*i), float64(i))
			o.addNode(float64(3*i), float64(i))
		}
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		ops = ops[1:]
		for len(ops) > 0 {
			op := next() % 8
			i, j := next()%w.numNodes(), next()%w.numNodes()
			if op != 0 && op != 6 && op != 7 && i == j {
				j = (i + 1) % w.numNodes()
			}
			a, b := w.node(i), w.node(j)
			oa, ob := o.node(i), o.node(j)
			switch op {
			case 0:
				if w.numNodes() < 40 {
					w.addNode(float64(i), float64(j))
					o.addNode(float64(i), float64(j))
				}
			case 1:
				mustBitEqual(t, "channel", w.Channel(a, b), o.Channel(oa, ob))
			case 2:
				h := cmplxmat.New(b.Antennas, a.Antennas)
				w.ChannelInto(h, a, b)
				mustBitEqual(t, "ChannelInto", h, o.Channel(oa, ob))
			case 3:
				mustBitEqual(t, "propagation", w.Propagation(a, b), o.Propagation(oa, ob))
			case 4:
				if x, y := w.MeanSNR(a, b), o.MeanSNR(oa, ob); math.Float64bits(x) != math.Float64bits(y) {
					t.Fatalf("MeanSNR %v vs %v", x, y)
				}
			case 5:
				w.Redraw(a, b)
				o.Redraw(oa, ob)
			case 6:
				x, y := float64(next()%16), float64(next()%16)
				w.MoveNode(a, x, y)
				o.MoveNode(oa, x, y)
			case 7:
				eps := float64(i*w.numNodes()+j) / float64(w.numNodes()*w.numNodes())
				w.Perturb(eps)
				o.Perturb(eps)
			}
		}
		if w.livePairs() != len(o.phys) {
			t.Fatalf("live pairs %d vs %d", w.livePairs(), len(o.phys))
		}
		checkPairLists(t, w)
		if w.nextDraw() != o.nextDraw() {
			t.Fatal("world RNG streams diverged")
		}
	})
}

// checkPairLists fails unless every node's pair list holds exactly the
// rows that name the node, each indexed under its key.
func checkPairLists(t *testing.T, w *World) {
	t.Helper()
	onLists := 0
	for _, n := range w.nodes {
		for r := n.pairs; r != noRow; {
			row := w.rows.At(int(r))
			lo, hi := int(row.key>>32), int(uint32(row.key))
			if lo != n.ID && hi != n.ID {
				t.Fatalf("row %d (%d, %d) on node %d's list", r, lo, hi, n.ID)
			}
			if got, ok := w.index.Get(row.key); !ok || got != r {
				t.Fatalf("listed row %d not indexed", r)
			}
			onLists++
			if lo == n.ID {
				r = row.next[0]
			} else {
				r = row.next[1]
			}
		}
	}
	if onLists != 2*w.index.Len() || w.index.Len() != w.rows.Len() {
		t.Fatalf("%d list entries for %d indexed rows of %d", onLists, w.index.Len(), w.rows.Len())
	}
}

// TestNewTestbedAllocsConstant pins flat node storage: a testbed of n
// nodes takes one chunk for the nodes and one for their hardware
// chains, so building 5000 nodes allocates no more than building 20.
// The collector is off while counting: a collection lets the runtime
// and test harness allocate on their own account.
func TestNewTestbedAllocsConstant(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	build := func(n int) float64 {
		return testing.AllocsPerRun(5, func() { NewTestbed(DefaultParams(), 1, n, 12) })
	}
	small, large := build(20), build(5000)
	if large > small || large > 8 {
		t.Fatalf("NewTestbed: %v allocations for 20 nodes, %v for 5000; want the same, at most 8", small, large)
	}
}

// TestPairKeyBounds pins the pair key's field bounds: node IDs must lie
// in [0, maxNodes) so both fit their 32-bit fields; anything else panics
// instead of aliasing another pair.
func TestPairKeyBounds(t *testing.T) {
	if got := pairKey(7, 3); got != 3<<32|7 {
		t.Fatalf("pairKey(7, 3) = %#x", got)
	}
	if got := pairKey(0, maxNodes-1); got != maxNodes-1 {
		t.Fatalf("pairKey(0, max) = %#x", got)
	}
	for _, p := range [][2]int{{-1, 2}, {0, maxNodes}, {maxNodes, maxNodes + 1}, {1 << 32, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("pairKey(%d, %d) did not panic", p[0], p[1])
				}
			}()
			pairKey(p[0], p[1])
		}()
	}
}

// TestNodeIDBound pins the bound AddNode checks each new ID against:
// only IDs in [0, maxNodes) become pair-key fields.
func TestNodeIDBound(t *testing.T) {
	if keyField(maxNodes-1) != maxNodes-1 {
		t.Fatal("largest node ID changed")
	}
	for _, id := range []int{-1, maxNodes, 1 << 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("node ID %d accepted", id)
				}
			}()
			keyField(id)
		}()
	}
}
