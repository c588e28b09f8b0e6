package channel

import (
	"math"
	"math/rand"
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
	if !h1.Equal(h2, 0) {
		t.Fatal("channel must be stable between calls")
	}
	// Two worlds with the same seed generate identical channels.
	w2 := NewWorld(DefaultParams(), 1)
	a2 := w2.AddNode(0, 0)
	b2 := w2.AddNode(5, 0)
	if !w2.Channel(a2, b2).Equal(h1, 0) {
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
	if up.T().Equal(down, 1e-12) {
		t.Fatal("hardware chains should break naive transpose reciprocity")
	}
	pUp := w.Propagation(a, b)
	pDown := w.Propagation(b, a)
	if !pUp.T().Equal(pDown, 1e-12) {
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
	if h1.Equal(h2, 1e-9) {
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
	if w.Channel(a, b).Equal(hab, 1e-9) {
		t.Fatal("moving a should invalidate a-b")
	}
	if !w.Channel(c, b).Equal(hcb, 0) {
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
	if !NoisyEstimate(h, 0, rng).Equal(h, 0) {
		t.Fatal("sigma=0 must be exact")
	}
	est := NoisyEstimate(h, 0.1, rng)
	if est.Equal(h, 1e-12) {
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
	if h1.Equal(h2, 1e-9) {
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
// The moves case interleaves MoveNode with Perturb. A move frees the
// moved node's propagation matrices and the next generation refills
// them; the twin world discards its spare pool after every move, so it
// always generates into fresh matrices. Identical channels and RNG
// positions show that reused storage never changes a draw, and that
// Perturb never ages a spare matrix (that would draw extra numbers).
func TestPerturbDeterministic(t *testing.T) {
	build := func() *World {
		w := NewTestbed(DefaultParams(), 42, 10, 12)
		touchAll(w)
		return w
	}
	compare := func(t *testing.T, a, b *World) {
		t.Helper()
		na, nb := a.Nodes(), b.Nodes()
		for i := range na {
			for j := i + 1; j < len(na); j++ {
				ha := a.Channel(na[i], na[j])
				hb := b.Channel(nb[i], nb[j])
				if !ha.Equal(hb, 0) {
					t.Fatalf("pair (%d,%d) diverged after identical Perturb sequences", i, j)
				}
			}
		}
		if a.rng.Int63() != b.rng.Int63() {
			t.Fatal("world RNG streams diverged")
		}
	}
	t.Run("static", func(t *testing.T) {
		a, b := build(), build()
		for step := 0; step < 3; step++ {
			a.Perturb(0.3)
			b.Perturb(0.3)
		}
		compare(t, a, b)
	})
	t.Run("moves", func(t *testing.T) {
		reused, fresh := build(), build()
		for step := 0; step < 6; step++ {
			for _, w := range []*World{reused, fresh} {
				n := w.Nodes()[step%3]
				w.MoveNode(n, float64(step), float64(2*step%12))
				fresh.spare = nil
				if step%2 == 0 {
					// Age before regenerating: the moved node's freed
					// matrices sit in the spare pool during Perturb.
					w.Perturb(0.3)
					touchAll(w)
				} else {
					touchAll(w)
					w.Perturb(0.3)
				}
			}
			if len(reused.spare) != 0 {
				t.Fatalf("step %d: %d spare matrices left after regenerating every pair", step, len(reused.spare))
			}
		}
		compare(t, reused, fresh)
	})
}

// touchAll generates every node pair's channel in a fixed order.
func touchAll(w *World) {
	nodes := w.Nodes()
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			w.Channel(nodes[i], nodes[j])
		}
	}
}

// perturbHeapOracle is World.Perturb as it was before aging in place:
// each pair's matrix is replaced by a freshly allocated
// keep*P + amp*eps*W.
func perturbHeapOracle(w *World, eps float64) {
	w.epoch++
	keep := math.Sqrt(1 - eps*eps)
	keys := make([]pairKey, 0, len(w.phys))
	for k := range w.phys {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b pairKey) int {
		if a.lo != b.lo {
			return a.lo - b.lo
		}
		return a.hi - b.hi
	})
	for _, k := range keys {
		a, b := w.node(k.lo), w.node(k.hi)
		amp := math.Sqrt(w.MeanSNR(a, b))
		wnew := cmplxmat.RandomGaussian(w.rng, w.params.Antennas, w.params.Antennas).Scale(complex(amp*eps, 0))
		w.phys[k] = w.phys[k].Scale(complex(keep, 0)).Add(wnew)
	}
}

// TestPerturbInPlaceMatchesHeap pins the in-place World.Perturb against
// the allocating version bit for bit: two twin worlds, every pair's
// propagation matrix and the world RNG stream compared after each of a
// sequence of perturbations (static, full redraw and in between), with
// a mobility move in the middle dropping and regenerating pairs.
func TestPerturbInPlaceMatchesHeap(t *testing.T) {
	build := func() (*World, []*Node) {
		w := NewWorld(DefaultParams(), 29)
		var nodes []*Node
		for i := 0; i < 6; i++ {
			nodes = append(nodes, w.AddNode(float64(i), float64(i%3)))
		}
		return w, nodes
	}
	fast, fn := build()
	slow, sn := build()
	touch := func(w *World, nodes []*Node) {
		for i := range nodes {
			for j := range nodes {
				if i != j {
					w.Channel(nodes[i], nodes[j])
				}
			}
		}
	}
	for round, eps := range []float64{0.3, 0, 1, 0.05, 0.3, 0.7} {
		touch(fast, fn)
		touch(slow, sn)
		fast.Perturb(eps)
		perturbHeapOracle(slow, eps)
		if round == 3 {
			fast.MoveNode(fn[2], 7, 1)
			slow.MoveNode(sn[2], 7, 1)
		}
		if fast.Epoch() != slow.Epoch() || len(fast.phys) != len(slow.phys) {
			t.Fatalf("round %d: epoch %d/%d, pairs %d/%d", round, fast.Epoch(), slow.Epoch(), len(fast.phys), len(slow.phys))
		}
		for i := range fn {
			for j := range fn {
				if i == j {
					continue
				}
				a, b := fast.Propagation(fn[i], fn[j]), slow.Propagation(sn[i], sn[j])
				for r := 0; r < a.Rows(); r++ {
					for c := 0; c < a.Cols(); c++ {
						x, y := a.At(r, c), b.At(r, c)
						if math.Float64bits(real(x)) != math.Float64bits(real(y)) || math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
							t.Fatalf("round %d eps %v: pair %d->%d entry (%d,%d) %v vs %v", round, eps, i, j, r, c, x, y)
						}
					}
				}
			}
		}
		if fast.rng.Int63() != slow.rng.Int63() {
			t.Fatalf("round %d: world RNG streams diverged", round)
		}
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
			want := rx.rxChain.Mul(w.Propagation(tx, rx)).Mul(tx.txChain)
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
