package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/phy"
)

func cacheScenario(t *testing.T) Scenario {
	t.Helper()
	world := channel.DefaultTestbed(21)
	return PickScenario(world, 3, 3)
}

// TestSlotCacheChannelsAndEstimatesAreStable pins the survey contract:
// within one survey, repeated lookups return the identical matrix (same
// pointer — no fresh noise draw), and the baseline, a computation over
// the world, is stable while the world stands still.
func TestSlotCacheChannelsAndEstimatesAreStable(t *testing.T) {
	s := cacheScenario(t)
	c := NewSlotCache(s)
	ws := cmplxmat.NewWorkspace()
	rng := rand.New(rand.NewSource(5))
	tx, rx := s.Clients[0], s.APs[0]
	e1 := c.Estimated(ws, tx, rx, rng)
	e2 := c.Estimated(ws, tx, rx, rng)
	if e1 != e2 {
		t.Fatal("Estimated redrew noise within one survey")
	}
	if e1.Sub(s.World.Channel(tx, rx)).MaxAbs() == 0 {
		t.Fatal("estimate should carry training noise")
	}
	r1 := BaselineRateWS(ws, s, 0, true)
	r2 := BaselineRateWS(ws, s, 0, true)
	if r1 != r2 || r1 <= 0 {
		t.Fatalf("baseline unstable or degenerate: %v vs %v", r1, r2)
	}
}

// TestSlotCacheInvalidatesOnEpochChange pins the invalidation rule: a
// fading mutation bumps the world epoch and moves Generation, and the
// baseline sees the new channel at once. The survey stands until a
// Retrain: without one, Estimated returns the same bits and draws
// nothing; after it, the estimate is channel.NoisyEstimate of the
// current World.Channel drawn from a twin RNG.
func TestSlotCacheInvalidatesOnEpochChange(t *testing.T) {
	s := cacheScenario(t)
	c := NewSlotCache(s)
	ws := cmplxmat.NewWorkspace()
	rng, twin := rand.New(rand.NewSource(6)), rand.New(rand.NewSource(6))
	tx, rx := s.Clients[0], s.APs[0]
	sigma := s.Env.EstimationSigma()
	e1 := c.Estimated(ws, tx, rx, rng).Clone()
	mustSameBits(t, "first survey", e1, channel.NoisyEstimate(s.World.Channel(tx, rx), sigma, twin))
	r1 := BaselineRateWS(ws, s, 0, true)
	gen := c.Generation()

	epochBefore := s.World.Epoch()
	s.World.Perturb(1) // full fading redraw
	if s.World.Epoch() == epochBefore {
		t.Fatal("Perturb did not bump the epoch")
	}
	if c.Generation() == gen {
		t.Fatal("Generation did not move with the epoch")
	}
	if BaselineRateWS(ws, s, 0, true) == r1 {
		t.Fatal("baseline rate did not see the epoch change")
	}

	mustSameBits(t, "after perturb", c.Estimated(ws, tx, rx, rng), e1)
	if rng.Int63() != twin.Int63() {
		t.Fatal("an estimate drew noise without a Retrain")
	}
	gen = c.Generation()
	c.Retrain()
	if c.Generation() == gen {
		t.Fatal("Generation did not move on Retrain")
	}
	mustSameBits(t, "after retrain", c.Estimated(ws, tx, rx, rng), channel.NoisyEstimate(s.World.Channel(tx, rx), sigma, twin))
	if rng.Int63() != twin.Int63() {
		t.Fatal("the cache and the twin RNG stand at different positions")
	}
}

// TestSlotCacheRefreshMatchesFreshCache pins in-place refresh against
// the allocating memo it replaced: a cache that has lived through
// fading steps, a mobility move and a re-training round returns, for
// every pair, the same estimate bits — and leaves the
// estimation RNG at the same position — as a brand-new cache surveying
// the same world state with an identically positioned RNG.
func TestSlotCacheRefreshMatchesFreshCache(t *testing.T) {
	s := cacheScenario(t)
	old := NewSlotCache(s)
	ws := cmplxmat.NewWorkspace()
	rng := rand.New(rand.NewSource(9))
	survey := func(c *SlotCache, rng *rand.Rand) {
		for _, cl := range s.Clients {
			for _, ap := range s.APs {
				c.Estimated(ws, cl, ap, rng)
			}
		}
	}
	survey(old, rng)
	for step := 0; step < 4; step++ {
		s.World.Perturb(0.3)
		if step == 1 {
			s.World.MoveNode(s.Clients[1], 3, 4)
		}
		survey(old, rng) // estimates stay pinned: no draws
	}
	old.Retrain()
	seed := rng.Int63()
	rngOld, rngNew := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	fresh := NewSlotCache(s)
	for _, cl := range s.Clients {
		for _, ap := range s.APs {
			if old.Estimated(ws, cl, ap, rngOld).Sub(fresh.Estimated(ws, cl, ap, rngNew)).MaxAbs() > 0 {
				t.Fatalf("pair %v->%v: refreshed estimate differs from a fresh survey", cl, ap)
			}
		}
	}
	if rngOld.Int63() != rngNew.Int63() {
		t.Fatal("refresh drew a different number of estimation samples")
	}
}

// TestEstimateSurveysCurrentChannel pins the estimate's survey against
// the world, the one home of the true channel: a Perturb or a MoveNode
// leaves every estimate pinned (same bits, no draw), and the Retrain
// after each one re-surveys, so that every pair's estimate, in both
// directions, is bit for bit channel.NoisyEstimate of World.Channel
// drawn from a twin RNG, and both RNGs end at the same position. A
// Retrain with no change to the world re-surveys too. Estimates refresh
// only on Retrain, so the one subtest is the manual-retrain mode.
func TestEstimateSurveysCurrentChannel(t *testing.T) {
	t.Run("manual=true", func(t *testing.T) {
		s := cacheScenario(t)
		c := NewSlotCache(s)
		ws := cmplxmat.NewWorkspace()
		rng, twin := rand.New(rand.NewSource(12)), rand.New(rand.NewSource(12))
		var snap []*cmplxmat.Matrix
		survey := func(step string) {
			t.Helper()
			snap = snap[:0]
			for _, cl := range s.Clients {
				for _, ap := range s.APs {
					for _, p := range [][2]*channel.Node{{cl, ap}, {ap, cl}} {
						got := c.Estimated(ws, p[0], p[1], rng)
						want := channel.NoisyEstimate(s.World.Channel(p[0], p[1]), s.Env.EstimationSigma(), twin)
						mustSameBits(t, fmt.Sprintf("%s: %v->%v", step, p[0], p[1]), got, want)
						snap = append(snap, got.Clone())
					}
				}
			}
			if rng.Int63() != twin.Int63() {
				t.Fatalf("%s: the cache and the twin RNG stand at different positions", step)
			}
		}
		pinned := func(step string) {
			t.Helper()
			i := 0
			for _, cl := range s.Clients {
				for _, ap := range s.APs {
					for _, p := range [][2]*channel.Node{{cl, ap}, {ap, cl}} {
						mustSameBits(t, fmt.Sprintf("%s (pinned): %v->%v", step, p[0], p[1]), c.Estimated(ws, p[0], p[1], rng), snap[i])
						i++
					}
				}
			}
			if rng.Int63() != twin.Int63() {
				t.Fatalf("%s: a pinned estimate drew noise", step)
			}
		}
		survey("first survey")
		for _, step := range []struct {
			name string
			do   func()
		}{
			{"perturb", func() { s.World.Perturb(0.4) }},
			{"move", func() { s.World.MoveNode(s.Clients[1], 2, 5) }},
			{"retrain", func() {}},
		} {
			step.do()
			pinned(step.name)
			c.Retrain()
			survey(step.name)
		}
	})
}

// mustSameBits fails unless x and y have one shape and bit-identical
// entries.
func mustSameBits(t *testing.T, what string, x, y *cmplxmat.Matrix) {
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

// TestSlotCacheBaselinesMatchUncachedBaselines pins the one baseline
// kernel against the public heap functions, bit for bit: BaselineRateWS
// runs on a warm workspace left dirty by earlier work, with part of its
// arena still held, and must not read what it finds there.
func TestSlotCacheBaselinesMatchUncachedBaselines(t *testing.T) {
	s := cacheScenario(t)
	ws := cmplxmat.NewWorkspace()
	dirty := func() {
		mark := ws.Mark()
		for range 64 {
			m := ws.Matrix(2, 3)
			for r := range m.Rows() {
				for c := range m.Cols() {
					m.SetAt(r, c, complex(math.NaN(), math.Inf(1)))
				}
			}
			ws.Floats(5)[0] = math.NaN()
			ws.MatrixPtrs(3)[0] = m
		}
		ws.Release(mark)
		ws.Matrix(2, 2).SetAt(0, 0, 7) // held across the calls below
	}
	dirty()
	for i := range s.Clients {
		for _, uplink := range []bool{true, false} {
			want := BaselineDownlinkRate(s, i)
			if uplink {
				want = BaselineUplinkRate(s, i)
			}
			if got := BaselineRateWS(ws, s, i, uplink); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("client %d uplink=%v: kernel %v, heap %v", i, uplink, got, want)
			}
			dirty()
		}
	}
}

// TestSlotCacheManualRetrainPinsEstimates pins the stale-CSI clock:
// estimates survive fading mutations (planners keep the last survey)
// while baselines track the world; Retrain then forces a fresh survey
// of the current state.
func TestSlotCacheManualRetrainPinsEstimates(t *testing.T) {
	s := cacheScenario(t)
	c := NewSlotCache(s)
	ws := cmplxmat.NewWorkspace()
	rng := rand.New(rand.NewSource(7))
	tx, rx := s.Clients[0], s.APs[0]
	e1 := c.Estimated(ws, tx, rx, rng)
	e1Snap := e1.Clone()
	r1 := BaselineRateWS(ws, s, 0, true)

	s.World.Perturb(0.5)

	if BaselineRateWS(ws, s, 0, true) == r1 {
		t.Fatal("baseline rate must track the world while estimates stand")
	}
	if e := c.Estimated(ws, tx, rx, rng); e != e1 || e.Sub(e1Snap).MaxAbs() > 0 {
		t.Fatal("estimates must stay pinned across an epoch move")
	}

	c.Retrain()
	_, missesBefore := c.Counters()
	e2 := c.Estimated(ws, tx, rx, rng)
	if _, misses := c.Counters(); misses != missesBefore+1 {
		t.Fatal("Retrain must drop the pinned estimates")
	}
	if e2.Sub(e1Snap).MaxAbs() == 0 {
		t.Fatal("post-retrain estimate should survey the perturbed channel")
	}
}

// TestSlotOutcomePlannedRatesTracked pins the planned-rate contract: the
// slot runners report the planner's estimate-derived rates only when
// asked, and on a static channel planned and achieved rates are close
// (estimation noise only, no staleness).
func TestSlotOutcomePlannedRatesTracked(t *testing.T) {
	s := cacheScenario(t)
	c := NewSlotCache(s)
	rng := rand.New(rand.NewSource(8))
	outOff, err := RunUplinkSlot(s, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if outOff.PlannedPerClient != nil {
		t.Fatal("planned rates reported without tracking")
	}
	c.TrackPlannedRates(true)
	outOn, err := RunUplinkSlotWS(phyWorkspace(t), c, s, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(outOn.PlannedPerClient) != len(outOn.PerClient) {
		t.Fatalf("planned rates cover %d clients, achieved cover %d",
			len(outOn.PlannedPerClient), len(outOn.PerClient))
	}
	for client, achieved := range outOn.PerClient {
		planned := outOn.PlannedPerClient[client]
		if planned <= 0 {
			t.Fatalf("client %d planned rate %v", client, planned)
		}
		// Fresh CSI: achieved within a factor of the plan either way.
		if achieved < 0.5*planned || achieved > 2*planned {
			t.Fatalf("client %d achieved %v vs planned %v on a static channel", client, achieved, planned)
		}
	}
}

// phyWorkspace borrows a pooled workspace for the test's lifetime.
func phyWorkspace(t *testing.T) *phy.Workspace {
	t.Helper()
	ws := phy.GetWorkspace()
	t.Cleanup(func() { phy.PutWorkspace(ws) })
	return ws
}

// TestPairIDBounds pins the directed pair key: tx and rx take one
// 32-bit field each, so (a, b) and (b, a) differ, and an ID outside
// the fields panics instead of aliasing another pair's row.
func TestPairIDBounds(t *testing.T) {
	if pairID(1, 2) == pairID(2, 1) {
		t.Fatal("directions share a key")
	}
	if got := pairID(math.MaxUint32, 0); got != math.MaxUint32<<32 {
		t.Fatalf("pairID(max, 0) = %#x", got)
	}
	for _, p := range [][2]int{{-1, 0}, {0, -1}, {math.MaxUint32 + 1, 0}, {0, math.MaxUint32 + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("pairID(%d, %d) did not panic", p[0], p[1])
				}
			}()
			pairID(p[0], p[1])
		}()
	}
}
