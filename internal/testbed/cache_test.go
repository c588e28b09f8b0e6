package testbed

import (
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/phy"
)

func cacheScenario(t *testing.T) Scenario {
	t.Helper()
	world := channel.DefaultTestbed(21)
	return PickScenario(world, 3, 3)
}

// TestSlotCacheChannelsAndEstimatesAreStable pins the memo contract:
// within one channel epoch, repeated lookups return the identical matrix
// (same pointer — no recomputation, no fresh noise draw).
func TestSlotCacheChannelsAndEstimatesAreStable(t *testing.T) {
	s := cacheScenario(t)
	c := NewSlotCache(s)
	rng := rand.New(rand.NewSource(5))
	tx, rx := s.Clients[0], s.APs[0]
	h1 := c.Channel(tx, rx)
	h2 := c.Channel(tx, rx)
	if h1 != h2 {
		t.Fatal("Channel recomputed within one epoch")
	}
	e1 := c.Estimated(tx, rx, rng)
	e2 := c.Estimated(tx, rx, rng)
	if e1 != e2 {
		t.Fatal("Estimated redrew noise within one epoch")
	}
	if e1.Equal(h1, 0) {
		t.Fatal("estimate should carry training noise")
	}
	r1 := c.BaselineUplinkRate(0)
	r2 := c.BaselineUplinkRate(0)
	if r1 != r2 || r1 <= 0 {
		t.Fatalf("baseline memo unstable or degenerate: %v vs %v", r1, r2)
	}
}

// TestSlotCacheInvalidatesOnEpochChange pins the invalidation rule: any
// fading mutation bumps the world epoch and the cache must refresh every
// memo (re-measured matrices, fresh estimation noise, recomputed
// baselines). Matrices are refreshed in the pair's own storage, so the
// test compares contents against snapshots taken before the move, and
// the refreshed channel against a fresh measurement of the world.
func TestSlotCacheInvalidatesOnEpochChange(t *testing.T) {
	s := cacheScenario(t)
	c := NewSlotCache(s)
	rng := rand.New(rand.NewSource(6))
	tx, rx := s.Clients[0], s.APs[0]
	h1 := c.Channel(tx, rx).Clone()
	e1 := c.Estimated(tx, rx, rng).Clone()
	r1 := c.BaselineUplinkRate(0)

	epochBefore := s.World.Epoch()
	s.World.Perturb(1) // full fading redraw
	if s.World.Epoch() == epochBefore {
		t.Fatal("Perturb did not bump the epoch")
	}

	_, missesBefore := c.Counters()
	h2 := c.Channel(tx, rx)
	if _, misses := c.Counters(); misses != missesBefore+1 {
		t.Fatal("cache answered a stale channel without re-measuring it")
	}
	if h2.Equal(h1, 0) {
		t.Fatal("cache kept a stale channel across an epoch change")
	}
	if !h2.Equal(s.World.Channel(tx, rx), 0) {
		t.Fatal("refreshed channel differs from a fresh measurement")
	}
	if c.Estimated(tx, rx, rng).Equal(e1, 0) {
		t.Fatal("cache kept a stale estimate across an epoch change")
	}
	if c.BaselineUplinkRate(0) == r1 {
		t.Fatal("cache kept a stale baseline rate across an epoch change")
	}
}

// TestSlotCacheRefreshMatchesFreshCache pins in-place refresh against
// the allocating memo it replaced: a cache that has lived through
// fading steps, a mobility move and a re-training round returns, for
// every pair, the same channel and estimate bits — and leaves the
// estimation RNG at the same position — as a brand-new cache surveying
// the same world state with an identically positioned RNG.
func TestSlotCacheRefreshMatchesFreshCache(t *testing.T) {
	s := cacheScenario(t)
	old := NewSlotCache(s)
	old.SetManualRetrain(true)
	rng := rand.New(rand.NewSource(9))
	survey := func(c *SlotCache, rng *rand.Rand) {
		for _, cl := range s.Clients {
			for _, ap := range s.APs {
				c.Estimated(cl, ap, rng)
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
			if !old.Estimated(cl, ap, rngOld).Equal(fresh.Estimated(cl, ap, rngNew), 0) {
				t.Fatalf("pair %v->%v: refreshed estimate differs from a fresh survey", cl, ap)
			}
			if !old.Channel(cl, ap).Equal(fresh.Channel(cl, ap), 0) {
				t.Fatalf("pair %v->%v: refreshed channel differs from a fresh measurement", cl, ap)
			}
		}
	}
	if rngOld.Int63() != rngNew.Int63() {
		t.Fatal("refresh drew a different number of estimation samples")
	}
}

// TestSlotCacheBaselinesMatchUncachedBaselines checks the memoized
// baseline rates agree with the uncached public helpers.
func TestSlotCacheBaselinesMatchUncachedBaselines(t *testing.T) {
	s := cacheScenario(t)
	c := NewSlotCache(s)
	for i := range s.Clients {
		if got, want := c.BaselineUplinkRate(i), BaselineUplinkRate(s, i); got != want {
			t.Fatalf("uplink baseline %d: cached %v, direct %v", i, got, want)
		}
		if got, want := c.BaselineDownlinkRate(i), BaselineDownlinkRate(s, i); got != want {
			t.Fatalf("downlink baseline %d: cached %v, direct %v", i, got, want)
		}
	}
}

// TestSlotCacheManualRetrainPinsEstimates pins the stale-CSI clock: with
// manual re-training on, estimates survive fading mutations (planners
// keep the last survey) while true channels and baselines track the
// world epoch; Retrain then forces a fresh survey of the current state.
func TestSlotCacheManualRetrainPinsEstimates(t *testing.T) {
	s := cacheScenario(t)
	c := NewSlotCache(s)
	c.SetManualRetrain(true)
	rng := rand.New(rand.NewSource(7))
	tx, rx := s.Clients[0], s.APs[0]
	h1 := c.Channel(tx, rx).Clone()
	e1 := c.Estimated(tx, rx, rng)
	e1Snap := e1.Clone()
	r1 := c.BaselineUplinkRate(0)

	s.World.Perturb(0.5)

	if c.Channel(tx, rx).Equal(h1, 0) {
		t.Fatal("true channel must track the epoch even under manual retrain")
	}
	if c.BaselineUplinkRate(0) == r1 {
		t.Fatal("baseline rate must track the epoch even under manual retrain")
	}
	if e := c.Estimated(tx, rx, rng); e != e1 || !e.Equal(e1Snap, 0) {
		t.Fatal("manual retrain must pin estimates across an epoch move")
	}

	c.Retrain()
	_, missesBefore := c.Counters()
	e2 := c.Estimated(tx, rx, rng)
	if _, misses := c.Counters(); misses != missesBefore+1 {
		t.Fatal("Retrain must drop the pinned estimates")
	}
	if e2.Equal(e1Snap, 0) {
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
