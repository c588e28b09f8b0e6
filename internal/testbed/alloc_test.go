package testbed

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/mimo"
	"iaclan/internal/phy"
)

// fadingSlotAllocsPin is the allocation ceiling of one fading-shape slot
// plan (see TestFadingUplinkSlotAllocs and TestFadingDownlinkSlotAllocs).
// The planner runs on the trial's workspace and the cache's reusable
// scratch, the cache refreshes each pair's matrices in place and the
// world refills the propagation matrices a move frees, so a warm plan
// allocates nothing.
const fadingSlotAllocsPin = 0

// fadingSlotAllocs measures one warm slot on the campus_fading link
// shape — noise, residual cancellation and MCS, estimates pinned between
// re-training surveys — with the world aged by block
// fading and one client moved before every slot, so each slot
// re-measures its true channels, regenerates the moved client's
// propagation matrices and re-plans from scratch.
func fadingSlotAllocs(t *testing.T, clients, aps int, plan func(*phy.Workspace, *SlotCache, Scenario, *rand.Rand) error) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	world := channel.NewTestbed(channel.DefaultParams(), 1, 20, 12)
	s := PickScenario(world, clients, aps)
	s.Env = Env{NoisePower: math.Pow(10, 0.8), ResidualCancel: true, MCS: mimo.DefaultRateTable()}
	ws := phy.NewWorkspace()
	cache := NewSlotCache(s)
	cache.TrackPlannedRates(true)
	rng := rand.New(rand.NewSource(5))
	moves := 0
	slot := func() {
		world.Perturb(0.3)
		n := s.Clients[moves%len(s.Clients)]
		world.MoveNode(n, float64(moves%12), float64((moves*7)%12))
		moves++
		if err := plan(ws, cache, s, rng); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		slot()
	}
	return testing.AllocsPerRun(50, slot)
}

// TestFadingUplinkSlotAllocs pins the heap allocations of the fading
// planner's steady state on the uplink chain: a 3-client group on 4 APs
// (the chain at M=2, rotated over the four receiver orderings).
func TestFadingUplinkSlotAllocs(t *testing.T) {
	got := fadingSlotAllocs(t, 3, 4, func(ws *phy.Workspace, c *SlotCache, s Scenario, rng *rand.Rand) error {
		_, err := RunUplinkSlotWS(ws, c, s, 0, rng)
		return err
	})
	if got > fadingSlotAllocsPin {
		t.Fatalf("fading uplink slot: %v allocs, pinned at most %d", got, fadingSlotAllocsPin)
	}
}

// TestFadingDownlinkSlotAllocs is the downlink twin: the 3-AP triangle
// over its six transmitter orderings.
func TestFadingDownlinkSlotAllocs(t *testing.T) {
	got := fadingSlotAllocs(t, 3, 3, func(ws *phy.Workspace, c *SlotCache, s Scenario, rng *rand.Rand) error {
		_, err := RunDownlinkSlotWS(ws, c, s, rng)
		return err
	})
	if got > fadingSlotAllocsPin {
		t.Fatalf("fading downlink slot: %v allocs, pinned at most %d", got, fadingSlotAllocsPin)
	}
}

// TestColdPairsAllocateLogarithmically pins flat per-pair storage:
// planning uplink slots whose pairs neither the world nor the cache has
// seen grows the world's pair table and the cache's pair rows and
// matrix slab by chunks, so N new pairs cost O(log N) allocations in
// all, not a few per pair.
func TestColdPairsAllocateLogarithmically(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const groups = 512
	world := channel.NewTestbed(channel.DefaultParams(), 1, 3*groups+3, 12)
	s := PickScenario(world, 3*groups, 3)
	ws := phy.NewWorkspace()
	cache := NewSlotCache(s)
	rng := rand.New(rand.NewSource(3))
	plan := func(g int) {
		sub := Scenario{World: world, Env: s.Env, Clients: s.Clients[3*g : 3*g+3], APs: s.APs}
		if _, err := RunUplinkSlotWS(ws, cache, sub, 0, rng); err != nil {
			t.Fatal(err)
		}
	}
	plan(0) // size the planner's scratch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for g := 1; g < groups; g++ {
		plan(g)
	}
	runtime.ReadMemStats(&m1)
	pairs := 3 * 3 * (groups - 1)
	allocs := m1.Mallocs - m0.Mallocs
	t.Logf("%d allocations for %d new pairs", allocs, pairs)
	if bound := uint64(8 * bits.Len(uint(pairs))); allocs > bound {
		t.Fatalf("%d allocations planning over %d new pairs, want at most %d", allocs, pairs, bound)
	}
}
