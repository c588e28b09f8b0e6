package testbed

import (
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/mimo"
	"iaclan/internal/phy"
)

// fadingSlotAllocsPin is the allocation ceiling of one fading-shape
// uplink plan (see TestFadingUplinkSlotAllocs): 24 for the re-derived
// true channels (one matrix per client-AP pair), about 10 for the
// winning plan's clone, and the rest for the slot's channel-set views,
// rate tracking and outcome maps. The planner before the arena fast
// paths allocated 360.
const fadingSlotAllocsPin = 57

// TestFadingUplinkSlotAllocs pins the heap allocations of the fading
// planner's steady state: a warm workspace and SlotCache planning a
// 3-client group on 4 APs (the chain at M=2, rotated over the four
// receiver orderings) with noise, residual cancellation and MCS, the
// world epoch moved by block fading before every slot, as on the
// campus_fading shape. Estimates stay pinned between re-training
// surveys (manual retrain), so each slot re-derives its true channels
// and re-plans from scratch.
func TestFadingUplinkSlotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	world := channel.NewTestbed(channel.DefaultParams(), 1, 20, 12)
	s := PickScenario(world, 3, 4)
	s.Env = Env{NoisePower: math.Pow(10, 0.8), ResidualCancel: true, MCS: mimo.DefaultRateTable()}
	ws := phy.NewWorkspace()
	cache := NewSlotCache(s)
	cache.SetManualRetrain(true)
	cache.TrackPlannedRates(true)
	rng := rand.New(rand.NewSource(5))
	slot := func() {
		world.Perturb(0.3)
		if _, err := RunUplinkSlotWS(ws, cache, s, 0, rng); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		slot()
	}
	if got := testing.AllocsPerRun(50, slot); got > fadingSlotAllocsPin {
		t.Fatalf("fading uplink slot: %v allocs, pinned at most %d", got, fadingSlotAllocsPin)
	}
}
