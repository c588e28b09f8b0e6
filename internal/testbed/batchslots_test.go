package testbed

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/core"
	"iaclan/internal/mimo"
	"iaclan/internal/phy"
)

// antennaScenario builds a scenario from a world with the given
// per-node antenna count, so the equivalence sweep covers chain
// constructions beyond the paper's 2-antenna testbed.
func antennaScenario(seed int64, clients, aps, antennas int) Scenario {
	p := channel.DefaultParams()
	p.Antennas = antennas
	w := channel.NewTestbed(p, seed, clients+aps+14, 12)
	return PickScenario(w, clients, aps)
}

// TestBatchedSlotRunnerMatchesScalar pins the slot planner bitwise
// against the scalar oracle (oracle_test.go) across every supported slot
// shape — uplink three, N-AP chains at M = 2..4, downlink triangle and
// diversity — crossed with the link-plane variants (residual-cancel
// leakage, the discrete MCS table) and both channel paths (fresh
// per-slot training and the epoch cache). Identically seeded runs must
// produce identical outcomes AND identical RNG streams afterwards; any
// re-ordered or extra draw in the planner's search would desynchronize
// every later slot of a trial.
func TestBatchedSlotRunnerMatchesScalar(t *testing.T) {
	chainClients := func(m int) int { return core.UplinkChainAssignment{M: m}.NumClients() }
	shapes := []struct {
		name         string
		clients, aps int
		antennas     int
		downlink     bool
		role         int
	}{
		{"uplink-three", 2, 2, 2, false, 1},
		{"uplink-chain-3ap", chainClients(2), 3, 2, false, 0},
		{"uplink-chain-5ap", chainClients(2), 5, 2, false, 2},
		{"uplink-chain-m3", chainClients(3), core.UplinkAPsNeeded(3), 3, false, 0},
		{"uplink-chain-m4", chainClients(4), core.UplinkAPsNeeded(4), 4, false, 0},
		{"downlink-triangle", 3, 3, 2, true, 0},
		{"downlink-diversity", 1, 2, 2, true, 0},
	}
	envs := []struct {
		name string
		env  Env
	}{
		{"default", Env{}},
		{"residual", Env{ResidualCancel: true}},
		{"mcs", Env{MCS: mimo.DefaultRateTable()}},
		{"mcs-residual", Env{ResidualCancel: true, MCS: mimo.DefaultRateTable()}},
	}
	for _, sh := range shapes {
		for _, ec := range envs {
			for _, cached := range []bool{false, true} {
				name := sh.name + "/" + ec.name
				if cached {
					name += "/cached"
				}
				t.Run(name, func(t *testing.T) {
					s := antennaScenario(21, sh.clients, sh.aps, sh.antennas)
					s.Env = ec.env
					seed := int64(91)

					run := func(planner bool) (SlotOutcome, error, int64) {
						ws := phy.GetWorkspace()
						defer phy.PutWorkspace(ws)
						var cache *SlotCache
						if cached {
							cache = NewSlotCache(s)
							cache.TrackPlannedRates(true)
						}
						rng := rand.New(rand.NewSource(seed))
						var out SlotOutcome
						var err error
						switch {
						case planner && sh.downlink:
							out, err = RunDownlinkSlotWS(ws, cache, s, rng)
						case planner:
							out, err = RunUplinkSlotWS(ws, cache, s, sh.role, rng)
						case sh.downlink:
							out, err = runDownlinkSlotScalarWS(ws, cache, s, rng)
						default:
							out, err = runUplinkSlotScalarWS(ws, cache, s, sh.role, rng)
						}
						// The post-run draw witnesses the RNG stream position;
						// the planner's outcome is a view of ws, copied out
						// before ws goes back to the pool.
						return out.detach(), err, rng.Int63()
					}

					want, wantErr, wantDraw := run(false)
					got, gotErr, gotDraw := run(true)

					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("error behavior diverged: planner=%v scalar=%v", gotErr, wantErr)
					}
					if gotDraw != wantDraw {
						t.Fatal("RNG stream diverged: the planner drew differently than the scalar path")
					}
					if wantErr != nil {
						if gotErr.Error() != wantErr.Error() {
							t.Fatalf("error text diverged: planner=%q scalar=%q", gotErr, wantErr)
						}
						return
					}
					if got.Batched <= 0 {
						t.Fatal("planner reported no direction products")
					}
					got.Batched = 0 // scalar reference reports none
					if math.Float64bits(got.SumRate) != math.Float64bits(want.SumRate) {
						t.Fatalf("SumRate diverged: planner=%v scalar=%v", got.SumRate, want.SumRate)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("outcome diverged:\n planner=%+v\n scalar=%+v", got, want)
					}
				})
			}
		}
	}
}
