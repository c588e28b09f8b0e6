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
// leakage, the discrete MCS table), both channel paths (a one-slot
// cache, the per-slot training of RunUplinkSlot, and a trial's epoch
// cache) and 30 scenario and RNG seeds. Each run builds its world
// afresh, so the order in which a plan first measures channel pairs
// (which draws their fading from the world) is pinned too. Identically
// seeded runs must produce identical outcomes AND identical RNG streams
// afterwards; any re-ordered or extra draw in the planner's search
// would desynchronize every later slot of a trial.
//
// The oracle runs the full search: three attempts per role assignment
// for every shape and every candidate scored to the end. The planner
// runs one attempt per assignment of the draw-free triangle and prunes
// candidates that cannot win, and the test checks that both happened.
func TestBatchedSlotRunnerMatchesScalar(t *testing.T) {
	chainClients := func(m int) int { return core.UplinkChainAssignment{M: m}.NumClients() }
	shapes := []struct {
		name         string
		clients, aps int
		antennas     int
		downlink     bool
		role         int
		// attempts is the planner's solver attempts per slot: three per
		// role assignment, one for the draw-free triangle.
		attempts  int
		mustPrune bool // pruning must fire somewhere across the cases
	}{
		{"uplink-three", 2, 2, 2, false, 1, 2 * 3, true},
		{"uplink-chain-3ap", chainClients(2), 3, 2, false, 0, 6 * 3, true},
		{"uplink-chain-5ap", chainClients(2), 5, 2, false, 2, 5 * 3, true},
		{"uplink-chain-m3", chainClients(3), core.UplinkAPsNeeded(3), 3, false, 0, 6 * 3, true},
		{"uplink-chain-m4", chainClients(4), core.UplinkAPsNeeded(4), 4, false, 0, 6 * 3, true},
		{"downlink-triangle", 3, 3, 2, true, 0, 6, false},
		{"downlink-diversity", 1, 2, 2, true, 0, 2 * 3, false},
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
	const seeds = 30
	for _, sh := range shapes {
		pruned := 0
		for _, ec := range envs {
			for _, cached := range []bool{false, true} {
				name := sh.name + "/" + ec.name
				if cached {
					name += "/cached"
				}
				t.Run(name, func(t *testing.T) {
					for seed := int64(0); seed < seeds; seed++ {
						run := func(planner bool) (SlotOutcome, error, int64, planScratch) {
							s := antennaScenario(21+seed, sh.clients, sh.aps, sh.antennas)
							s.Env = ec.env
							ws := phy.GetWorkspace()
							defer phy.PutWorkspace(ws)
							var cache *SlotCache
							if cached || planner {
								cache = NewSlotCache(s)
							}
							if cached {
								cache.TrackPlannedRates(true)
							}
							rng := rand.New(rand.NewSource(91 + seed))
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
							var sc planScratch
							if planner {
								sc = cache.plan
							}
							// The post-run draw witnesses the RNG stream position;
							// the planner's outcome is a view of ws, copied out
							// before ws goes back to the pool.
							return out.detach(), err, rng.Int63(), sc
						}

						want, wantErr, wantDraw, _ := run(false)
						got, gotErr, gotDraw, sc := run(true)

						if (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("seed %d: error behavior diverged: planner=%v scalar=%v", seed, gotErr, wantErr)
						}
						if gotDraw != wantDraw {
							t.Fatalf("seed %d: RNG stream diverged: the planner drew differently than the scalar path", seed)
						}
						if sc.attempts != sh.attempts {
							t.Fatalf("seed %d: planner ran %d solver attempts, want %d", seed, sc.attempts, sh.attempts)
						}
						pruned += sc.pruned
						if wantErr != nil {
							if gotErr.Error() != wantErr.Error() {
								t.Fatalf("seed %d: error text diverged: planner=%q scalar=%q", seed, gotErr, wantErr)
							}
							continue
						}
						if got.Batched <= 0 {
							t.Fatalf("seed %d: planner reported no direction products", seed)
						}
						got.Batched = 0 // scalar reference reports none
						if math.Float64bits(got.SumRate) != math.Float64bits(want.SumRate) {
							t.Fatalf("seed %d: SumRate diverged: planner=%v scalar=%v", seed, got.SumRate, want.SumRate)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d: outcome diverged:\n planner=%+v\n scalar=%+v", seed, got, want)
						}
					}
				})
			}
		}
		t.Logf("%s: %d candidate scorings pruned in %d slots", sh.name, pruned, seeds*len(envs)*2)
		if sh.mustPrune && pruned == 0 && !t.Failed() {
			t.Errorf("%s: no candidate scoring was pruned in %d slots", sh.name, seeds*len(envs)*2)
		}
	}
}
