package sim

import (
	"reflect"
	"testing"

	"iaclan/internal/mac"
	"iaclan/internal/phy"
)

func dynCfg() Config {
	cfg := quickCfg()
	cfg.Clients = 9
	cfg.Cycles = 25
	cfg.Dynamics = Dynamics{
		Eps:             0.3,
		CoherenceCycles: 1,
		RetrainCycles:   4,
		TrainSlots:      2,
		Mobility:        true,
	}
	return cfg
}

// TestPerturbInvalidatesMidTrialCaches pins the invalidation flow the
// dynamics subsystem leans on: a Perturb between cycles must drop the
// engine's group-outcome cache, so post-perturb plans are re-derived
// against the drifted channel — while the pinned training estimates
// survive until Retrain. A retrain that moves no epoch must drop the
// group outcomes too: they derive from the estimates it replaces.
func TestPerturbInvalidatesMidTrialCaches(t *testing.T) {
	cfg := dynCfg().withDefaults()
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer phy.PutWorkspace(e.ws)

	group := []mac.ClientID{0, 1, 2}
	before := *e.outcome(group)
	if !before.ok || !before.hasPlanned {
		t.Fatalf("planned-rate tracking off under dynamics: %+v", before)
	}
	if e.outcomes.Len() != 1 {
		t.Fatalf("group cache holds %d entries", e.outcomes.Len())
	}
	tx, rx := e.scenario.Clients[0], e.scenario.APs[0]
	// The cache refreshes estimates in place: compare contents.
	hBefore := e.scenario.World.Channel(tx, rx)
	estBefore := e.chans.Estimated(tx, rx, e.rng).Clone()

	e.scenario.World.Perturb(0.6)

	if e.scenario.World.Channel(tx, rx).Sub(hBefore).MaxAbs() == 0 {
		t.Fatal("the world kept a stale channel across the perturb")
	}
	if e.chans.Estimated(tx, rx, e.rng).Sub(estBefore).MaxAbs() > 0 {
		t.Fatal("training estimates must stay pinned until Retrain")
	}
	after := *e.outcome(group)
	if e.outcomes.Len() != 1 {
		t.Fatalf("group cache not rebuilt: %d entries", e.outcomes.Len())
	}
	if before.sumRate == after.sumRate {
		t.Fatal("post-perturb plan identical to pre-perturb plan")
	}
	// The plan still derives from the pinned (now stale) estimates, so
	// the achieved rates can only have moved because evaluation ran on
	// the new true channels.
	e.chans.Retrain()
	if e.chans.Estimated(tx, rx, e.rng).Sub(estBefore).MaxAbs() == 0 {
		t.Fatal("Retrain did not refresh the survey")
	}

	t.Run("retrain only", func(t *testing.T) {
		cfg := dynCfg()
		cfg.Dynamics.CoherenceCycles, cfg.Dynamics.RetrainCycles = 2, 1
		e, err := newEngine(cfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		defer phy.PutWorkspace(e.ws)
		tr := newCountingTracer()
		e.trace = tr
		e.outcome(group)
		e.outcome(group)
		if n := tr.count(EventSlotPlanned); n != 1 {
			t.Fatalf("%d plans before the retrain, want 1 (a memo hit)", n)
		}
		epoch := e.scenario.World.Epoch()
		e.applyDynamics(1)
		if tr.count(EventRetrain) != 1 || e.scenario.World.Epoch() != epoch {
			t.Fatal("cycle 1 should retrain without moving the epoch")
		}
		e.outcome(group)
		if n := tr.count(EventSlotPlanned); n != 2 {
			t.Fatalf("%d plans after the retrain, want 2: the group plan outlived its estimates", n)
		}
	})
}

// TestDynamicsSerialMatchesSharded pins the acceptance contract: with
// dynamics enabled (block fading + mobility + re-training), a fixed
// Config replays bit for bit across runs and worker counts.
func TestDynamicsSerialMatchesSharded(t *testing.T) {
	cfg := dynCfg()
	serial, err := RunTrials(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunTrials(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatal("dynamics-enabled sweep diverged between serial and sharded runs")
	}
	replay, err := RunTrials(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, replay) {
		t.Fatal("dynamics-enabled sweep did not replay bit for bit")
	}
}

// TestDynamicsChargesTrainingAirtime pins the re-training accounting:
// the same trial with TrainSlots > 0 consumes exactly the scheduled
// extra airtime relative to free training.
func TestDynamicsChargesTrainingAirtime(t *testing.T) {
	cfg := dynCfg()
	// Saturated load keeps the CFP length constant, so the only airtime
	// difference between the runs is the training charge itself (timed
	// workloads would also shift their arrival pattern).
	cfg.Workload = Workload{Kind: Saturated}
	cfg.Dynamics.Mobility = false
	cfg.Dynamics.TrainSlots = 0
	free, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Dynamics.TrainSlots = 3
	charged, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Re-training fires at cycles 4, 8, ..., 24 of the 25-cycle run.
	rounds := (cfg.Cycles - 1) / cfg.Dynamics.RetrainCycles
	if want := free.Slots + 3*rounds; charged.Slots != want {
		t.Fatalf("airtime %d with training charged, want %d (%d free + %d rounds x 3)",
			charged.Slots, want, free.Slots, rounds)
	}
}

// TestThroughputDegradesWithInnovation is the coherence-time headline:
// at a fixed re-training period, faster channel decorrelation (larger
// eps) means staler CSI at the planners, more outage losses, and less
// delivered traffic per airtime slot.
func TestThroughputDegradesWithInnovation(t *testing.T) {
	cfg := dynCfg()
	cfg.Cycles = 50
	cfg.Workload = Workload{Kind: Saturated}
	cfg.Dynamics = Dynamics{CoherenceCycles: 1, RetrainCycles: 8, TrainSlots: 2}

	run := func(eps float64) TrialResult {
		t.Helper()
		c := cfg
		c.Dynamics.Eps = eps
		tr, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	static := run(0)
	fast := run(0.6)
	if fast.SumThroughputBitsPerSlot >= static.SumThroughputBitsPerSlot {
		t.Fatalf("throughput did not degrade with channel innovation: eps=0 %v vs eps=0.6 %v",
			static.SumThroughputBitsPerSlot, fast.SumThroughputBitsPerSlot)
	}
	if fast.DeliveredFraction >= static.DeliveredFraction {
		t.Fatalf("delivered fraction did not degrade: eps=0 %v vs eps=0.6 %v",
			static.DeliveredFraction, fast.DeliveredFraction)
	}
	var drops int
	for _, cm := range fast.PerClient {
		drops += cm.Dropped
	}
	if drops == 0 {
		t.Fatal("fast fading with stale CSI produced no outage drops")
	}
}

// TestSingleClientDownlinkDiversityPath pins the DESIGN.md slot-shape
// rule for the 1x2 path: in IAC mode a lone downlink client is served by
// the two-AP diversity construction (2 packets per slot, hence decoded-
// packet shares on the wired plane), while the GroupSize=1 baseline
// serves it at its best-AP 802.11-MIMO rate with no cancellation shares.
func TestSingleClientDownlinkDiversityPath(t *testing.T) {
	cfg := quickCfg()
	cfg.Uplink = false
	cfg.Clients = 1
	cfg.APs = 3
	cfg.Cycles = 20
	cfg.Workload = Workload{Kind: Saturated}

	iac, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := cfg
	base.GroupSize = 1
	base.Picker = PickerFIFO
	tdma, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if iac.PerClient[0].Delivered == 0 || tdma.PerClient[0].Delivered == 0 {
		t.Fatalf("lone client starved: iac %+v tdma %+v", iac.PerClient[0], tdma.PerClient[0])
	}
	// Each 2-packet diversity slot ships one decoded-packet share
	// (p-1 = 1) of PacketBytes across the wired plane; the baseline's
	// 1-packet slots ship none, so its wired plane carries only control
	// frames.
	minShareBytes := int64(iac.PerClient[0].Delivered) * int64(cfg.PacketBytes)
	if iac.BackendBytes < minShareBytes {
		t.Fatalf("IAC-mode lone downlink client skipped the diversity shape: %d backend bytes, want >= %d",
			iac.BackendBytes, minShareBytes)
	}
	if tdma.BackendBytes >= minShareBytes {
		t.Fatalf("baseline published cancellation shares: %d backend bytes", tdma.BackendBytes)
	}
}
