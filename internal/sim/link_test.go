package sim

import (
	"math"
	"reflect"
	"testing"
)

// linkCfg is a small trial with the whole SNR-aware link plane on.
func linkCfg() Config {
	cfg := Default()
	cfg.Clients = 6
	cfg.APs = 3
	cfg.Cycles = 40
	cfg.Workload = Workload{Kind: Saturated}
	cfg.Link = Link{NoiseDB: 10, ResidualCancel: true, MCS: true}
	return cfg
}

func TestLinkValidation(t *testing.T) {
	for _, bad := range []float64{-41, 61, math.Inf(1), math.NaN()} {
		cfg := Default()
		cfg.Link.NoiseDB = bad
		if _, err := Run(cfg); err == nil {
			t.Errorf("NoiseDB %v accepted", bad)
		}
	}
	cfg := Default()
	cfg.Cycles = 5
	cfg.Link.NoiseDB = -6 // raising the SNR is legal
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLinkSerialMatchesSharded(t *testing.T) {
	cfg := linkCfg()
	serial, err := RunTrials(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunTrials(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatal("link-plane sweep diverged between serial and sharded runs")
	}
	replay, err := RunTrials(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, replay) {
		t.Fatal("link-plane sweep did not replay bit for bit")
	}
}

func TestLinkAndDynamicsCompose(t *testing.T) {
	// The operating-point axis must compose with the coherence axis: the
	// MCS outage rule subsumes outageFraction under dynamics, and the
	// run stays bit-deterministic.
	cfg := linkCfg()
	cfg.Link.NoiseDB = 6
	cfg.Dynamics = Dynamics{Eps: 0.3, CoherenceCycles: 1, RetrainCycles: 8, TrainSlots: 2, Mobility: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("link+dynamics trial did not replay bit for bit")
	}
	if a.DeliveredFraction <= 0 {
		t.Fatal("nothing delivered under link+dynamics")
	}
	// Stale CSI plus a 6 dB noise floor must cost something versus the
	// same operating point on a static channel.
	static := cfg
	static.Dynamics = Dynamics{}
	s, err := Run(static)
	if err != nil {
		t.Fatal(err)
	}
	if a.SumThroughputBitsPerSlot >= s.SumThroughputBitsPerSlot {
		t.Fatalf("dynamics did not cost throughput: %v >= %v",
			a.SumThroughputBitsPerSlot, s.SumThroughputBitsPerSlot)
	}
}

func TestNoiseLowersIACThroughput(t *testing.T) {
	// Raising the noise floor must cost IAC throughput monotonically
	// across well-separated operating points (the snrsweep axis).
	var prev float64
	for i, db := range []float64{0, 12, 24} {
		cfg := linkCfg()
		cfg.Link.NoiseDB = db
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.SumThroughputBitsPerSlot >= prev {
			t.Fatalf("throughput rose from %v to %v as noise rose to %v dB",
				prev, res.SumThroughputBitsPerSlot, db)
		}
		prev = res.SumThroughputBitsPerSlot
	}
}

func TestMCSOutagesAppearAtLowSNR(t *testing.T) {
	// At a harsh operating point the discrete table must produce real
	// outages: lost/dropped packets with no channel dynamics at all.
	cfg := linkCfg()
	cfg.Link.NoiseDB = 20
	cfg.MaxRetries = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, cm := range res.PerClient {
		dropped += cm.Dropped
	}
	if dropped == 0 {
		t.Fatal("no outage losses at +20 dB noise; the MCS outage rule is dead")
	}
	if res.DeliveredFraction >= 1 {
		t.Fatal("delivered fraction 1.0 despite outages")
	}
}

func TestLegacyLinkUnaffectedByZeroValue(t *testing.T) {
	// The zero-value Link must leave the legacy model untouched: same
	// trial, with and without the field explicitly zeroed, bit for bit.
	cfg := Default()
	cfg.Cycles = 30
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Link = Link{}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("zero-value Link changed the legacy path")
	}
}
