package sim

import (
	"reflect"
	"testing"

	"iaclan/internal/mac"
)

// quickCfg is a scaled-down run that still exercises grouping, losses,
// the wired plane, and latency accounting.
func quickCfg() Config {
	cfg := Default()
	cfg.Clients = 10
	cfg.Cycles = 30
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 0.15}
	return cfg
}

func TestDeterministicReplay(t *testing.T) {
	a, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different trials:\n%+v\nvs\n%+v", a, b)
	}
	cfg := quickCfg()
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical trials (suspicious)")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 20
	serial, err := RunTrials(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunTrials(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel trial runner diverged from serial results")
	}
	// Trials must actually differ (each has its own seed).
	if reflect.DeepEqual(serial[0], serial[1]) {
		t.Fatal("trials 0 and 1 identical; per-trial seeding broken")
	}
	s := Summarize(serial)
	if s.Trials != 4 || len(s.PerClientThroughput) != cfg.Clients {
		t.Fatalf("summary shape wrong: %+v", s)
	}
	if !reflect.DeepEqual(s, Summarize(parallel)) {
		t.Fatal("summaries diverged")
	}
}

func checkSane(t *testing.T, tr TrialResult, cfg Config) {
	t.Helper()
	if tr.Slots < cfg.Cycles*cfg.CPSlots {
		t.Fatalf("airtime %d below the contention-period floor", tr.Slots)
	}
	if tr.SumThroughputBitsPerSlot <= 0 {
		t.Fatal("no throughput")
	}
	if tr.JainFairness <= 0 || tr.JainFairness > 1+1e-12 {
		t.Fatalf("Jain index %v out of range", tr.JainFairness)
	}
	if tr.MeanLatencySlots <= 0 || tr.P95LatencySlots < tr.MeanLatencySlots/2 {
		t.Fatalf("implausible latency: mean %v p95 %v", tr.MeanLatencySlots, tr.P95LatencySlots)
	}
	if tr.DeliveredFraction <= 0 || tr.DeliveredFraction > 1 {
		t.Fatalf("delivered fraction %v", tr.DeliveredFraction)
	}
	if tr.BackendBytes <= 0 {
		t.Fatal("no wired-plane traffic despite concurrent slots")
	}
	// IAC's headline property: the backend carries on the order of the
	// wireless payload, not orders of magnitude more (Section 2a). With
	// p<=4 packets per slot, p-1 shares plus control frames stay below
	// one byte per wireless bit.
	if tr.BackendBytesPerWirelessBit <= 0 || tr.BackendBytesPerWirelessBit > 1 {
		t.Fatalf("backend ratio %v bytes/bit", tr.BackendBytesPerWirelessBit)
	}
	var delivered int
	for _, cm := range tr.PerClient {
		if cm.Delivered+cm.Dropped+cm.BufferDropped > cm.Offered {
			t.Fatalf("client accounting leak: %+v", cm)
		}
		delivered += cm.Delivered
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestPoissonAndBurstyWorkloads(t *testing.T) {
	for _, w := range []Workload{
		{Kind: Poisson, PacketsPerSlot: 0.15},
		{Kind: Bursty, PacketsPerSlot: 0.15, Duty: 0.3, MeanBurstSlots: 15},
	} {
		cfg := quickCfg()
		cfg.Workload = w
		tr, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Kind, err)
		}
		checkSane(t, tr, cfg)
	}
}

func TestSaturatedIACOutperformsTDMA(t *testing.T) {
	cfg := quickCfg()
	cfg.Clients = 6
	cfg.Cycles = 25
	cfg.Workload = Workload{Kind: Saturated}

	iac, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSane(t, iac, cfg)

	tdma := cfg
	tdma.GroupSize = 1
	tdma.Picker = PickerFIFO
	base, err := Run(tdma)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent 3-packet slots must beat one-packet TDMA slots under
	// saturation (the paper's ~1.5x medium-gain floor, with margin).
	if iac.SumThroughputBitsPerSlot < 1.2*base.SumThroughputBitsPerSlot {
		t.Fatalf("IAC %v vs TDMA %v bits/slot: gain below 1.2x",
			iac.SumThroughputBitsPerSlot, base.SumThroughputBitsPerSlot)
	}
	// TDMA slots carry a single packet: no cancellation shares, so the
	// wired plane sees only control traffic.
	if base.BackendBytesPerWirelessBit >= iac.BackendBytesPerWirelessBit {
		t.Fatal("TDMA should load the backend less than IAC")
	}
}

func TestDownlinkDirectionRuns(t *testing.T) {
	cfg := quickCfg()
	cfg.Uplink = false
	cfg.Clients = 7
	cfg.Cycles = 20
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSane(t, tr, cfg)
}

func TestBufferCapDropsExcessLoad(t *testing.T) {
	cfg := quickCfg()
	cfg.Cycles = 40
	cfg.MaxQueue = 2
	cfg.Workload = Workload{Kind: CBR, PacketsPerSlot: 2} // far beyond capacity
	tr, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bufDrops int
	for _, cm := range tr.PerClient {
		bufDrops += cm.BufferDropped
	}
	if bufDrops == 0 {
		t.Fatal("overload with MaxQueue=2 should drop packets at the clients")
	}
	if tr.DeliveredFraction >= 1 {
		t.Fatal("overload cannot deliver everything")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.GroupSize = 4 },
		func(c *Config) { c.GroupSize = 3; c.APs = 2 },
		func(c *Config) { c.Uplink = false; c.GroupSize = 2 },
		func(c *Config) { c.Picker = "psychic" },
		func(c *Config) { c.CPSlots = -1 },
		func(c *Config) { c.Workload = Workload{Kind: "nope"} },
	}
	for i, mutate := range bad {
		cfg := quickCfg()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestPlanKeyBounds pins the packed plan-cache key: non-head members
// commute, the head and the stripe do not, every field holds the
// largest ClientID without touching its neighbour, and a group or
// stripe outside the packing's range panics instead of aliasing another
// group's plan.
func TestPlanKeyBounds(t *testing.T) {
	const top = mac.ClientID(1<<16 - 1)
	if planKey([]mac.ClientID{5, 9, 2}, 0) != planKey([]mac.ClientID{5, 2, 9}, 0) {
		t.Fatal("non-head members must commute")
	}
	keys := map[uint64][]mac.ClientID{}
	for _, g := range [][]mac.ClientID{
		{0}, {1}, {0, 1}, {1, 0}, {0, 1, 2}, {2, 0, 1}, {top}, {top, top - 1},
		{top, top - 1, top - 2}, {top - 2, top - 1, top}, {0, top}, {top, 0},
	} {
		for _, stripe := range []int8{0, 1, 127} {
			k := planKey(g, stripe)
			if prev, ok := keys[k]; ok {
				t.Fatalf("groups %v and %v (stripe %d) share key %#x", prev, g, stripe, k)
			}
			keys[k] = g
		}
	}
	for _, bad := range []struct {
		group  []mac.ClientID
		stripe int8
	}{{nil, 0}, {[]mac.ClientID{1, 2, 3, 4}, 0}, {[]mac.ClientID{1}, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("planKey(%v, %d) did not panic", bad.group, bad.stripe)
				}
			}()
			planKey(bad.group, bad.stripe)
		}()
	}
}
