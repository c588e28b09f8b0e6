package sim

import (
	"reflect"
	"strings"
	"testing"
)

func campusCfg() Config {
	cfg := Default()
	cfg.Clients = 6
	cfg.APs = 4
	cfg.Cycles = 15
	cfg.Trials = 2
	// Poisson arrivals: the per-cell seed streams show up in offered
	// load and latency, not just PHY rates (saturated trials deliver the
	// same packet counts whatever the channel draws).
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 0.25}
	cfg.Cells = Cells{Count: 3, Leak: 0.2}
	return cfg
}

// heavyCampusCfg is the heaviest campus shape the determinism suite
// runs: dynamics (fading + mobility + retraining), the SNR-aware link
// plane with residual cancellation and the discrete MCS table, and
// inter-cell leakage — every subsystem whose state could conceivably
// leak between trials that share a worker's pooled workspace.
func heavyCampusCfg(kind WorkloadKind) Config {
	cfg := Default()
	cfg.Clients = 6
	cfg.APs = 4
	cfg.Cycles = 12
	cfg.Trials = 2
	cfg.Workload = Workload{Kind: kind, PacketsPerSlot: 0.25}
	cfg.Cells = Cells{Count: 3, Leak: 0.2}
	cfg.Dynamics = Dynamics{
		Eps:             0.3,
		CoherenceCycles: 2,
		RetrainCycles:   4,
		TrainSlots:      2,
		Mobility:        true,
	}
	cfg.Link = Link{NoiseDB: 8, ResidualCancel: true, MCS: true}
	return cfg
}

// runCampusWorkers runs cfg's campus on the given worker count with the
// Workers bookkeeping normalized away, so runs on different pool sizes
// compare with DeepEqual.
func runCampusWorkers(t *testing.T, cfg Config, workers int) CampusResult {
	t.Helper()
	cfg.Workers = workers
	res, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.PerCell {
		res.PerCell[i].Workers = 0
	}
	res.Campus.Workers = 0
	return res
}

// TestCampusSerialMatchesSharded pins the headline determinism claim:
// a campus sweep returns bit-identical results whether the (cell,
// trial) units run on one worker or many — for plain Poisson traffic
// and for the degenerate single-cell campus under the heavy shape. A
// workspace-reuse bug, a mis-scattered result, or any scheduling
// sensitivity shows up as a DeepEqual mismatch.
func TestCampusSerialMatchesSharded(t *testing.T) {
	singleCell := heavyCampusCfg(CBR)
	singleCell.Cells = Cells{}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"poisson", campusCfg()},
		{"single-cell", singleCell},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertSerialMatchesSharded(t, tc.cfg)
		})
	}
}

// TestCampusHeavySerialMatchesSharded runs the serial-vs-sharded
// comparison on the heavy shape for every workload kind, so a
// subsystem's state leaking between units that share a pooled
// workspace shows up whatever traffic drives the slots.
func TestCampusHeavySerialMatchesSharded(t *testing.T) {
	cases := []struct {
		name string
		kind WorkloadKind
	}{
		{"saturated", Saturated},
		{"cbr", CBR},
		{"poisson", Poisson},
		{"bursty", Bursty},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			assertSerialMatchesSharded(t, heavyCampusCfg(tc.kind))
		})
	}
}

// TestCampusHeavySingleWorkerMatchesWorkerPerUnit pins the two reuse
// extremes of the heavy Poisson campus: one worker carries a single
// workspace through every (cell, trial) unit in turn, while one worker
// per unit gives each unit its own. Both must return the same bits.
func TestCampusHeavySingleWorkerMatchesWorkerPerUnit(t *testing.T) {
	cfg := heavyCampusCfg(Poisson)
	single := runCampusWorkers(t, cfg, 1)
	perUnit := runCampusWorkers(t, cfg, cfg.Cells.Count*cfg.Trials)
	if !reflect.DeepEqual(single, perUnit) {
		t.Fatal("single-worker heavy campus diverged from the worker-per-unit run")
	}
}

func assertSerialMatchesSharded(t *testing.T, cfg Config) {
	t.Helper()
	serial := runCampusWorkers(t, cfg, 1)
	sharded := runCampusWorkers(t, cfg, 4)
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("sharded campus diverged from serial:\n%+v\nvs\n%+v", serial, sharded)
	}
}

// TestCampusCellsAreIndependentPopulations checks each cell is its own
// world: distinct seeds produce distinct outcomes, and the campus
// aggregate sums the cells' capacity metrics.
func TestCampusCellsAreIndependentPopulations(t *testing.T) {
	cfg := campusCfg()
	res, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCell) != 3 {
		t.Fatalf("%d cells", len(res.PerCell))
	}
	if reflect.DeepEqual(res.PerCell[0], res.PerCell[1]) {
		t.Fatal("cells 0 and 1 identical; per-cell seeding broken")
	}
	var thr float64
	var delivered int
	for _, c := range res.PerCell {
		thr += c.SumThroughputBitsPerSlot
		delivered += c.DeliveredPackets
		if len(c.PerClientThroughput) != cfg.Clients {
			t.Fatalf("cell has %d clients want %d", len(c.PerClientThroughput), cfg.Clients)
		}
	}
	if diff := res.Campus.SumThroughputBitsPerSlot - thr; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("campus throughput %v != cell sum %v", res.Campus.SumThroughputBitsPerSlot, thr)
	}
	if res.Campus.DeliveredPackets != delivered {
		t.Fatalf("campus delivered %d != cell sum %d", res.Campus.DeliveredPackets, delivered)
	}
	if got, want := len(res.Campus.PerClientThroughput), 3*cfg.Clients; got != want {
		t.Fatalf("campus client population %d want %d", got, want)
	}
}

// TestCampusLeakageLowersThroughput: inter-cell leakage raises every
// cell's noise floor, so a leaky campus must carry less traffic per
// cell than an isolated one. The discrete MCS link plane is what turns
// the lower SINR into delivered-packet losses (in the continuous model
// every scheduled packet lands, just at a lower PHY rate).
func TestCampusLeakageLowersThroughput(t *testing.T) {
	iso := campusCfg()
	iso.Workload = Workload{Kind: Saturated}
	iso.Link = Link{NoiseDB: 12, MCS: true}
	iso.Cells.Leak = 0
	isolated, err := RunCampus(iso)
	if err != nil {
		t.Fatal(err)
	}
	leaky := campusCfg()
	leaky.Workload = Workload{Kind: Saturated}
	leaky.Link = Link{NoiseDB: 12, MCS: true}
	leaky.Cells.Leak = 1
	interfered, err := RunCampus(leaky)
	if err != nil {
		t.Fatal(err)
	}
	if interfered.Campus.SumThroughputBitsPerSlot >= isolated.Campus.SumThroughputBitsPerSlot {
		t.Fatalf("leakage did not cost throughput: %v vs %v",
			interfered.Campus.SumThroughputBitsPerSlot, isolated.Campus.SumThroughputBitsPerSlot)
	}
	// And an isolated campus's cell 0 is exactly the single-cell run of
	// the same seed (the degenerate path shares the code).
	single := iso
	single.Cells = Cells{}
	sres, err := RunCampus(single)
	if err != nil {
		t.Fatal(err)
	}
	one := sres.PerCell[0]
	one.Workers = isolated.PerCell[0].Workers
	if !reflect.DeepEqual(isolated.PerCell[0], one) {
		t.Fatal("cell 0 of an isolated campus differs from the single-cell run")
	}
}

// TestRunRejectsMultiCell keeps the single-trial entry points honest.
func TestRunRejectsMultiCell(t *testing.T) {
	cfg := campusCfg()
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "RunCampus") {
		t.Fatalf("Run accepted a multi-cell config (err %v)", err)
	}
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("RunSweep accepted a multi-cell config")
	}
}

func TestCellsValidation(t *testing.T) {
	cfg := campusCfg()
	cfg.Cells.Leak = 1.5
	if _, err := RunCampus(cfg); err == nil {
		t.Fatal("Leak > 1 accepted")
	}
	cfg = campusCfg()
	cfg.Cells.Count = -1
	if _, err := RunCampus(cfg); err == nil {
		t.Fatal("negative cell count accepted")
	}
}

// TestNAPChainRaisesUplinkThroughput is the engine-level DoF story: the
// same client population served by a denser AP cluster (4 APs engage
// the full M+2 chain and add role diversity) must not lose throughput
// against the 3-AP cluster, and the 3-AP IAC cluster must beat 2 APs
// (4 concurrent packets vs 3).
func TestNAPChainRaisesUplinkThroughput(t *testing.T) {
	base := Default()
	base.Clients = 6
	base.Cycles = 25
	base.Trials = 2
	base.Workload = Workload{Kind: Saturated}

	run := func(aps, group int) float64 {
		cfg := base
		cfg.APs = aps
		cfg.GroupSize = group
		s, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("%d APs: %v", aps, err)
		}
		return s.SumThroughputBitsPerSlot
	}
	thr2 := run(2, 2)
	thr3 := run(3, 3)
	thr4 := run(4, 3)
	if thr3 <= thr2 {
		t.Fatalf("3-AP chain (4 packets) did not beat 2 APs (3 packets): %v vs %v", thr3, thr2)
	}
	// The 4th AP splits the A-set decode and adds role diversity; allow
	// a small wobble but no real regression.
	if thr4 < 0.9*thr3 {
		t.Fatalf("4-AP chain regressed vs 3 APs: %v vs %v", thr4, thr3)
	}
}
