package sim

import (
	"reflect"
	"runtime"
	"testing"

	"iaclan/internal/backend"
)

// eqWorkloads spans every workload kind, so the equivalence suite pins
// both wheel traffic planes: the timer path (CBR/Poisson/Bursty) and
// the saturated dirty-set path.
var eqWorkloads = []Workload{
	{Kind: Saturated},
	{Kind: CBR, PacketsPerSlot: 0.2},
	{Kind: Poisson, PacketsPerSlot: 0.15},
	{Kind: Bursty, PacketsPerSlot: 0.12, Duty: 0.3, MeanBurstSlots: 15},
}

// TestWheelMatchesScanAllWorkloads is the tentpole's determinism pin:
// for every workload kind, the event-driven wheel engine and the legacy
// scan engine produce bit-identical trial results and summaries, both
// serial and sharded. reflect.DeepEqual covers every per-client counter
// and the latency sketch bins, so any divergence in arrival order, RNG
// consumption, or accounting fails loudly.
func TestWheelMatchesScanAllWorkloads(t *testing.T) {
	for _, w := range eqWorkloads {
		w := w
		t.Run(string(w.Kind), func(t *testing.T) {
			t.Parallel()
			cfg := Default()
			cfg.Clients = 12
			cfg.Cycles = 60
			cfg.Trials = 4
			cfg.Workload = w

			wheelCfg, scanCfg := cfg, cfg
			scanCfg.scan = true

			serialWheel, err := RunTrials(wheelCfg, cfg.Trials, 1)
			if err != nil {
				t.Fatal(err)
			}
			serialScan, err := RunTrials(scanCfg, cfg.Trials, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serialWheel, serialScan) {
				t.Fatalf("serial wheel != serial scan:\nwheel: %+v\nscan:  %+v",
					Summarize(serialWheel), Summarize(serialScan))
			}
			shardedWheel, err := RunTrials(wheelCfg, cfg.Trials, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serialWheel, shardedWheel) {
				t.Fatalf("sharded wheel != serial wheel")
			}
			if !reflect.DeepEqual(Summarize(serialWheel), Summarize(serialScan)) {
				t.Fatalf("summaries diverge")
			}
		})
	}
}

// TestWheelMatchesScanUnderDynamics composes the wheel with the
// channel-dynamics plane (mobility, block fading, re-training airtime):
// the airtime clock jumps by training bursts, so arrival timers must
// stay exact across irregular advances.
func TestWheelMatchesScanUnderDynamics(t *testing.T) {
	cfg := Default()
	cfg.Clients = 10
	cfg.Cycles = 50
	cfg.Trials = 2
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 0.15}
	cfg.Dynamics = Dynamics{Eps: 0.2, CoherenceCycles: 4, RetrainCycles: 8, TrainSlots: 2, Mobility: true, SpeedMetersPerInterval: 0.05}

	wheelCfg, scanCfg := cfg, cfg
	scanCfg.scan = true
	wheel, err := RunTrials(wheelCfg, cfg.Trials, 2)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := RunTrials(scanCfg, cfg.Trials, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wheel, scan) {
		t.Fatalf("wheel != scan under dynamics:\nwheel: %+v\nscan:  %+v",
			Summarize(wheel), Summarize(scan))
	}
}

// TestWheelMatchesScanCampus pins the equivalence through the campus
// runner — per-cell seed streams, leakage noise, and the shared worker
// pool all on top of the wheel.
func TestWheelMatchesScanCampus(t *testing.T) {
	cfg := Default()
	cfg.Clients = 8
	cfg.Cycles = 40
	cfg.Trials = 2
	cfg.Cells = Cells{Count: 3, Leak: 0.1}

	wheelCfg, scanCfg := cfg, cfg
	scanCfg.scan = true
	wheel, err := RunCampus(wheelCfg)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := RunCampus(scanCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wheel, scan) {
		t.Fatalf("campus wheel != scan")
	}
}

// TestValidateMatchesRunners pins the satellite contract: the exported
// Config.Validate answers exactly as the entry points do, including
// error text, and a Validate-clean config runs.
func TestValidateMatchesRunners(t *testing.T) {
	bad := Default()
	bad.GroupSize = 7
	wantErr := bad.Validate()
	if wantErr == nil {
		t.Fatal("bad config validated")
	}
	if _, err := Run(bad); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("Run error %v, Validate error %v", err, wantErr)
	}
	if _, err := RunTrials(bad, 1, 1); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("RunTrials error %v, Validate error %v", err, wantErr)
	}
	if _, err := RunCampus(bad); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("RunCampus error %v, Validate error %v", err, wantErr)
	}

	// Zero-value Config validates (defaults fill it) and a tiny run works.
	var zero Config
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero-value Config invalid: %v", err)
	}

	// The per-cell MAC address space caps Clients; campuses shard instead.
	huge := Default()
	huge.Clients = maxClients + 1
	if err := huge.Validate(); err == nil {
		t.Fatal("oversized roster accepted")
	}

	// Packets must fit one wired-plane frame: a backend hub would refuse
	// larger shares, so the wired-plane byte count would not be a hub's.
	jumbo := Default()
	jumbo.PacketBytes = backend.MaxPayload
	if err := jumbo.Validate(); err != nil {
		t.Fatalf("MaxPayload-byte packets rejected: %v", err)
	}
	jumbo.PacketBytes++
	if err := jumbo.Validate(); err == nil {
		t.Fatal("packets larger than a backend frame accepted")
	}
}

// TestWorkersResolveIdentically pins the satellite contract that
// RunTrials and RunCampus resolve Config.Workers through the same
// helper: 0 means all cores, and both cap at the number of work units.
func TestWorkersResolveIdentically(t *testing.T) {
	cfg := Default()
	cfg.Clients = 4
	cfg.Cycles = 10
	cfg.Trials = 2

	sweep, err := RunSweep(cfg) // Workers 0
	if err != nil {
		t.Fatal(err)
	}
	campus, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cores := runtime.GOMAXPROCS(0)
	want := cores
	if want > cfg.Trials {
		want = cfg.Trials
	}
	if sweep.Workers != want {
		t.Fatalf("RunSweep resolved Workers=0 to %d, want min(cores=%d, trials=%d)", sweep.Workers, cores, cfg.Trials)
	}
	if campus.Campus.Workers != want {
		t.Fatalf("RunCampus resolved Workers=0 to %d, want %d (same rule as RunTrials)", campus.Campus.Workers, want)
	}

	// An explicit request passes through (still capped by work units).
	cfg.Workers = 1
	sweep, err = RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	campus, err = RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Workers != 1 || campus.Campus.Workers != 1 {
		t.Fatalf("explicit Workers=1 resolved to sweep=%d campus=%d", sweep.Workers, campus.Campus.Workers)
	}
}

// TestScaleSmoke100kClients is the -short-safe scale gate: a 10^5-client
// mostly-idle campus (5 cells x 20k clients, most never transmitting in
// the window) must construct and run a few cycles without blowing
// memory or time — the capability the event-driven core exists for.
func TestScaleSmoke100kClients(t *testing.T) {
	cfg := Default()
	cfg.Clients = 20000
	cfg.Cells = Cells{Count: 5, Leak: 0.01}
	cfg.Cycles = 3
	cfg.Trials = 1
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 0.00002}
	res, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCell) != 5 {
		t.Fatalf("got %d cells, want 5", len(res.PerCell))
	}
	var clients int
	for _, c := range res.PerCell {
		clients += len(c.PerClientThroughput)
	}
	if clients != 100000 {
		t.Fatalf("campus tracked %d clients, want 100000", clients)
	}
}
