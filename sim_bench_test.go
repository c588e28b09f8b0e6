package iaclan

import (
	"math/rand"
	"runtime"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/phy"
	"iaclan/internal/sim"
	"iaclan/internal/testbed"
)

// Benchmarks for the traffic engine's hot paths, in hub_bench_test.go's
// spirit: one number per future PR to watch. BenchmarkSimulate is the
// CI benchmark gate's headline: the whole public-API simulation loop,
// allocations reported. BenchmarkSimCFPCycle amortizes engine setup and
// the plan cache warm-up over b.N cycles — the steady-state cost of one
// beacon/CFP/CP round. The slot pair contrasts the allocating fresh-plan
// path with the memoized workspace path the engine actually runs.

func benchSimConfig() sim.Config {
	cfg := sim.Default()
	cfg.Clients = 10
	cfg.Workload = sim.Workload{Kind: sim.Poisson, PacketsPerSlot: 0.12}
	return cfg
}

// benchSimulate times b.N calls of run, each one whole simulation or
// trial sweep. One untimed warm-up call first fills the sync.Pools the
// simulator borrows its scratch from, and runtime.GC() then collects
// the warm-up's garbage, so every timed loop starts from the same
// warmed, collected heap. The collector stays on while timing, so ns/op
// includes the GC cost of what the simulation allocates.
func benchSimulate(b *testing.B, run func() error) {
	if err := run(); err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulate(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Cycles = 120
	cfg.Trials = 1
	benchSimulate(b, func() error {
		_, err := Simulate(cfg)
		return err
	})
}

// BenchmarkSimulateDynamics is BenchmarkSimulate with the channel-
// dynamics subsystem on: per-cycle block fading plus waypoint mobility
// bump the world epoch every cycle, so every epoch-keyed memo (channel
// matrices, baseline rates, group outcomes) is rebuilt per cycle and
// the 8-cycle re-training schedule re-surveys the estimates. This gates
// the cost of mid-trial cache invalidation — the cache-thrash path the
// static benchmark never touches.
func BenchmarkSimulateDynamics(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Cycles = 120
	cfg.Trials = 1
	cfg.Dynamics = sim.Dynamics{
		Eps:             0.3,
		CoherenceCycles: 1,
		RetrainCycles:   8,
		TrainSlots:      2,
		Mobility:        true,
	}
	benchSimulate(b, func() error {
		_, err := Simulate(cfg)
		return err
	})
}

// BenchmarkSimulateSNR is BenchmarkSimulate with the SNR-aware link
// plane on: a raised noise floor, residual cancellation (an extra
// true-channel product per cancelled packet per later receiver), and
// the discrete MCS path — planned-rate tracking in the slot runners,
// per-packet rung lookups, and the adapted (estimate-planned, outage-
// checked) baseline fallback. This gates the link plane's hot paths the
// static Shannon benchmark never touches.
func BenchmarkSimulateSNR(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Cycles = 120
	cfg.Trials = 1
	cfg.Link = sim.Link{NoiseDB: 8, ResidualCancel: true, MCS: true}
	benchSimulate(b, func() error {
		_, err := Simulate(cfg)
		return err
	})
}

// BenchmarkSimulateStream gates the closed-loop transport and streaming
// application plane: chunked streaming sources admitted through the AIMD
// window, MAC retries off so every loss rides the transport's RTO wheel
// back in as a retransmit, and the playback/radio-sleep accounting live
// on every delivery. This covers the beacon-clocked window updates, the
// retransmit timer wheel, and the lazy session-state advances the
// open-loop benchmarks never touch.
func BenchmarkSimulateStream(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Cycles = 120
	cfg.Trials = 1
	cfg.MaxRetries = 0
	cfg.Workload = sim.Workload{Kind: sim.Streaming, PacketsPerSlot: 0.1, ChunkSlots: 30}
	cfg.Transport = sim.Transport{Enabled: true, RTOCycles: 2}
	cfg.Link = sim.Link{NoiseDB: 8, ResidualCancel: true, MCS: true}
	benchSimulate(b, func() error {
		_, err := Simulate(cfg)
		return err
	})
}

// BenchmarkSimulateCampus gates the multi-cell campus plane: two cells
// of the default cluster shape, each slot running the N-AP uplink chain
// (4 APs engage the full M+2 successive-cancellation spread), with the
// inter-cell leakage folded into each cell's noise floor. This covers
// the campus sharding/aggregation path and the wider chain planning the
// single-cell benchmarks never touch.
func BenchmarkSimulateCampus(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Clients = 6
	cfg.APs = 4
	cfg.Cycles = 60
	cfg.Trials = 1
	cfg.Cells = sim.Cells{Count: 2, Leak: 0.15}
	benchSimulate(b, func() error {
		_, err := SimulateCampus(cfg)
		return err
	})
}

// BenchmarkSimulateCampusFading gates the fading planner: the iacperf
// campus_fading workload cut to 60 cycles and one trial per cell. Block
// fading and mobility move the world epoch every cycle, so every picker
// estimate re-plans its group — the 4-AP uplink chain's rotation ×
// attempt search, zero-forcing SVDs, determinant-polynomial roots —
// under noise, residual cancellation and MCS. allocs/op is the number
// the gate's any-alloc-increase rule guards on this path.
func BenchmarkSimulateCampusFading(b *testing.B) {
	cfg := SimConfig{
		Seed:        1,
		Workers:     2,
		PacketBytes: 1440,
		CPSlots:     2,
		MaxQueue:    64,
		Picker:      PickerBestOfTwo,
		GroupSize:   3,
		Clients:     10,
		APs:         4,
		Uplink:      true,
		Cells:       SimCells{Count: 2, Leak: 0.15},
		Workload:    SimWorkload{Kind: WorkloadPoisson, PacketsPerSlot: 0.12},
		MaxRetries:  1,
		Dynamics:    SimDynamics{Eps: 0.3, CoherenceCycles: 1, RetrainCycles: 8, TrainSlots: 2, Mobility: true},
		Link:        SimLink{NoiseDB: 8, ResidualCancel: true, MCS: true},
		Trials:      1,
		Cycles:      60,
	}
	benchSimulate(b, func() error {
		_, err := SimulateCampus(cfg)
		return err
	})
}

// BenchmarkSimulateCampusSketch gates the observability plane's cost on
// the campus path: a registry attached (so every trial flushes its
// counters and merges its latency sketch), longer trials so the
// allocation-flat claim is visible — latency accounting is sketches
// of bounded size, so allocs/op must not grow with Cycles or delivered
// packets.
func BenchmarkSimulateCampusSketch(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Clients = 6
	cfg.APs = 4
	cfg.Cycles = 120
	cfg.Trials = 1
	cfg.Cells = sim.Cells{Count: 2, Leak: 0.15}
	cfg.Obs = NewObsRegistry()
	benchSimulate(b, func() error {
		_, err := SimulateCampus(cfg)
		return err
	})
}

func BenchmarkSimCFPCycle(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Cycles = b.N
	b.ReportAllocs()
	if _, err := sim.Run(cfg); err != nil {
		b.Fatal(err)
	}
}

const benchSweepTrials = 4

func BenchmarkSimTrialSweepSerial(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Cycles = 100
	benchSimulate(b, func() error {
		_, err := sim.RunTrials(cfg, benchSweepTrials, 1)
		return err
	})
}

func BenchmarkSimTrialSweepParallel(b *testing.B) {
	cfg := benchSimConfig()
	cfg.Cycles = 100
	benchSimulate(b, func() error {
		_, err := sim.RunTrials(cfg, benchSweepTrials, 0)
		return err
	})
}

// benchSlotScenario builds a fixed 3-client/3-AP uplink scenario for the
// slot-planning pair below.
func benchSlotScenario() testbed.Scenario {
	world := channel.DefaultTestbed(31)
	return testbed.PickScenario(world, 3, 3)
}

// BenchmarkUplinkSlotFresh is the "before" shape: every slot re-derives
// channel matrices, draws fresh channel estimates, and returns
// heap-allocated results (the public one-shot API).
func BenchmarkUplinkSlotFresh(b *testing.B) {
	s := benchSlotScenario()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testbed.RunUplinkSlot(s, 0, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUplinkSlotMemoized is the "after" shape the traffic engine
// runs: a per-trial workspace plus the epoch-keyed channel/estimate memo,
// which also lends the planner its scratch, so steady-state slots do not
// touch the heap.
func BenchmarkUplinkSlotMemoized(b *testing.B) {
	s := benchSlotScenario()
	rng := rand.New(rand.NewSource(1))
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	cache := testbed.NewSlotCache(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testbed.RunUplinkSlotWS(ws, cache, s, 0, rng); err != nil {
			b.Fatal(err)
		}
	}
}
