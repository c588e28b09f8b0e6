package sim

import (
	"runtime"
	"testing"

	"iaclan/internal/phy"
)

// benchIdleCampus measures the per-cycle cost of a mostly-idle cell:
// 10^4 clients at an offered load so sparse that roughly 1% of the
// roster transmits over a multi-thousand-cycle window — the "campus at
// night" shape where almost every client is associated but silent. The
// engine is constructed once outside the timer, so ns/op is the
// steady-state cycle cost: the quantity the event-driven core changes
// from O(clients) to O(active clients). The scan variant is the
// baseline the >=5x acceptance ratio is measured against — it pays the
// full-roster sweep every cycle regardless of activity.
func benchIdleCampus(b *testing.B, scan bool) {
	cfg := Default()
	cfg.Clients = 10000
	// ~1% of the roster transmits in any few-thousand-cycle window; the
	// rest are associated but silent.
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 1e-6}
	cfg.scan = scan
	cfg, err := cfg.prepare()
	if err != nil {
		b.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer phy.PutWorkspace(e.ws)
	// Warm up past construction transients (first-touch cache fills,
	// store materialization) so ns/op reads the steady-state cycle.
	// Construction leaves a collection in flight: finish it, then warm
	// up again, so the timed loop neither overlaps the collection nor
	// starts on the state it leaves.
	for i := 0; i < 256; i++ {
		e.cycle(i)
	}
	runtime.GC()
	for i := 256; i < 512; i++ {
		e.cycle(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.cycle(512 + i)
	}
}

func BenchmarkSimulateIdleCampus(b *testing.B)     { benchIdleCampus(b, false) }
func BenchmarkSimulateIdleCampusScan(b *testing.B) { benchIdleCampus(b, true) }

// BenchmarkSimulateIdleCampusSetup times the set-up of one
// campus_idle100k cell in host time: 25,000 clients and 3 APs, one CFP
// cycle, so ns/op is world construction, the scenario draw, generator
// and wheel arming, and aggregation, with almost no simulated traffic.
func BenchmarkSimulateIdleCampusSetup(b *testing.B) {
	cfg := Default()
	cfg.Clients, cfg.APs, cfg.Uplink = 25000, 3, true
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 4e-6}
	cfg.MaxRetries = 1
	cfg.Trials, cfg.Cycles, cfg.Workers = 1, 1, 1
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunCampus(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
