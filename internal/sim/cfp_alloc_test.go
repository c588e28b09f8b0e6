package sim

import (
	"runtime"
	"testing"

	"iaclan/internal/phy"
)

// warmCFPAllocsPin is the allocation ceiling of one steady-state CFP
// cycle on the campus_warm cell shape (see TestWarmCFPCycleAllocs): the
// beacon's ack map, which escapes into the Beacon, is the one
// allocation left per cycle. Before the picker, slot runner and hub
// kept reusable scratch, a cycle allocated 32 times.
const warmCFPAllocsPin = 1

// TestWarmCFPCycleAllocs pins the heap allocations of one warm
// beacon/CFP/CP cycle on a static channel with the group-plan cache
// hot: 10 Poisson clients at 0.12 pkt/slot, 4 APs, uplink 3-client
// groups, best-of-two picking, every share, loss report and ack map
// published to the hub and discarded.
func TestWarmCFPCycleAllocs(t *testing.T) {
	cfg := Default()
	cfg.APs = 4
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 0.12}
	cfg, err := cfg.prepare()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.ws = phy.GetWorkspace()
	defer phy.PutWorkspace(e.ws)
	c := 0
	cycle := func() {
		e.cycle(c)
		c++
	}
	for c < 5000 {
		cycle()
	}
	// Count mallocs directly: AllocsPerRun rounds the mean down, and
	// cycles without deliveries build no ack map, so the mean sits just
	// under 1.
	const cycles = 2000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	got := float64(m1.Mallocs-m0.Mallocs) / cycles
	t.Logf("%.3f allocs per warm CFP cycle", got)
	if got > warmCFPAllocsPin {
		t.Fatalf("warm CFP cycle: %.3f allocs, pinned at most %d", got, warmCFPAllocsPin)
	}
}
