package sim

import (
	"reflect"
	"strings"
	"testing"

	"iaclan/internal/obs"
)

// streamCfg is a small closed-loop trial: streaming workload over the
// windowed transport at a noisy MCS operating point, so retransmissions
// and rebuffers actually happen.
func streamCfg() Config {
	cfg := Default()
	cfg.Clients = 6
	cfg.APs = 3
	cfg.Cycles = 120
	cfg.MaxRetries = 0 // losses surface to the transport immediately
	cfg.Workload = Workload{Kind: Streaming, PacketsPerSlot: 0.08, ChunkSlots: 30}
	cfg.Transport = Transport{Enabled: true, RTOCycles: 2}
	cfg.Link = Link{NoiseDB: 14, ResidualCancel: true, MCS: true}
	return cfg
}

func TestTransportValidation(t *testing.T) {
	bad := []Config{
		func() Config { c := Default(); c.Transport = Transport{Window: 4}; return c }(),
		func() Config { c := Default(); c.Transport = Transport{Enabled: true, Window: -1}; return c }(),
		func() Config {
			c := Default()
			c.Transport = Transport{Enabled: true, Window: 9, MaxWindow: 4}
			return c
		}(),
		func() Config {
			c := Default()
			c.Workload = Workload{Kind: Saturated}
			c.Transport = Transport{Enabled: true}
			return c
		}(),
		func() Config {
			c := Default()
			c.Uplink = false
			c.GroupSize = 3
			c.Transport = Transport{Enabled: true, Stripes: 2}
			return c
		}(),
		func() Config { c := Default(); c.Transport = Transport{Enabled: true, Stripes: 5}; return c }(),
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad transport config %d accepted", i)
		}
	}
	ok := streamCfg()
	ok.Cycles = 5
	if _, err := Run(ok); err != nil {
		t.Fatalf("valid transport config rejected: %v", err)
	}
}

func TestTransportMatchesLegacyWhenDisabled(t *testing.T) {
	// The zero-value Transport must leave the open-loop model untouched:
	// same trial with and without the field explicitly zeroed, bit for
	// bit, on both a timed and a streaming workload.
	for _, wl := range []Workload{
		{Kind: Poisson, PacketsPerSlot: 0.1},
		{Kind: Streaming, PacketsPerSlot: 0.08},
	} {
		cfg := Default()
		cfg.Cycles = 30
		cfg.Workload = wl
		a, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Transport = Transport{}
		b, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: zero-value Transport changed the legacy path", wl.Kind)
		}
	}
}

func TestTransportSerialMatchesSharded(t *testing.T) {
	cfg := streamCfg()
	serial, err := RunTrials(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunTrials(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatal("transport+streaming sweep diverged between serial and sharded runs")
	}
	replay, err := RunTrials(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, replay) {
		t.Fatal("transport+streaming sweep did not replay bit for bit")
	}
}

func TestTransportCampusSerialMatchesSharded(t *testing.T) {
	cfg := streamCfg()
	cfg.Cycles = 60
	cfg.Trials = 3
	cfg.Cells = Cells{Count: 2, Leak: 0.1}
	serial := runCampusWorkers(t, cfg, 1)
	sharded := runCampusWorkers(t, cfg, 4)
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatal("sharded campus diverged from serial with transport+streaming on")
	}
}

func TestTransportObsDoesNotPerturb(t *testing.T) {
	cfg := streamCfg()
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewRegistry()
	cfg.Trace = newCountingTracer()
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatal("attaching Obs+Trace changed a transport+streaming trial")
	}
	// The new counters must be a faithful second view of the result.
	if got := cfg.Obs.Counter(metricTransportRetransmits).Value(); got != uint64(bare.Transport.Retransmits) {
		t.Fatalf("registry retransmits %d, result %d", got, bare.Transport.Retransmits)
	}
	if got := cfg.Obs.Counter(metricStreamRebuffers).Value(); got != uint64(bare.Stream.RebufferEvents) {
		t.Fatalf("registry rebuffers %d, result %d", got, bare.Stream.RebufferEvents)
	}
	if got := cfg.Obs.Counter(metricStreamAwakeSlots).Value(); got != uint64(bare.Stream.AwakeSlots) {
		t.Fatalf("registry awake slots %d, result %v", got, bare.Stream.AwakeSlots)
	}
}

func TestTransportRetransmitsRecoverFinalDrops(t *testing.T) {
	// At a noisy operating point with no MAC retries, the open loop
	// drops every lost packet for good; the closed loop must convert
	// most of those into delayed deliveries.
	open := streamCfg()
	open.Transport = Transport{}
	openRes, err := Run(open)
	if err != nil {
		t.Fatal(err)
	}
	closed := streamCfg()
	closedRes, err := Run(closed)
	if err != nil {
		t.Fatal(err)
	}
	if !closedRes.Transport.Enabled {
		t.Fatal("TransportStats not marked enabled")
	}
	if closedRes.Transport.Retransmits == 0 || closedRes.Transport.Timeouts == 0 {
		t.Fatalf("no retransmissions at +14 dB noise: %+v", closedRes.Transport)
	}
	if closedRes.DeliveredFraction <= openRes.DeliveredFraction {
		t.Fatalf("closed loop did not recover drops: delivered %v (closed) vs %v (open)",
			closedRes.DeliveredFraction, openRes.DeliveredFraction)
	}
	if closedRes.Transport.MeanFinalCwnd < 1 {
		t.Fatalf("mean final cwnd %v below 1", closedRes.Transport.MeanFinalCwnd)
	}
	// Transport accounting must stay coherent with the packet counters:
	// nothing is both delivered and dropped, and the drop counter only
	// counts transport-budget exhaustion now.
	var offered, delivered, dropped int
	for _, cm := range closedRes.PerClient {
		offered += cm.Offered
		delivered += cm.Delivered
		dropped += cm.Dropped
	}
	if delivered+dropped > offered {
		t.Fatalf("delivered %d + dropped %d exceed offered %d", delivered, dropped, offered)
	}
}

func TestTransportStripingRunsAndReplays(t *testing.T) {
	cfg := streamCfg()
	cfg.Transport.Stripes = 3
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("striped transport trial did not replay bit for bit")
	}
	if a.DeliveredFraction <= 0 {
		t.Fatal("nothing delivered with striping on")
	}
	// Striping changes which AP anchors each chain, so the slot plans —
	// and the results — must actually differ from the unstriped run.
	cfg.Transport.Stripes = 0
	unstriped, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, unstriped) {
		t.Fatal("3-way striping produced bit-identical results to no striping")
	}
}

func TestSummaryStringTransportLinesConditional(t *testing.T) {
	// Legacy summaries keep their five-line shape; transport+streaming
	// summaries append their lines after it.
	res, err := RunSweep(streamCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("transport+streaming summary has %d lines, want 8:\n%s", len(lines), out)
	}
}
