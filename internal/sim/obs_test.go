package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"iaclan/internal/obs"
)

// obsCfg is a small campus with dynamics and retraining on, so every
// observability hook (retrain events, outage counters, cell completion)
// actually fires.
func obsCfg() Config {
	cfg := Default()
	cfg.Clients = 6
	cfg.Cycles = 20
	cfg.Trials = 2
	cfg.Cells = Cells{Count: 2, Leak: 0.1}
	cfg.Dynamics = Dynamics{Eps: 0.3, CoherenceCycles: 4, RetrainCycles: 8, TrainSlots: 2}
	cfg.Workload = Workload{Kind: Poisson, PacketsPerSlot: 0.15}
	return cfg
}

// countingTracer tallies events by kind; safe for concurrent workers.
type countingTracer struct {
	mu     sync.Mutex
	counts map[EventKind]int
}

func newCountingTracer() *countingTracer {
	return &countingTracer{counts: map[EventKind]int{}}
}

func (t *countingTracer) Trace(ev Event) {
	t.mu.Lock()
	t.counts[ev.Kind]++
	t.mu.Unlock()
}

func (t *countingTracer) count(k EventKind) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[k]
}

// TestObservabilityDoesNotPerturb is the PR's hard constraint: a run
// with a registry and tracer attached is bit-identical to a bare run,
// serial or sharded.
func TestObservabilityDoesNotPerturb(t *testing.T) {
	bare, err := RunCampus(obsCfg())
	if err != nil {
		t.Fatal(err)
	}

	cfg := obsCfg()
	cfg.Obs = obs.NewRegistry()
	cfg.Trace = newCountingTracer()
	observed, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatal("attaching Obs+Trace changed campus results")
	}

	sharded := obsCfg()
	sharded.Workers = 4
	sharded.Obs = obs.NewRegistry()
	sharded.Trace = newCountingTracer()
	shardedRes, err := RunCampus(sharded)
	if err != nil {
		t.Fatal(err)
	}
	serial := obsCfg()
	serial.Workers = 1
	serial.Obs = obs.NewRegistry()
	serialRes, err := RunCampus(serial)
	if err != nil {
		t.Fatal(err)
	}
	// Workers is bookkeeping, not physics; normalize before comparing.
	for _, r := range []*CampusResult{&bare, &observed, &serialRes, &shardedRes} {
		for i := range r.PerCell {
			r.PerCell[i].Workers = 0
		}
		r.Campus.Workers = 0
	}
	if !reflect.DeepEqual(serialRes, shardedRes) {
		t.Fatal("serial and sharded campus diverge with observability on")
	}
	if !reflect.DeepEqual(bare, shardedRes) {
		t.Fatal("observed sharded campus diverges from the bare run")
	}
}

// TestRegistryCountsMatchSummary: the counter totals a sweep publishes
// must agree exactly with the Summary the sweep returns — the registry
// is a second, independently accumulated view of the same run.
func TestRegistryCountsMatchSummary(t *testing.T) {
	cfg := obsCfg()
	cfg.Obs = obs.NewRegistry()
	tr := newCountingTracer()
	cfg.Trace = tr
	res, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := cfg.Obs.Snapshot()

	cells, trials := cfg.Cells.Count, cfg.Trials
	want := map[string]uint64{
		metricTrialsCompleted: uint64(cells * trials),
		metricCellsCompleted:  uint64(cells),
		metricCyclesCompleted: uint64(cells * trials * cfg.Cycles),
		metricOffered:         uint64(res.Campus.OfferedPackets),
		metricDelivered:       uint64(res.Campus.DeliveredPackets),
		metricDropped:         uint64(res.Campus.DroppedPackets),
		metricBufferDropped:   uint64(res.Campus.BufferDroppedPackets),
	}
	for name, w := range want {
		if got := snap.Counters[name]; got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
	if snap.Gauges[metricTrialsTotal] != float64(cells*trials) ||
		snap.Gauges[metricCellsTotal] != float64(cells) {
		t.Errorf("sweep-size gauges %v / %v", snap.Gauges[metricTrialsTotal], snap.Gauges[metricCellsTotal])
	}
	// Every cell throughput gauge is set and positive.
	for c := 0; c < cells; c++ {
		if g := snap.Gauges[cellThroughputGauge(c)]; g <= 0 {
			t.Errorf("cell %d throughput gauge %v", c, g)
		}
	}
	// The pooled latency distribution holds one sample per delivered
	// packet and matches the campus summary's sketch summary.
	lat := snap.Distributions[metricLatency]
	if lat.Count != int64(res.Campus.DeliveredPackets) {
		t.Errorf("latency distribution count %d, delivered %d", lat.Count, res.Campus.DeliveredPackets)
	}
	if lat.P95 != res.Campus.Latency.Quantile(95) {
		t.Errorf("registry p95 %v != summary p95 %v", lat.P95, res.Campus.Latency.Quantile(95))
	}
	// Retraining ran (RetrainCycles 8 inside 20 cycles) and is visible
	// in both the counter and the event stream.
	if snap.Counters[metricRetrainRounds] == 0 || snap.Counters[metricRetrainSlots] == 0 {
		t.Error("retrain counters empty despite dynamics schedule")
	}
	if snap.Counters[metricCacheMisses] == 0 || snap.Counters[metricCacheHits] == 0 {
		t.Error("slot cache counters empty")
	}
	if snap.Gauges[metricPoolGets] <= 0 || snap.Gauges[metricPoolPuts] <= 0 {
		t.Error("workspace pool gauges empty")
	}
	if tr.count(EventTrialDone) != cells*trials {
		t.Errorf("trial-done events %d, want %d", tr.count(EventTrialDone), cells*trials)
	}
	if tr.count(EventCellDone) != cells {
		t.Errorf("cell-done events %d, want %d", tr.count(EventCellDone), cells)
	}
	if tr.count(EventRetrain) == 0 || tr.count(EventSlotPlanned) == 0 || tr.count(EventSlotEvaluated) == 0 {
		t.Error("lifecycle events missing from the trace stream")
	}
}

// TestCampusHeavyObservability runs the heavy Poisson campus with and
// without a registry: observation must not perturb a bit of the result,
// and the batched slot planner must have tallied its dispatch sizes —
// one per planned slot, each carrying at least one product.
func TestCampusHeavyObservability(t *testing.T) {
	cfg := heavyCampusCfg(Poisson)
	want, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	got, err := RunCampus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("observability perturbed the heavy campus result")
	}
	d, ok := reg.Snapshot().Distributions[metricBatchProducts]
	if !ok || d.Count == 0 {
		t.Fatal("batch-products distribution is empty: the engine never tallied a batched slot")
	}
	if d.Min <= 0 {
		t.Fatalf("batch-products distribution recorded a non-positive dispatch size: min %v", d.Min)
	}
}

// TestConcurrentSnapshotWhileRunning reads registry snapshots while the
// campus workers publish — the -race job turns any unsynchronized
// access into a failure.
func TestConcurrentSnapshotWhileRunning(t *testing.T) {
	cfg := obsCfg()
	cfg.Workers = 4
	cfg.Obs = obs.NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	snaps := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = cfg.Obs.Snapshot()
				snaps++
			}
		}
	}()
	if _, err := RunCampus(cfg); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if snaps == 0 {
		t.Fatal("snapshot loop never ran")
	}
}

// TestNilTracerZeroAlloc pins the zero-overhead trace seam: with no
// tracer attached, emitting an event is a branch, never a heap
// allocation.
func TestNilTracerZeroAlloc(t *testing.T) {
	e := &engine{}
	if allocs := testing.AllocsPerRun(1000, func() {
		e.emit(Event{Kind: EventSlotEvaluated, Cycle: 3, Slot: 17, Group: 3, Value: 12.5})
	}); allocs != 0 {
		t.Fatalf("nil-tracer emit allocates %.1f per op", allocs)
	}
}

// BenchmarkTraceEmitNil measures the nil-tracer fast path; benchgate
// holds its allocs/op at zero.
func BenchmarkTraceEmitNil(b *testing.B) {
	e := &engine{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.emit(Event{Kind: EventSlotEvaluated, Cycle: i, Slot: i, Group: 3, Value: 1})
	}
}

// TestEventKindString covers the trace vocabulary used in logs.
func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EventSlotPlanned:       "slot-planned",
		EventSlotEvaluated:     "slot-evaluated",
		EventChainDecodeFailed: "chain-decode-failed",
		EventRetrain:           "retrain",
		EventTrialDone:         "trial-done",
		EventCellDone:          "cell-done",
		EventKind(0):           "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestSummaryStringFormat covers the metrics text rendering: every
// headline figure appears, in fixed order, on its documented line.
func TestSummaryStringFormat(t *testing.T) {
	cfg := quickCfg()
	s, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := s.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("Summary.String has %d lines, want 5:\n%s", len(lines), out)
	}
	for i, prefix := range []string{"trials ", "offered ", "sum throughput ", "latency mean ", "backend "} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	if !strings.Contains(lines[0], "trials 1, 30 cycles each") {
		t.Errorf("header line %q", lines[0])
	}
	if !strings.Contains(out, "p95") || !strings.Contains(out, "Jain fairness") {
		t.Errorf("summary missing headline figures:\n%s", out)
	}
}
