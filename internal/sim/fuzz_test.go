package sim

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestValidateRejectsNonFinite pins the float-knob admission rules:
// NaN and ±Inf are rejected on every Workload and Dynamics float, and
// the arrival rate a generator runs at is capped by maxArrivalRate. A
// CBR source at +Inf packets per slot used to pass and hang Run in its
// zero-gap arrival loop; every case must now return an error naming
// its field, from Validate and from Run alike.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		set   func(*Config)
	}{
		{"PacketsPerSlot", func(c *Config) { c.Workload = Workload{Kind: CBR, PacketsPerSlot: inf} }},
		{"PacketsPerSlot", func(c *Config) { c.Workload = Workload{Kind: CBR, PacketsPerSlot: 1e6} }},
		{"PacketsPerSlot", func(c *Config) { c.Workload = Workload{Kind: Poisson, PacketsPerSlot: nan} }},
		{"PacketsPerSlot", func(c *Config) { c.Workload = Workload{Kind: Poisson, PacketsPerSlot: 2 * maxArrivalRate} }},
		{"PacketsPerSlot", func(c *Config) { c.Workload = Workload{Kind: Saturated, PacketsPerSlot: -inf} }},
		{"MeanBurstSlots", func(c *Config) { c.Workload = Workload{Kind: Bursty, PacketsPerSlot: 0.1, MeanBurstSlots: nan} }},
		{"MeanBurstSlots", func(c *Config) { c.Workload = Workload{Kind: Bursty, PacketsPerSlot: 0.1, MeanBurstSlots: inf} }},
		{"Duty", func(c *Config) { c.Workload = Workload{Kind: Bursty, PacketsPerSlot: 0.1, Duty: nan} }},
		{"Duty", func(c *Config) { c.Workload = Workload{Kind: Bursty, PacketsPerSlot: maxArrivalRate / 2, Duty: 0.1} }},
		{"ChunkSlots", func(c *Config) { c.Workload = Workload{Kind: Streaming, PacketsPerSlot: 0.5, ChunkSlots: nan} }},
		{"SleepFraction", func(c *Config) { c.Workload = Workload{Kind: Streaming, PacketsPerSlot: 0.5, SleepFraction: nan} }},
		{"Eps", func(c *Config) { c.Dynamics.Eps = nan }},
		{"SpeedMetersPerInterval", func(c *Config) { c.Dynamics = Dynamics{Mobility: true, SpeedMetersPerInterval: nan} }},
		{"SpeedMetersPerInterval", func(c *Config) { c.Dynamics = Dynamics{Mobility: true, SpeedMetersPerInterval: inf} }},
		{"NoiseDB", func(c *Config) { c.Link.NoiseDB = nan }},
	}
	for _, tc := range cases {
		cfg := tinyFuzzCfg()
		tc.set(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%+v / %+v: Validate accepted it", cfg.Workload, cfg.Dynamics)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%+v / %+v: error %q does not name %s", cfg.Workload, cfg.Dynamics, err, tc.field)
		}
		if _, err := Run(cfg); err == nil {
			t.Errorf("%+v / %+v: Run accepted it", cfg.Workload, cfg.Dynamics)
		}
	}
}

// tinyFuzzCfg is the smallest trial sweep that still plans IAC groups:
// 4 clients, 3 APs, 8 CFP cycles, 2 trials.
func tinyFuzzCfg() Config {
	cfg := Default()
	cfg.Clients = 4
	cfg.APs = 3
	cfg.Cycles = 8
	cfg.Trials = 2
	return cfg
}

// FuzzSimConfig fuzzes the admitted float-knob space: the Workload and
// Dynamics floats, Link.NoiseDB and Cells.Leak, on a tiny sweep. Every
// input must either fail Validate, or run through RunTrials on one
// worker and on two without a panic, with DeepEqual results whose
// every exported float is finite. Cells.Leak reaches the run the way
// RunCampus applies it: through cell 1's derived config, which the
// campus runner validates again.
func FuzzSimConfig(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	type in struct {
		kind                           uint8
		pps, duty, burst, chunk, sleep float64
		eps, speed                     float64
		mobility                       bool
		noiseDB, leak                  float64
	}
	for _, s := range []in{
		{kind: 0, pps: 0.1},
		{kind: 1, pps: 2},
		{kind: 1, pps: inf},
		{kind: 2, pps: 0.1, burst: nan},
		{kind: 2, pps: 0.5, duty: 0.1},
		{kind: 3, pps: 0.5, chunk: nan},
		{kind: 3, pps: 0.5, sleep: nan},
		{kind: 4, eps: nan},
		{kind: 0, pps: 0.2, eps: 0.3, mobility: true, speed: inf},
		{kind: 0, pps: 0.2, mobility: true, speed: nan},
		{kind: 4, noiseDB: 10, leak: 0.5},
		{kind: 0, pps: 0.1, noiseDB: 59, leak: 1},
	} {
		f.Add(s.kind, s.pps, s.duty, s.burst, s.chunk, s.sleep, s.eps, s.speed, s.mobility, s.noiseDB, s.leak)
	}
	kinds := []WorkloadKind{Poisson, CBR, Bursty, Streaming, Saturated}
	f.Fuzz(func(t *testing.T, kind uint8, pps, duty, burst, chunk, sleep, eps, speed float64, mobility bool, noiseDB, leak float64) {
		cfg := tinyFuzzCfg()
		cfg.Workload = Workload{
			Kind:           kinds[int(kind)%len(kinds)],
			PacketsPerSlot: pps,
			Duty:           duty,
			MeanBurstSlots: burst,
			ChunkSlots:     chunk,
			SleepFraction:  sleep,
		}
		cfg.Dynamics = Dynamics{Eps: eps, Mobility: mobility, SpeedMetersPerInterval: speed}
		cfg.Link.NoiseDB = noiseDB
		cfg.Cells = Cells{Count: 2, Leak: leak}
		if cfg.Validate() != nil {
			return
		}
		checkAdmitted(t, cfg.cellConfig(1))
	})
}

// fuzzPacketBudget caps the packets FuzzSimConfigInts lets one input
// offer, so the integer knobs that stretch airtime (CPSlots,
// TrainSlots, MaxQueue) stay cheap to fuzz. It bounds the harness, not
// the admitted Config space: Validate knows nothing of it.
const fuzzPacketBudget = 1 << 16

// FuzzSimConfigInts fuzzes the admitted integer and Transport knob
// space — CPSlots, MaxRetries, MaxQueue, GroupSize, Uplink, Picker,
// PacketBytes, the Dynamics cycle counts and every Transport field —
// on the tiny sweep of FuzzSimConfig, under its contract: Validate
// rejects the input, or one worker and two agree under DeepEqual with
// every exported float finite. Inputs whose offered-packet bound
// (clients x arrival rate x an airtime bound per cycle x cycles x
// trials) passes fuzzPacketBudget are skipped unrun.
func FuzzSimConfigInts(f *testing.F) {
	type in struct {
		kind                                 uint8
		cpSlots, maxRetries, maxQueue, group int
		uplink                               bool
		picker                               string
		packetBytes                          int
		fading                               bool
		coherence, retrain, trainSlots       int
		transport                            bool
		window, rto, retransmits, stripes    int
	}
	for _, s := range []in{
		{cpSlots: 2, maxRetries: 1, maxQueue: 64, group: 3, uplink: true, picker: PickerBestOfTwo, packetBytes: 1440},
		{kind: 1, cpSlots: 1, maxQueue: 1, group: 2, uplink: true, picker: PickerFIFO, packetBytes: 1},
		{kind: 4, group: 3, picker: PickerBruteForce, packetBytes: 64 << 10},
		{kind: 4, group: 2, picker: PickerBestOfTwo, packetBytes: 64<<10 + 1},
		{group: 1, picker: "psychic"},
		{kind: 2, uplink: true, fading: true, coherence: 2, retrain: 1, trainSlots: 3},
		{kind: 3, fading: true, coherence: 1, retrain: 4, trainSlots: -1},
		{uplink: true, transport: true, window: 64, rto: 1, retransmits: 1, stripes: 3},
		{uplink: true, transport: true, window: 65},
		{transport: true, stripes: 2},
		{kind: 4, uplink: true, transport: true},
		{window: 4},
		{cpSlots: -1, maxRetries: -1, maxQueue: -1, group: 4},
	} {
		f.Add(s.kind, s.cpSlots, s.maxRetries, s.maxQueue, s.group, s.uplink, s.picker, s.packetBytes,
			s.fading, s.coherence, s.retrain, s.trainSlots, s.transport, s.window, s.rto, s.retransmits, s.stripes)
	}
	kinds := []WorkloadKind{Poisson, CBR, Bursty, Streaming, Saturated}
	f.Fuzz(func(t *testing.T, kind uint8, cpSlots, maxRetries, maxQueue, group int, uplink bool, picker string, packetBytes int,
		fading bool, coherence, retrain, trainSlots int, transport bool, window, rto, retransmits, stripes int) {
		cfg := tinyFuzzCfg()
		cfg.Workload = Workload{Kind: kinds[int(kind)%len(kinds)], PacketsPerSlot: 0.3}
		cfg.CPSlots, cfg.MaxRetries, cfg.MaxQueue, cfg.GroupSize = cpSlots, maxRetries, maxQueue, group
		cfg.Uplink, cfg.Picker, cfg.PacketBytes = uplink, picker, packetBytes
		cfg.Dynamics = Dynamics{CoherenceCycles: coherence, RetrainCycles: retrain, TrainSlots: trainSlots}
		if fading {
			cfg.Dynamics.Eps = 0.3
		}
		cfg.Transport = Transport{Enabled: transport, Window: window, RTOCycles: rto,
			MaxRetransmits: retransmits, Stripes: stripes}
		if cfg.Validate() != nil {
			return
		}
		// Airtime per cycle is at most a contention period, a training
		// round and a contention-free period serving every queued
		// packet; the bound is in floats so huge knobs cannot wrap it.
		c := cfg.withDefaults()
		queued := float64(c.Clients) * float64(max(c.MaxQueue, saturatedDepth))
		perCycle := float64(c.CPSlots) + float64(c.Dynamics.TrainSlots) + queued*float64(c.MaxRetries+1)
		if float64(c.Clients)*c.Workload.PacketsPerSlot*perCycle*float64(c.Cycles*c.Trials) > fuzzPacketBudget {
			t.Skip("offered-packet bound over the fuzz budget")
		}
		checkAdmitted(t, cfg)
	})
}

// checkAdmitted is the fuzz targets' contract: a Config that Validate
// admits must run through RunTrials on one worker and on two without a
// panic, with DeepEqual results whose every exported float is finite.
func checkAdmitted(t *testing.T, cfg Config) {
	t.Helper()
	if cfg.Validate() != nil {
		return
	}
	serial, err := RunTrials(cfg, 0, 1)
	if err != nil {
		t.Fatalf("validated config failed on one worker: %v", err)
	}
	sharded, err := RunTrials(cfg, 0, 2)
	if err != nil {
		t.Fatalf("validated config failed on two workers: %v", err)
	}
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatal("one worker and two workers disagree")
	}
	if path, ok := allFinite(reflect.ValueOf(serial), "results"); !ok {
		t.Fatalf("non-finite %s", path)
	}
}

// allFinite walks v's exported fields, elements and pointees and
// reports the path of the first float that is NaN or infinite.
func allFinite(v reflect.Value, path string) (string, bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		x := v.Float()
		return path, !math.IsNaN(x) && !math.IsInf(x, 0)
	case reflect.Pointer:
		if v.IsNil() {
			return "", true
		}
		return allFinite(v.Elem(), path)
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p, ok := allFinite(v.Index(i), path+"["+strconv.Itoa(i)+"]"); !ok {
				return p, false
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if sf := v.Type().Field(i); sf.IsExported() {
				if p, ok := allFinite(v.Field(i), path+"."+sf.Name); !ok {
					return p, false
				}
			}
		}
	}
	return "", true
}
