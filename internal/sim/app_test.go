package sim

import (
	"reflect"
	"testing"
)

func TestStreamingValidation(t *testing.T) {
	bad := []Workload{
		{Kind: Streaming},                                          // no rate
		{Kind: Streaming, PacketsPerSlot: 1.5},                     // burst can't fit its period
		{Kind: Streaming, PacketsPerSlot: 0.1, ChunkSlots: -1},     //
		{Kind: Streaming, PacketsPerSlot: 0.1, ChunkSlots: 0.5},    // sub-slot period
		{Kind: Streaming, PacketsPerSlot: 0.1, StartupChunks: -1},  //
		{Kind: Streaming, PacketsPerSlot: 0.1, SleepFraction: 1.5}, //
	}
	for i, w := range bad {
		cfg := Default()
		cfg.Workload = w
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad streaming workload %d accepted", i)
		}
	}
}

func TestStreamingWithoutTransportRunsAndAccounts(t *testing.T) {
	// The application plane does not require the transport: a plain
	// open-loop streaming run must still produce coherent session and
	// energy accounting.
	cfg := Default()
	cfg.Clients = 6
	cfg.Cycles = 120
	cfg.Workload = Workload{Kind: Streaming, PacketsPerSlot: 0.08, ChunkSlots: 30}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stream
	if !st.Enabled {
		t.Fatal("StreamStats not enabled for a streaming workload")
	}
	if st.Streams == 0 || st.Started == 0 {
		t.Fatalf("no streams started: %+v", st)
	}
	if st.Started > st.Streams {
		t.Fatalf("started %d exceeds streams %d", st.Started, st.Streams)
	}
	if st.MeanStartupSlots <= 0 {
		t.Fatalf("startup delay %v, want > 0 (buffering takes time)", st.MeanStartupSlots)
	}
	// Awake + asleep partition each session's airtime exactly.
	total := float64(res.Slots * st.Streams)
	if st.AwakeSlots+st.SleepSlots != total {
		t.Fatalf("awake %v + sleep %v != %d slots x %d streams",
			st.AwakeSlots, st.SleepSlots, res.Slots, st.Streams)
	}
	// The chunk schedule idles most of the time, so the radios must
	// actually sleep — and energy must land between the all-asleep and
	// all-awake extremes.
	if st.SleepSlots == 0 {
		t.Fatal("radios never slept under a 30-slot chunk period")
	}
	if st.EnergyUnits <= 0 || st.EnergyUnits >= total {
		t.Fatalf("energy %v outside (0, %v)", st.EnergyUnits, total)
	}
	if st.EnergyPerBit <= 0 {
		t.Fatalf("energy per bit %v, want > 0", st.EnergyPerBit)
	}
	if st.GoodputBitsPerSlot <= 0 {
		t.Fatalf("goodput %v, want > 0", st.GoodputBitsPerSlot)
	}
}

// TestStreamingRebuffersUnderNoise checks that a harsh channel stalls
// playback more often than a clean one. Rebuffer events are rare (a
// handful per run), so one seed's count says little: the clean and
// noisy runs are pooled over seeds 1-8 and their totals compared.
func TestStreamingRebuffersUnderNoise(t *testing.T) {
	var cleanEvents, noisyEvents int
	var noisyRate float64
	for seed := int64(1); seed <= 8; seed++ {
		clean := streamCfg()
		clean.Seed = seed
		clean.Link = Link{}
		cleanRes, err := Run(clean)
		if err != nil {
			t.Fatal(err)
		}
		noisy := streamCfg()
		noisy.Seed = seed
		noisy.Link.NoiseDB = 24
		noisyRes, err := Run(noisy)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: %d rebuffers clean, %d at +24 dB", seed, cleanRes.Stream.RebufferEvents, noisyRes.Stream.RebufferEvents)
		cleanEvents += cleanRes.Stream.RebufferEvents
		noisyEvents += noisyRes.Stream.RebufferEvents
		noisyRate = max(noisyRate, noisyRes.Stream.RebufferRate)
		if noisyRes.Stream.RebufferRate > 1 {
			t.Fatalf("seed %d: rebuffer rate %v exceeds 1: stalled time outran watch time", seed, noisyRes.Stream.RebufferRate)
		}
	}
	if noisyEvents <= cleanEvents {
		t.Fatalf("rebuffers did not rise with noise: %d (clean) vs %d (+24 dB) over seeds 1-8", cleanEvents, noisyEvents)
	}
	if noisyRate <= 0 {
		t.Fatalf("rebuffer rate %v at +24 dB on every seed, want > 0", noisyRate)
	}
}

func TestStreamingSummarizePoolsSessions(t *testing.T) {
	cfg := streamCfg()
	trials, err := RunTrials(cfg, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(trials)
	var streams, started, rebuffers int
	var energy float64
	for _, tr := range trials {
		streams += tr.Stream.Streams
		started += tr.Stream.Started
		rebuffers += tr.Stream.RebufferEvents
		energy += tr.Stream.EnergyUnits
	}
	if s.Stream.Streams != streams || s.Stream.Started != started ||
		s.Stream.RebufferEvents != rebuffers {
		t.Fatalf("summary sessions %+v do not sum the trials", s.Stream)
	}
	if s.Stream.EnergyUnits != energy {
		t.Fatalf("summary energy %v, want %v", s.Stream.EnergyUnits, energy)
	}
	if s.WirelessBits > 0 && s.Stream.EnergyPerBit != s.Stream.EnergyUnits/float64(s.WirelessBits) {
		t.Fatal("summary EnergyPerBit not recomputed from pooled numerators")
	}
	// Campus aggregation must pool the same way.
	campus := aggregateCampus([]Summary{s, s})
	if campus.Stream.Streams != 2*s.Stream.Streams || campus.Stream.EnergyUnits != 2*s.Stream.EnergyUnits {
		t.Fatalf("campus stream aggregate %+v does not sum cells", campus.Stream)
	}
}

func TestStreamingWheelMatchesScan(t *testing.T) {
	// The deterministic chunk source must behave identically on the
	// event-driven and legacy traffic planes, transport on or off.
	for _, tp := range []Transport{{}, {Enabled: true, RTOCycles: 2}} {
		cfg := streamCfg()
		cfg.Transport = tp
		wheel, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.scan = true
		scan, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wheel, scan) {
			t.Fatalf("streaming run diverged between wheel and scan engines (transport enabled=%v)", tp.Enabled)
		}
	}
}
