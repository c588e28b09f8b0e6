package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
)

// WorkloadKind names an offered-load model.
type WorkloadKind string

const (
	// Saturated keeps every client's queue non-empty: the paper's
	// Section 10.3 infinite-demand model. The MAC, not the traffic,
	// limits throughput.
	Saturated WorkloadKind = "saturated"
	// CBR emits one packet every 1/PacketsPerSlot slots, with a random
	// per-client phase — constant-bit-rate flows.
	CBR WorkloadKind = "cbr"
	// Poisson draws exponential inter-arrivals with mean
	// 1/PacketsPerSlot slots — memoryless background traffic.
	Poisson WorkloadKind = "poisson"
	// Bursty alternates exponentially distributed on-periods, during
	// which packets arrive back to back at PacketsPerSlot/Duty, with
	// silent off-periods sized so the long-run mean load stays at
	// PacketsPerSlot — on/off streaming traffic.
	Bursty WorkloadKind = "bursty"
	// Streaming models on-demand video: every ChunkSlots slots the
	// server offers one chunk as a back-to-back packet burst sized so
	// the long-run rate is PacketsPerSlot, and the client plays the
	// delivered chunks out of a buffer at that same rate (startup
	// delay, rebuffer events, and radio sleep between bursts are
	// tracked by the application plane — see StreamStats). The arrival
	// process itself is deterministic; only the per-client phase is
	// randomized.
	Streaming WorkloadKind = "streaming"
)

// Workload specifies a per-client offered-load model. The zero value is
// invalid; Default()'s Poisson 0.1 packets/slot is a working start.
type Workload struct {
	Kind WorkloadKind
	// PacketsPerSlot is the mean offered load per client in packets per
	// transmission slot (ignored for Saturated).
	PacketsPerSlot float64
	// Duty is Bursty's on-fraction in (0, 1); defaults to 0.2.
	Duty float64
	// MeanBurstSlots is Bursty's mean on-period length in slots;
	// defaults to 20.
	MeanBurstSlots float64
	// ChunkSlots is Streaming's chunk period in slots: one burst of
	// round(PacketsPerSlot*ChunkSlots) packets every ChunkSlots slots.
	// Defaults to 40. Streaming requires PacketsPerSlot <= 1 (the burst
	// must fit its own period with room to idle).
	ChunkSlots float64
	// StartupChunks is how many chunks the playback buffer holds before
	// the stream starts (and before it resumes after a rebuffer).
	// Defaults to 2.
	StartupChunks int
	// SleepFraction is the relative power draw of a sleeping client
	// radio (awake = 1 slot-unit per slot). Defaults to 0.05.
	SleepFraction float64
}

// burstyDuty is Bursty's on-fraction with its default applied.
func (w Workload) burstyDuty() float64 {
	if w.Duty == 0 {
		return 0.2
	}
	return w.Duty
}

// streamBurstPackets is the packets per chunk burst: the chunk period's
// worth of offered load, at least one packet.
func (w Workload) streamBurstPackets() int {
	p := w.ChunkSlots
	if p == 0 {
		p = 40
	}
	b := int(w.PacketsPerSlot*p + 0.5)
	if b < 1 {
		b = 1
	}
	return b
}

// streamChunkSlots is the chunk period with its default applied.
func (w Workload) streamChunkSlots() float64 {
	if w.ChunkSlots == 0 {
		return 40
	}
	return w.ChunkSlots
}

// streamStartupChunks is the playback start threshold in chunks.
func (w Workload) streamStartupChunks() int {
	if w.StartupChunks == 0 {
		return 2
	}
	return w.StartupChunks
}

// streamSleepFraction is the sleeping radio's relative power draw.
func (w Workload) streamSleepFraction() float64 {
	if w.SleepFraction == 0 {
		return 0.05
	}
	return w.SleepFraction
}

// maxArrivalRate bounds, in packets per slot, the rate an arrival
// process runs at: PacketsPerSlot for CBR and Poisson, and
// PacketsPerSlot/Duty inside a Bursty on-period. The arrival loops
// advance a float64 clock in slots by each gap, and a gap below the
// clock's ulp never advances it; at this rate the mean gap is 2^-10
// slots, which advances the clock for the first 2^42 slots of a run.
// Unbounded demand is what the Saturated workload models.
const maxArrivalRate = 1 << 10

// finite returns an error naming the float knob field when v is NaN or
// infinite.
func finite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("sim: %s must be finite, got %v", field, v)
	}
	return nil
}

func (w Workload) validate() error {
	if err := cmp.Or(
		finite("Workload.PacketsPerSlot", w.PacketsPerSlot),
		finite("Workload.Duty", w.Duty),
		finite("Workload.MeanBurstSlots", w.MeanBurstSlots),
		finite("Workload.ChunkSlots", w.ChunkSlots),
		finite("Workload.SleepFraction", w.SleepFraction),
	); err != nil {
		return err
	}
	switch w.Kind {
	case Saturated:
		return nil
	case CBR, Poisson:
		if !(w.PacketsPerSlot > 0) {
			return fmt.Errorf("sim: %s workload needs PacketsPerSlot > 0", w.Kind)
		}
		if w.PacketsPerSlot > maxArrivalRate {
			return fmt.Errorf("sim: %s Workload.PacketsPerSlot %v exceeds %d packets/slot; use the saturated workload", w.Kind, w.PacketsPerSlot, maxArrivalRate)
		}
		return nil
	case Bursty:
		if !(w.PacketsPerSlot > 0) {
			return fmt.Errorf("sim: bursty workload needs PacketsPerSlot > 0")
		}
		if w.Duty != 0 && !(w.Duty > 0 && w.Duty < 1) {
			return fmt.Errorf("sim: bursty Duty %v outside (0, 1)", w.Duty)
		}
		if w.MeanBurstSlots < 0 {
			return fmt.Errorf("sim: bursty MeanBurstSlots must be >= 0")
		}
		if r := w.PacketsPerSlot / w.burstyDuty(); r > maxArrivalRate {
			return fmt.Errorf("sim: bursty on-period rate Workload.PacketsPerSlot/Duty = %v exceeds %d packets/slot", r, maxArrivalRate)
		}
		return nil
	case Streaming:
		if !(w.PacketsPerSlot > 0) {
			return fmt.Errorf("sim: streaming workload needs PacketsPerSlot > 0")
		}
		if w.PacketsPerSlot > 1 {
			// The chunk burst arrives back to back at one packet per
			// slot; a rate above that cannot fit its own period and the
			// arrival process would never idle.
			return fmt.Errorf("sim: streaming PacketsPerSlot %v exceeds 1 packet/slot", w.PacketsPerSlot)
		}
		if w.ChunkSlots < 0 {
			return fmt.Errorf("sim: streaming ChunkSlots must be >= 0")
		}
		if w.ChunkSlots != 0 && w.ChunkSlots < 1 {
			return fmt.Errorf("sim: streaming ChunkSlots %v below one slot", w.ChunkSlots)
		}
		if w.StartupChunks < 0 {
			return fmt.Errorf("sim: streaming StartupChunks must be >= 0")
		}
		if w.SleepFraction < 0 || w.SleepFraction > 1 {
			return fmt.Errorf("sim: streaming SleepFraction %v outside [0, 1]", w.SleepFraction)
		}
		return nil
	default:
		return fmt.Errorf("sim: unknown workload kind %q", w.Kind)
	}
}

// Generator produces one client's packet arrival process in slot time.
// Implementations may be stateful (Bursty tracks its burst phase) and
// are not safe for concurrent use; each client of each trial gets its
// own instance of a stateful kind (see newGenerators).
type Generator interface {
	Name() string
	// Next returns the gap in slots between the previous arrival and the
	// next one. Saturated sources return 0 (the engine keeps their
	// queues topped up instead of timing arrivals).
	Next(rng *rand.Rand) float64
}

// NewGenerator instantiates the workload's arrival process.
func (w Workload) NewGenerator() (Generator, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	switch w.Kind {
	case Saturated:
		return saturatedGen{}, nil
	case CBR:
		return &cbrGen{interval: 1 / w.PacketsPerSlot}, nil
	case Poisson:
		return &poissonGen{mean: 1 / w.PacketsPerSlot}, nil
	case Bursty:
		duty := w.burstyDuty()
		onMean := w.MeanBurstSlots
		if onMean == 0 {
			onMean = 20
		}
		return &burstyGen{
			onInterval: duty / w.PacketsPerSlot,
			onMean:     onMean,
			offMean:    onMean * (1 - duty) / duty,
		}, nil
	case Streaming:
		return &streamGen{
			burst:  w.streamBurstPackets(),
			period: w.streamChunkSlots(),
		}, nil
	}
	return nil, fmt.Errorf("sim: unknown workload kind %q", w.Kind)
}

// newGenerators returns n clients' arrival processes. Saturated, CBR
// and Poisson generators keep no state, so one instance serves all n;
// every other kind gets one per client.
func (w Workload) newGenerators(n int) ([]Generator, error) {
	gens := make([]Generator, n)
	shared := w.Kind == Saturated || w.Kind == CBR || w.Kind == Poisson
	for i := range gens {
		if i > 0 && shared {
			gens[i] = gens[0]
			continue
		}
		var err error
		if gens[i], err = w.NewGenerator(); err != nil {
			return nil, err
		}
	}
	return gens, nil
}

type saturatedGen struct{}

func (saturatedGen) Name() string            { return string(Saturated) }
func (saturatedGen) Next(*rand.Rand) float64 { return 0 }

type cbrGen struct{ interval float64 }

func (g *cbrGen) Name() string            { return string(CBR) }
func (g *cbrGen) Next(*rand.Rand) float64 { return g.interval }

type poissonGen struct{ mean float64 }

func (g *poissonGen) Name() string { return string(Poisson) }
func (g *poissonGen) Next(rng *rand.Rand) float64 {
	return g.mean * rng.ExpFloat64()
}

// burstyGen is an on/off source: during an on-period (exponential, mean
// onMean slots) packets arrive every onInterval slots; between bursts
// the source idles for an exponential off-period (mean offMean). The
// long-run rate is duty/onInterval = PacketsPerSlot.
type burstyGen struct {
	onInterval float64
	onMean     float64
	offMean    float64
	// remainingOn is the unexpired part of the current burst.
	remainingOn float64
}

func (g *burstyGen) Name() string { return string(Bursty) }

func (g *burstyGen) Next(rng *rand.Rand) float64 {
	if g.remainingOn >= g.onInterval {
		g.remainingOn -= g.onInterval
		return g.onInterval
	}
	// The burst ends before the next in-burst arrival: idle through the
	// leftover on-time plus an off-period, then start a fresh burst
	// whose first packet comes one in-burst interval in.
	gap := g.remainingOn + g.offMean*rng.ExpFloat64() + g.onInterval
	g.remainingOn = g.onMean * rng.ExpFloat64()
	return gap
}

// streamGen is the deterministic chunked-video source: every period
// slots it emits burst packets back to back (one slot apart), then
// idles out the remainder of the period. rate <= 1 packet/slot
// guarantees the idle gap stays positive, so the arrival loop always
// advances. Only the per-client phase offset (applied by the engine to
// the first arrival) is random.
type streamGen struct {
	burst  int
	period float64
	// sent counts packets emitted in the current chunk.
	sent int
}

func (g *streamGen) Name() string { return string(Streaming) }

func (g *streamGen) Next(*rand.Rand) float64 {
	g.sent++
	if g.sent < g.burst {
		return 1
	}
	// Last packet of the chunk: idle until the next chunk's first
	// packet, one period after this chunk's first.
	g.sent = 0
	return g.period - float64(g.burst-1)
}
