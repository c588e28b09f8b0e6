package sim

import (
	"fmt"

	"iaclan/internal/obs"
	"iaclan/internal/phy"
)

// Metric names the traffic engine publishes into Config.Obs. Counters
// accumulate across every trial that runs against the registry, so the
// final totals after a sweep are deterministic whatever order the
// workers finished in.
const (
	// metricTrialsCompleted / metricCellsCompleted count finished units
	// of a sweep; the matching *_total gauges carry the sweep's size so
	// a live reader can render progress.
	metricTrialsCompleted = "sim_trials_completed"
	metricCellsCompleted  = "sim_cells_completed"
	metricTrialsTotal     = "sim_trials_total"
	metricCellsTotal      = "sim_cells_total"
	// metricCyclesCompleted is the one per-cycle liveness signal: it
	// ticks as engines run, not just at trial boundaries.
	metricCyclesCompleted = "sim_cycles_completed"
	metricSlots           = "sim_slots"
	metricOffered         = "sim_packets_offered"
	metricDelivered       = "sim_packets_delivered"
	metricDropped         = "sim_packets_dropped"
	metricBufferDropped   = "sim_packets_buffer_dropped"
	metricOutageLosses    = "sim_outage_losses"
	metricDecodeFailures  = "sim_chain_decode_failures"
	metricRetrainRounds   = "sim_retrain_rounds"
	metricRetrainSlots    = "sim_retrain_slots"
	metricCacheHits       = "slotcache_hits"
	metricCacheMisses     = "slotcache_misses"
	// metricTimers* expose the event-driven traffic plane's hierarchical
	// timing wheel: arrival timers armed (re-arms included), timers
	// popped by wheel advances, and entry moves between wheel levels.
	// All three stay zero for saturated workloads, which run no timers,
	// and under the scan reference plane.
	metricTimersScheduled = "sim_timers_scheduled"
	metricTimersFired     = "sim_timers_fired"
	metricTimersCascaded  = "sim_timers_cascaded"
	// metricLatency is the campus-wide pooled latency distribution
	// (arrival-to-ack, in slots), one sketch merge per trial.
	metricLatency = "sim_latency_slots"
	// metricPoolGets / metricPoolPuts mirror the PHY workspace pool's
	// churn, published as snapshot-time gauges (the pool is process
	// global, so they span every concurrent sweep in the process).
	metricPoolGets = "phy_pool_gets"
	metricPoolPuts = "phy_pool_puts"
	// Transport-plane counters: packets the closed loop re-injected
	// after a final MAC drop, and the RTO timer firings behind them.
	// Both stay zero with Config.Transport disabled.
	metricTransportRetransmits = "sim_transport_retransmits"
	metricTransportTimeouts    = "sim_transport_timeouts"
	// Streaming-application counters and distributions: rebuffer events
	// and stalled airtime across every session, the radio awake/sleep
	// split, the per-client startup-delay distribution, and the
	// per-client energy-per-bit distribution (slot-units per payload
	// bit — values live well below the latency sketch's 1e-2 bin floor,
	// so its snapshot reports them via min/max with saturated_low
	// flagging the clipping). All stay zero without WorkloadStreaming.
	metricStreamRebuffers     = "sim_stream_rebuffers"
	metricStreamRebufferSlots = "sim_stream_rebuffer_slots"
	metricStreamAwakeSlots    = "sim_stream_awake_slots"
	metricStreamSleepSlots    = "sim_stream_sleep_slots"
	metricStreamStartupSlots  = "sim_stream_startup_slots"
	metricStreamEnergyPerBit  = "sim_stream_energy_per_bit"
	// metricBatchProducts distributes the direction products the slot
	// evaluator computed per planned slot (SlotOutcome.Batched), merged into
	// the registry once per trial alongside the latency sketch.
	// Head-only fallback slots, which plan nothing, add no sample.
	metricBatchProducts = "sim_batch_products"
)

// cellThroughputGauge names cell i's live throughput gauge, set when
// the cell's last trial completes.
func cellThroughputGauge(cell int) string {
	return fmt.Sprintf("sim_cell%d_throughput_bits_per_slot", cell)
}

// simMetrics holds the engine's resolved registry handles: one name
// lookup each at engine construction, then lock-free atomic publishes.
// The engine batches its per-packet counts in plain locals and flushes
// them here once per trial, so observability adds no hot-path atomics
// beyond the per-cycle liveness tick.
type simMetrics struct {
	trialsCompleted *obs.Counter
	cyclesCompleted *obs.Counter
	slots           *obs.Counter
	offered         *obs.Counter
	delivered       *obs.Counter
	dropped         *obs.Counter
	bufferDropped   *obs.Counter
	outageLosses    *obs.Counter
	decodeFailures  *obs.Counter
	retrainRounds   *obs.Counter
	retrainSlots    *obs.Counter
	cacheHits       *obs.Counter
	cacheMisses     *obs.Counter
	timersScheduled *obs.Counter
	timersFired     *obs.Counter
	timersCascaded  *obs.Counter
	latency         *obs.Distribution
	batchProducts   *obs.Distribution

	transportRetransmits *obs.Counter
	transportTimeouts    *obs.Counter
	streamRebuffers      *obs.Counter
	streamRebufferSlots  *obs.Counter
	streamAwakeSlots     *obs.Counter
	streamSleepSlots     *obs.Counter
	startupSlots         *obs.Distribution
	energyPerBit         *obs.Distribution
}

// newSimMetrics resolves every engine metric in reg, or returns nil for
// a nil registry (the engine's no-observability fast path).
func newSimMetrics(reg *obs.Registry) *simMetrics {
	if reg == nil {
		return nil
	}
	registerPoolGauges(reg)
	return &simMetrics{
		trialsCompleted: reg.Counter(metricTrialsCompleted),
		cyclesCompleted: reg.Counter(metricCyclesCompleted),
		slots:           reg.Counter(metricSlots),
		offered:         reg.Counter(metricOffered),
		delivered:       reg.Counter(metricDelivered),
		dropped:         reg.Counter(metricDropped),
		bufferDropped:   reg.Counter(metricBufferDropped),
		outageLosses:    reg.Counter(metricOutageLosses),
		decodeFailures:  reg.Counter(metricDecodeFailures),
		retrainRounds:   reg.Counter(metricRetrainRounds),
		retrainSlots:    reg.Counter(metricRetrainSlots),
		cacheHits:       reg.Counter(metricCacheHits),
		cacheMisses:     reg.Counter(metricCacheMisses),
		timersScheduled: reg.Counter(metricTimersScheduled),
		timersFired:     reg.Counter(metricTimersFired),
		timersCascaded:  reg.Counter(metricTimersCascaded),
		latency:         reg.Distribution(metricLatency),
		batchProducts:   reg.Distribution(metricBatchProducts),

		transportRetransmits: reg.Counter(metricTransportRetransmits),
		transportTimeouts:    reg.Counter(metricTransportTimeouts),
		streamRebuffers:      reg.Counter(metricStreamRebuffers),
		streamRebufferSlots:  reg.Counter(metricStreamRebufferSlots),
		streamAwakeSlots:     reg.Counter(metricStreamAwakeSlots),
		streamSleepSlots:     reg.Counter(metricStreamSleepSlots),
		startupSlots:         reg.Distribution(metricStreamStartupSlots),
		energyPerBit:         reg.Distribution(metricStreamEnergyPerBit),
	}
}

// registerPoolGauges publishes the PHY workspace pool's churn counters
// as derived gauges. Registration is idempotent (register-or-replace),
// so every engine sharing a registry lands on the same two gauges.
func registerPoolGauges(reg *obs.Registry) {
	reg.GaugeFunc(metricPoolGets, func() float64 {
		gets, _ := phy.PoolCounters()
		return float64(gets)
	})
	reg.GaugeFunc(metricPoolPuts, func() float64 {
		_, puts := phy.PoolCounters()
		return float64(puts)
	})
}
