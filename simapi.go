package iaclan

// This file is the package's simulation facade: the discrete-event LAN
// traffic engine (internal/sim) re-exported as one coherent API
// surface. It reads top-down in godoc order:
//
//   - Entry points: SimulateCampus (the general entry point — every
//     configuration, including a single cell, runs through it), with
//     Simulate and SimulateTrials as thin conveniences over the same
//     engine.
//   - Configuration: SimConfig and its blocks (SimWorkload, SimTransport,
//     SimDynamics, SimLink, SimCells) plus the name constants for its
//     string knobs.
//   - Results: SimSummary, SimTrial, SimCampusResult, LatencySketch.
//   - Observability: the live-metrics registry/server types and the
//     structured trace-event stream.

import (
	"fmt"

	"iaclan/internal/obs"
	"iaclan/internal/sim"
	"iaclan/internal/stats"
)

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

// SimulateCampus is the simulation entry point: it sustains traffic
// over simulated time through the whole IAC stack — per-client
// generators feed the PCF MAC, every transmission group is planned and
// evaluated on the simulated PHY, and the APs' wired coordination bytes
// are metered — for cfg.Cells.Count cells of cfg.Clients clients each,
// cfg.Trials trials per cell, sharded across one pool of cfg.Workers
// goroutines.
//
// Every valid SimConfig runs through it: the zero-value Cells block is
// a one-cell campus, so single-LAN studies need no special entry point.
// Results are bit-identical for a fixed Seed regardless of worker
// count. Call cfg.Validate to pre-flight a configuration; SimulateCampus
// applies exactly the same check.
func SimulateCampus(cfg SimConfig) (SimCampusResult, error) {
	res, err := sim.RunCampus(cfg)
	if err != nil {
		return SimCampusResult{}, fmt.Errorf("iaclan: simulate campus: %w", err)
	}
	return res, nil
}

// Simulate is a convenience over SimulateCampus for single-cell runs:
// it executes the configured trial sweep and returns the aggregated
// SimSummary directly, without the campus wrapper. Multi-cell configs
// (Cells.Count > 1) are rejected — use SimulateCampus.
func Simulate(cfg SimConfig) (SimSummary, error) {
	if cfg.Cells.Count > 1 {
		return SimSummary{}, fmt.Errorf("iaclan: simulate: Cells.Count %d is a multi-cell campus; use SimulateCampus", cfg.Cells.Count)
	}
	res, err := sim.RunSweep(cfg)
	if err != nil {
		return SimSummary{}, fmt.Errorf("iaclan: simulate: %w", err)
	}
	return res, nil
}

// SimulateTrials is a convenience over the same engine that skips the
// aggregation: the raw single-cell per-trial results in seed order
// (trial i runs with Seed+i). Multi-cell configs are rejected — use
// SimulateCampus and read CampusResult.PerCell.
func SimulateTrials(cfg SimConfig) ([]SimTrial, error) {
	trials, err := sim.RunTrials(cfg, cfg.Trials, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("iaclan: simulate: %w", err)
	}
	return trials, nil
}

// DefaultSimConfig returns the engine defaults: a 10-client, 3-AP
// uplink under Poisson load for 1000 CFP cycles.
func DefaultSimConfig() SimConfig { return sim.Default() }

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

// SimConfig configures a simulation: the network size, CFP cycle count,
// transmission group size, concurrency algorithm, offered-load model,
// traffic-engine selection, and the sweep dimensions (Trials trials
// with seeds Seed..Seed+Trials-1 over Workers goroutines; Cells.Count
// cells). Its Validate method pre-flights a configuration with exactly
// the admission rule every entry point applies.
type SimConfig = sim.Config

// SimWorkload specifies the per-client offered-load model of a
// simulation (kind plus rate/burstiness parameters; the streaming kind
// adds the chunk schedule, startup threshold, and radio-sleep power).
type SimWorkload = sim.Workload

// SimTransport configures the closed-loop transport plane of a
// simulation: per-client AIMD congestion windows clocked off the
// beacon's delivery outcomes, RTO-timed retransmission of packets the
// MAC gave up on, and optional multi-AP striping of the uplink chain's
// anchor. The zero value runs the legacy open-loop model — packets the
// MAC drops stay dropped.
type SimTransport = sim.Transport

// SimDynamics configures time-varying channel state for a simulation:
// block fading per coherence interval, random-waypoint client mobility,
// and the re-training schedule with its airtime cost. The zero value
// freezes the channel for the whole trial.
type SimDynamics = sim.Dynamics

// SimLink configures the SNR-aware link plane of a simulation: the
// receiver-noise operating point (NoiseDB), imperfect-cancellation
// residuals (ResidualCancel), and the shared discrete MCS rate/outage
// model (MCS). The zero value runs the legacy link model: unit noise,
// exact cancellation given the estimated channels, continuous Shannon
// rates.
type SimLink = sim.Link

// SimCells configures the multi-cell campus plane of a simulation: a
// campus of Count cells, each an independent Clients x APs cluster with
// its own world and traffic, coupled only through deterministic
// inter-cell interference leakage (Leak per neighbour, raising every
// cell's noise floor). The zero value is the single-cell LAN.
type SimCells = sim.Cells

// SimWorkloadKind names an offered-load model (see the Workload*
// constants).
type SimWorkloadKind = sim.WorkloadKind

// Workload kinds for SimWorkload.Kind.
const (
	WorkloadSaturated = sim.Saturated
	WorkloadCBR       = sim.CBR
	WorkloadPoisson   = sim.Poisson
	WorkloadBursty    = sim.Bursty
	WorkloadStreaming = sim.Streaming
)

// Picker names for SimConfig.Picker.
const (
	PickerFIFO       = sim.PickerFIFO
	PickerBestOfTwo  = sim.PickerBestOfTwo
	PickerBruteForce = sim.PickerBruteForce
)

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

// SimSummary aggregates a simulation sweep: per-client throughput,
// latency percentiles, Jain fairness, delivered fraction, and the
// backend-bytes-per-wireless-bit wired-plane load. When the transport
// or streaming planes ran, the Transport and Stream blocks carry their
// pooled accounting.
type SimSummary = sim.Summary

// SimTransportStats is the closed-loop transport plane's accounting
// (SimSummary.Transport, SimTrial.Transport): retransmissions released,
// RTO firings, window-limited admission cycles, and the mean final
// congestion window.
type SimTransportStats = sim.TransportStats

// SimStreamStats is the streaming application plane's accounting
// (SimSummary.Stream, SimTrial.Stream): sessions started, startup
// delay, rebuffer events and the fraction of watch time spent stalled,
// plus the radio awake/sleep split and energy per delivered bit.
type SimStreamStats = sim.StreamStats

// SimTrial is one trial's raw result (see SimulateTrials).
type SimTrial = sim.TrialResult

// SimCampusResult is a campus simulation's outcome: one SimSummary per
// cell plus the campus-wide aggregate.
type SimCampusResult = sim.CampusResult

// LatencySketch is the mergeable quantile sketch latency results carry
// (SimSummary.Latency, SimTrial.Latency): a log-spaced histogram that
// starts as a ~100-byte sparse list of bins and turns into a dense
// ~8 KiB bin array the first time it needs more than 4 bins. Recording
// a sample allocates at most once per sketch, at that promotion, the
// relative quantile error is ~1.2% at worst, and merges across trials
// and cells are deterministic and bit-identical. A LatencySketch must
// not be copied by value: a copy of a dense sketch shares its bins.
type LatencySketch = stats.Sketch

// ---------------------------------------------------------------------
// Observability: live metrics and trace events
// ---------------------------------------------------------------------

// ObsRegistry is the streaming observability plane a simulation
// publishes live metrics into when SimConfig.Obs is set: counters
// (trials/cycles completed, packets offered/delivered/dropped, cache
// hits, timer-wheel activity, retrain rounds), gauges (sweep sizes,
// per-cell throughput, PHY pool churn), and the pooled latency quantile
// sketch. Attaching a registry never perturbs results — runs with and
// without one are bit-identical.
type ObsRegistry = obs.Registry

// ObsSnapshot is a registry frozen at one instant — the JSON document
// the status server serves at /status.
type ObsSnapshot = obs.Snapshot

// ObsServer is a live metrics HTTP endpoint bound to one registry.
type ObsServer = obs.StatusServer

// NewObsRegistry returns an empty observability registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// ServeObs starts a status HTTP server for reg on addr (host:port;
// port 0 picks a free one): GET /status returns the registry snapshot
// as JSON, GET /debug/vars the process expvar page. It returns
// immediately; the server runs until Close. Attaching it to a running
// simulation is safe at any point — handlers only read.
func ServeObs(addr string, reg *ObsRegistry) (*ObsServer, error) {
	srv, err := obs.ListenAndServe(addr, reg)
	if err != nil {
		return nil, fmt.Errorf("iaclan: serve obs: %w", err)
	}
	return srv, nil
}

// SimTracer receives a simulation's structured lifecycle events when
// SimConfig.Trace is set. Sweep workers emit concurrently, so
// implementations must be safe for concurrent use; a nil tracer costs
// one predicted branch per would-be event and zero allocations.
type SimTracer = sim.Tracer

// SimEvent is one structured lifecycle event (all scalars — emitting
// one never allocates).
type SimEvent = sim.Event

// SimEventKind names a lifecycle event kind.
type SimEventKind = sim.EventKind

// Lifecycle event kinds for SimEvent.Kind.
const (
	SimEventSlotPlanned       = sim.EventSlotPlanned
	SimEventSlotEvaluated     = sim.EventSlotEvaluated
	SimEventChainDecodeFailed = sim.EventChainDecodeFailed
	SimEventRetrain           = sim.EventRetrain
	SimEventTimersFired       = sim.EventTimersFired
	SimEventTrialDone         = sim.EventTrialDone
	SimEventCellDone          = sim.EventCellDone
	SimEventRetransmit        = sim.EventRetransmit
	SimEventRebuffer          = sim.EventRebuffer
)
