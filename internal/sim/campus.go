package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"iaclan/internal/stats"
)

// Cells configures the multi-cell campus plane: C independent cells,
// each an N-AP cluster (Config.APs APs, Config.Clients clients) with
// its own world, client population, traffic, and wired plane, plus a
// deterministic inter-cell interference model. The zero value is the
// single-cell LAN every earlier revision simulated.
//
// Cells run on orthogonal schedules (a campus frequency plan), so the
// residual coupling between them is co-channel leakage, not symbol-level
// collision. The model follows the Env noise axis: every neighbour cell
// contributes Leak of one unit of mean received interference power,
// raising the cell's effective noise floor by 1 + Leak*(Count-1). That
// keeps cells statistically faithful (denser campuses push every link's
// SINR down) while leaving each cell's trial a self-contained,
// deterministic unit — which is what lets the campus shard across the
// worker pool with bit-identical serial and parallel results.
type Cells struct {
	// Count is the number of cells in the campus; 0 and 1 both mean a
	// single cell.
	Count int
	// Leak is the per-neighbour interference leakage in [0, 1]: the
	// fraction of a unit mean interference power each neighbour cell
	// adds to a cell's noise floor. 0 models perfectly isolated cells.
	Leak float64
}

// enabled reports whether the configuration is a true multi-cell campus.
func (c Cells) enabled() bool { return c.Count > 1 }

// validate rejects parameters outside the model.
func (c Cells) validate() error {
	if c.Count < 0 {
		return fmt.Errorf("sim: Cells.Count must be >= 0")
	}
	if c.Leak < 0 || c.Leak > 1 || math.IsNaN(c.Leak) {
		return fmt.Errorf("sim: Cells.Leak %v outside [0, 1]", c.Leak)
	}
	return nil
}

// noiseRaiseDB is the inter-cell leakage's noise-floor raise in dB for
// one cell of a Count-cell campus.
func (c Cells) noiseRaiseDB() float64 {
	if !c.enabled() || c.Leak <= 0 {
		return 0
	}
	return 10 * math.Log10(1+c.Leak*float64(c.Count-1))
}

// cellSeedStride separates cell seed streams: cell i of a campus trial
// sweep draws from Seed + i*cellSeedStride (+ trial within the cell), a
// prime stride far beyond any realistic trial count so cells can never
// collide with each other or with the sweep's per-trial seeds.
const cellSeedStride = 1_000_003

// cellConfig derives cell i's single-cell configuration: its own seed
// stream and the campus leakage folded into the link plane's noise
// operating point.
func (c Config) cellConfig(cell int) Config {
	out := c
	out.Cells = Cells{}
	out.Seed = c.Seed + int64(cell)*cellSeedStride
	out.Link.NoiseDB += c.Cells.noiseRaiseDB()
	return out
}

// CampusResult is a multi-cell campus sweep's outcome.
type CampusResult struct {
	// PerCell aggregates each cell's trials (index = cell).
	PerCell []Summary
	// Campus is the campus-wide aggregate: throughputs and packet
	// counters sum across cells (cells carry traffic concurrently on
	// their own channels), latency pools every delivered packet on the
	// campus by merging the per-cell quantile sketches — a true campus
	// p95 in which a congested cell's tail carries its full weight —
	// and Jain fairness spans every client on the campus.
	Campus Summary
}

// RunCampus simulates a multi-cell campus: Cells.Count independent
// cells, each running the configured trial sweep, with every (cell,
// trial) pair sharded across one worker pool of cfg.Workers goroutines.
// Results are bit-identical regardless of worker count because each
// pair owns its world, RNG, MAC, and caches — the same invariant the
// single-cell trial runner keeps. A Count of 0 or 1 degenerates to the
// single-cell sweep (one cell, no leakage).
func RunCampus(cfg Config) (CampusResult, error) {
	cfg, err := cfg.prepare()
	if err != nil {
		return CampusResult{}, err
	}
	cells := cfg.Cells.Count
	if cells < 1 {
		cells = 1
	}
	// Per-cell configs share the leakage raise; validate it once (it can
	// push NoiseDB past the link plane's bounds for extreme campuses).
	cellCfgs := make([]Config, cells)
	for i := range cellCfgs {
		cellCfgs[i] = cfg.cellConfig(i)
		if err := cellCfgs[i].validate(); err != nil {
			return CampusResult{}, fmt.Errorf("cell %d: %w", i, err)
		}
	}

	trials := cfg.Trials
	results := make([][]TrialResult, cells)
	errs := make([][]error, cells)
	for i := range results {
		results[i] = make([]TrialResult, trials)
		errs[i] = make([]error, trials)
	}
	if cfg.Obs != nil {
		// The sweep-size gauges let a live status reader turn the
		// *_completed counters into progress.
		cfg.Obs.Gauge(metricTrialsTotal).Set(float64(cells * trials))
		cfg.Obs.Gauge(metricCellsTotal).Set(float64(cells))
	}
	// remaining tracks each cell's unfinished trials so the worker that
	// completes a cell's last trial can publish the cell-level wrap-up
	// (throughput gauge, completion counter, EventCellDone) while the
	// rest of the campus is still running.
	remaining := make([]atomic.Int64, cells)
	for i := range remaining {
		remaining[i].Store(int64(trials))
	}
	workers := effectiveWorkers(cfg, cfg.Workers, cells*trials)
	shard(cells*trials, workers, func(j int) {
		cell, trial := j/trials, j%trials
		c := cellCfgs[cell]
		c.Seed += int64(trial)
		c.cell, c.trial = cell, trial
		results[cell][trial], errs[cell][trial] = Run(c)
		if remaining[cell].Add(-1) == 0 {
			campusCellDone(cfg, cell, results[cell])
		}
	})
	for c := range errs {
		for t, err := range errs[c] {
			if err != nil {
				return CampusResult{}, fmt.Errorf("cell %d trial %d: %w", c, t, err)
			}
		}
	}

	out := CampusResult{PerCell: make([]Summary, cells)}
	for c := range results {
		out.PerCell[c] = Summarize(results[c])
		out.PerCell[c].Workers = workers
	}
	out.Campus = aggregateCampus(out.PerCell)
	out.Campus.Workers = workers
	return out, nil
}

// campusCellDone publishes a finished cell's wrap-up: its mean sum
// throughput as a live gauge, the campus completion counter, and the
// EventCellDone trace event. It runs on whichever worker finished the
// cell's last trial — by then every result in trials is written, so
// reading them races with nothing.
func campusCellDone(cfg Config, cell int, trials []TrialResult) {
	if cfg.Obs == nil && cfg.Trace == nil {
		return
	}
	var thr float64
	for _, tr := range trials {
		thr += tr.SumThroughputBitsPerSlot
	}
	if len(trials) > 0 {
		thr /= float64(len(trials))
	}
	if cfg.Obs != nil {
		cfg.Obs.Gauge(cellThroughputGauge(cell)).Set(thr)
		cfg.Obs.Counter(metricCellsCompleted).Inc()
	}
	if cfg.Trace != nil {
		cfg.Trace.Trace(Event{Kind: EventCellDone, Cell: cell,
			Trial: len(trials), Value: thr})
	}
}

// aggregateCampus folds per-cell summaries into the campus-wide view.
// Cells carry traffic concurrently on their own channels, so capacity
// metrics (throughput, packet counters, backend bytes) sum; airtime is
// the mean cell airtime; latency pools every delivered packet by
// merging the per-cell sketches in cell order — the pooled re-ranking
// the old delivered-weighted mean of per-cell percentiles could only
// approximate (it systematically under-read a congested cell's tail).
func aggregateCampus(cells []Summary) Summary {
	if len(cells) == 0 {
		return Summary{}
	}
	s := Summary{Trials: cells[0].Trials, Cycles: cells[0].Cycles}
	s.Latency = &stats.Sketch{}
	tpCells := 0
	for _, c := range cells {
		s.MeanSlots += c.MeanSlots
		s.PerClientThroughput = append(s.PerClientThroughput, c.PerClientThroughput...)
		s.SumThroughputBitsPerSlot += c.SumThroughputBitsPerSlot
		s.Latency.Merge(c.Latency)
		s.DeliveredPackets += c.DeliveredPackets
		s.OfferedPackets += c.OfferedPackets
		s.DroppedPackets += c.DroppedPackets
		s.BufferDroppedPackets += c.BufferDroppedPackets
		s.BackendBytes += c.BackendBytes
		s.WirelessBits += c.WirelessBits
		if c.Transport.Enabled {
			mergeTransport(&s.Transport, c.Transport, tpCells)
			tpCells++
		}
		mergeStream(&s.Stream, c.Stream, 0, 0)
	}
	s.MeanSlots /= float64(len(cells))
	if s.Stream.Enabled {
		// Cells carry their streams concurrently: energy pools against
		// the campus's delivered bits, goodput against the summed cell
		// airtimes (MeanSlots per cell times trials per cell).
		if s.WirelessBits > 0 {
			s.Stream.EnergyPerBit = s.Stream.EnergyUnits / float64(s.WirelessBits)
		}
		if total := s.MeanSlots * float64(len(cells)) * float64(s.Trials); total > 0 {
			s.Stream.GoodputBitsPerSlot = float64(s.WirelessBits) / total
		}
	}
	if s.Latency.Count() > 0 {
		s.MeanLatencySlots = s.Latency.Mean()
		s.P95LatencySlots = s.Latency.Quantile(95)
	}
	s.JainFairness = stats.JainFairness(s.PerClientThroughput)
	if s.OfferedPackets > 0 {
		s.DeliveredFraction = float64(s.DeliveredPackets) / float64(s.OfferedPackets)
	}
	if s.WirelessBits > 0 {
		s.BackendBytesPerWirelessBit = float64(s.BackendBytes) / float64(s.WirelessBits)
	}
	return s
}
