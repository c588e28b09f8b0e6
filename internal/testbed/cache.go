package testbed

import (
	"fmt"
	"math"
	"math/rand"

	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/flat"
	"iaclan/internal/mimo"
	"iaclan/internal/phy"
)

// SlotCache memoizes the per-(tx,rx) quantities slot planning derives
// from a scenario's channel state: measured channel matrices (which cost
// two hardware-chain multiplications per lookup in the world), training
// estimates (one noise draw per pair), and per-client best-AP baseline
// rates (one SVD per AP). The combinatorial group pickers evaluate the
// same pairs across hundreds of candidate groups per contention-free
// period; with the cache, each eigendecomposition the planner needs runs
// once per channel epoch instead of once per candidate.
//
// Invalidation rule: every memo is keyed by the world's channel-state
// epoch (channel.World.Epoch). Any fading mutation — Redraw, MoveNode,
// Perturb — bumps the epoch, and every cached entry goes stale. Within
// one epoch a pair's estimate is drawn once and reused, so all slots
// planned in that epoch see one consistent channel survey, like APs
// sharing a measurement round over the wired backend.
//
// Storage is flat and nothing is dropped. Each directed pair the cache
// has seen owns one row of a chunked slab, found through an
// open-addressed index keyed by the packed (tx, rx) node IDs; the row's
// channel and estimate are cmplxmat.Views into one matrix slab, each
// stamped with the generation it was computed in. The first lookup
// after a stamp goes stale recomputes the matrix in place
// (channel.World.ChannelInto, channel.NoisyEstimateInto), with the same
// draws and bits as computing a fresh matrix. The per-client baseline
// rates are likewise stamped rows, one per client and direction. Storage
// therefore grows only with the pairs a trial actually touches, in
// O(log N) allocations for N pairs, and re-planning after a fading step
// allocates nothing. The price is the lifetime rule: a matrix returned
// by Channel or Estimated is valid only until its pair is refreshed —
// the next lookup of that pair after an epoch move (or, for estimates,
// a Retrain). Holders must not keep one across a fading step; the slot
// planner, the baselines and the survey read them within one call.
//
// Under the traffic engine's channel dynamics the estimate memo follows
// a different clock: SetManualRetrain pins training estimates across
// epoch moves so they refresh only on Retrain — the stale-CSI model
// where the channel decorrelates faster than the APs re-survey it.
// True channels and baseline rates always track the world epoch.
//
// A SlotCache is scoped to one scenario (its AP set anchors the baseline
// rates) and is not safe for concurrent use; each simulation trial owns
// one, which keeps sharded trial sweeps bit-identical to serial runs. In
// a multi-cell campus every cell is its own scenario with its own cache.
// The channel and estimate memos are keyed by node-ID pair, so slot
// runners handed any subset of the scenario's AP set (the N-AP chain
// uses up to M+2 of them per slot) share one consistent survey.
type SlotCache struct {
	scenario Scenario
	epoch    uint64
	// pairs indexes entries by packed directed node-ID pair; an entry is
	// added the first time its pair is looked up and never removed. The
	// entries' matrices are views into mats.
	pairs   flat.Index
	entries flat.Slab[pairEntry]
	mats    flat.Slab[complex128]
	// chanGen and estGen are the current channel and survey
	// generations: chanGen moves with the world epoch, estGen with it
	// too unless manual re-training pins estimates, and on Retrain.
	// adaptGen moves on either, for the adapted baselines that read
	// both. An entry is fresh while its stamp equals the current
	// generation; all start at 1, so a zero stamp is never fresh.
	chanGen, estGen, adaptGen uint64
	// base and adapted memoize the per-client baseline rates, at
	// 2*client+uplink, stamped with chanGen and adaptGen. Each is sized
	// to the scenario's clients on first use: a one-slot cache never
	// needs them, and only MCS-mode trials use adapted.
	base, adapted []rateMemo
	// manualRetrain decouples the estimate memo from the world epoch:
	// estimates survive fading mutations and drop only on Retrain.
	manualRetrain bool
	// trackPlanned asks the slot runners to report the planner's
	// estimate-derived rates alongside the achieved ones (see
	// SlotOutcome.PlannedPerClient), so a MAC can detect outages.
	trackPlanned bool
	// hits and misses count memo lookups across every memo (channels,
	// estimates, baseline rates, adapted baselines) — the cache's
	// effectiveness signal the traffic engine surfaces as the
	// slotcache_hits / slotcache_misses metrics. Plain fields: the
	// cache is single-owner like the rest of its state.
	hits, misses uint64
	// ws is the scratch for channel products and baseline math,
	// released after each use: own, or for a one-slot cache the
	// planner's workspace.
	ws  *cmplxmat.Workspace
	own cmplxmat.Workspace
	// plan is the slot planner's reusable search state (see planSlot).
	plan planScratch
}

// pairEntry is one directed pair's channel and estimate, each with the
// generation it was computed in (0 before the first computation, when
// the view is still empty).
type pairEntry struct {
	h, est           cmplxmat.Matrix
	hStamp, estStamp uint64
}

// pairID packs a directed transmitter->receiver pair of node IDs into
// one index key.
func pairID(tx, rx int) uint64 {
	if uint(tx) > math.MaxUint32 || uint(rx) > math.MaxUint32 {
		panic(fmt.Sprintf("testbed: node pair (%d, %d) outside the 32-bit key fields", tx, rx))
	}
	return uint64(tx)<<32 | uint64(rx)
}

// rateMemo is one memoized baseline: the rate (planned, for an adapted
// baseline, with the achieved one) and the generation it holds for.
type rateMemo struct {
	planned, achieved float64
	gen               uint64
}

// NewSlotCache creates an empty cache bound to the scenario's world and
// AP set.
func NewSlotCache(s Scenario) *SlotCache {
	return newSlotCache(s, nil)
}

// newSlotCache is NewSlotCache on the scratch workspace ws, or its own
// when ws is nil.
func newSlotCache(s Scenario, ws *cmplxmat.Workspace) *SlotCache {
	c := &SlotCache{
		scenario: s,
		epoch:    s.World.Epoch(),
		chanGen:  1,
		estGen:   1,
		adaptGen: 1,
		ws:       ws,
	}
	if ws == nil {
		c.ws = &c.own
	}
	return c
}

// slotCache returns the one-slot cache of the paper's per-slot
// training for s, on the planner's workspace ws, so it allocates little
// beyond its first slab chunks.
func slotCache(ws *phy.Workspace, s Scenario) *SlotCache {
	return newSlotCache(s, ws.Mat)
}

// SetManualRetrain selects the estimate-invalidation clock. Off (the
// default), every epoch move implies a fresh channel survey: estimates
// go stale with the rest of the memos. On, estimates survive epoch moves and
// refresh only when Retrain is called — planners keep working from the
// last survey while the true channel drifts, which is exactly the stale
// CSI the paper's Section 8 coherence measurements are about.
func (c *SlotCache) SetManualRetrain(on bool) { c.manualRetrain = on }

// TrackPlannedRates toggles planned-rate reporting in the slot runners
// (SlotOutcome.PlannedPerClient). Off by default so static runs pay no
// extra allocation.
func (c *SlotCache) TrackPlannedRates(on bool) { c.trackPlanned = on }

// Counters reports the cumulative memo hit and miss totals over the
// cache's lifetime (invalidations do not reset them). A miss is a
// lookup that had to compute — a channel measurement, an estimate
// draw, or a baseline eigendecomposition.
func (c *SlotCache) Counters() (hits, misses uint64) { return c.hits, c.misses }

// Retrain models one training round: every cached estimate goes stale,
// so the next lookups re-survey the current channel state. True channels
// and baseline rates are keyed to the world epoch and are unaffected;
// the adapted-baseline memo depends on the estimates and drops with
// them.
func (c *SlotCache) Retrain() {
	c.estGen++
	c.adaptGen++
}

// ensure moves the cache to the world's channel epoch when it has moved:
// channel entries and baseline memos go stale. Estimates follow the
// epoch too unless manual re-training pins them (see SetManualRetrain).
func (c *SlotCache) ensure() {
	if e := c.scenario.World.Epoch(); e != c.epoch {
		c.chanGen++
		if !c.manualRetrain {
			c.estGen++
		}
		c.adaptGen++
		c.epoch = e
	}
}

// entry returns the pair's entry, adding an empty one on the pair's
// first lookup. Entries never move.
func (c *SlotCache) entry(tx, rx *channel.Node) *pairEntry {
	k := pairID(tx.ID, rx.ID)
	i, ok := c.pairs.Get(k)
	if !ok {
		n, _ := c.entries.Take(1)
		i = int32(n) // past MaxInt32 entries this wraps, and Put panics
		c.pairs.Put(k, i)
	}
	return c.entries.At(int(i))
}

// view sets m, on first use, to a rows x cols view of fresh slab storage.
func (c *SlotCache) view(m *cmplxmat.Matrix, rows, cols int) {
	if m.Rows() == 0 {
		_, d := c.mats.Take(rows * cols)
		*m = cmplxmat.View(rows, cols, d)
	}
}

// Channel returns the measured tx->rx channel matrix, computing it on
// the first lookup per epoch. The returned matrix is shared; treat it as
// read-only (the package convention for all channel matrices). It is
// the pair's own storage, refreshed in place by the first lookup after
// the next epoch move, so it is valid only until then: do not keep it
// across a fading step.
func (c *SlotCache) Channel(tx, rx *channel.Node) *cmplxmat.Matrix {
	c.ensure()
	return c.channelOf(c.entry(tx, rx), tx, rx)
}

// channelOf is Channel on an already-resolved entry.
func (c *SlotCache) channelOf(e *pairEntry, tx, rx *channel.Node) *cmplxmat.Matrix {
	if e.hStamp == c.chanGen {
		c.hits++
		return &e.h
	}
	c.misses++
	c.view(&e.h, rx.Antennas, tx.Antennas)
	c.scenario.World.ChannelInto(&e.h, c.ws, tx, rx)
	e.hStamp = c.chanGen
	return &e.h
}

// Estimated returns the training-noise-corrupted estimate of the tx->rx
// channel, drawing the estimation noise from rng once per pair per
// survey. Like Channel, the matrix is the pair's own storage and is
// valid until the pair is next re-surveyed.
func (c *SlotCache) Estimated(tx, rx *channel.Node, rng *rand.Rand) *cmplxmat.Matrix {
	c.ensure()
	e := c.entry(tx, rx)
	if e.estStamp == c.estGen {
		c.hits++
		return &e.est
	}
	c.misses++
	h := c.channelOf(e, tx, rx)
	c.view(&e.est, h.Rows(), h.Cols())
	channel.NoisyEstimateInto(&e.est, h, c.scenario.Env.EstimationSigma(), rng)
	e.estStamp = c.estGen
	return &e.est
}

// memo returns the client's baseline row in rows (sizing rows to the
// scenario's clients on first use, so rows never move) and whether it
// holds for gen.
func (c *SlotCache) memo(rows *[]rateMemo, client int, uplink bool, gen uint64) (*rateMemo, bool) {
	if *rows == nil {
		*rows = make([]rateMemo, 2*len(c.scenario.Clients))
	}
	i := 2 * client
	if uplink {
		i++
	}
	m := &(*rows)[i]
	return m, m.gen == gen
}

// BaselineUplinkRate is BaselineUplinkRate for the cache's scenario,
// memoized per client per epoch. The underlying best-AP eigenmode search
// runs on workspace scratch, so a warm cache answers without allocating.
func (c *SlotCache) BaselineUplinkRate(client int) float64 {
	return c.baselineRate(client, true)
}

// BaselineDownlinkRate is BaselineDownlinkRate for the cache's scenario,
// memoized per client per epoch.
func (c *SlotCache) BaselineDownlinkRate(client int) float64 {
	return c.baselineRate(client, false)
}

func (c *SlotCache) baselineRate(client int, uplink bool) float64 {
	c.ensure()
	m, ok := c.memo(&c.base, client, uplink, c.chanGen)
	if ok {
		c.hits++
		return m.planned
	}
	c.misses++
	mark := c.ws.Mark()
	defer c.ws.Release(mark)
	best := math.Inf(-1)
	for _, ap := range c.scenario.APs {
		var h *cmplxmat.Matrix
		if uplink {
			h = c.Channel(c.scenario.Clients[client], ap)
		} else {
			h = c.Channel(ap, c.scenario.Clients[client])
		}
		if r := mimo.EigenmodeRateWS(c.ws, h, NodePower, c.scenario.Env.Noise()); r > best {
			best = r
		}
	}
	*m = rateMemo{planned: best, gen: c.chanGen}
	return best
}

// AdaptedBaselineUplink is the client's 802.11-MIMO uplink link under
// the scenario's shared MCS table: rate selection on the training
// estimates, realized SINRs on the true channel, per-stream outage.
// Returns (planned, achieved) in bit/s/Hz, memoized until either the
// channel epoch or the training clock moves. The scenario Env must have
// MCS set.
func (c *SlotCache) AdaptedBaselineUplink(client int, rng *rand.Rand) (planned, achieved float64) {
	return c.adaptedBaseline(client, true, rng)
}

// AdaptedBaselineDownlink is AdaptedBaselineUplink for the downlink.
func (c *SlotCache) AdaptedBaselineDownlink(client int, rng *rand.Rand) (planned, achieved float64) {
	return c.adaptedBaseline(client, false, rng)
}

func (c *SlotCache) adaptedBaseline(client int, uplink bool, rng *rand.Rand) (planned, achieved float64) {
	table := c.scenario.Env.MCS
	if table == nil {
		panic("testbed: adapted baseline needs Env.MCS")
	}
	c.ensure()
	m, ok := c.memo(&c.adapted, client, uplink, c.adaptGen)
	if ok {
		c.hits++
		return m.planned, m.achieved
	}
	c.misses++
	mark := c.ws.Mark()
	defer c.ws.Release(mark)
	trueChans := c.ws.MatrixPtrs(len(c.scenario.APs))
	estChans := c.ws.MatrixPtrs(len(c.scenario.APs))
	for j, ap := range c.scenario.APs {
		if uplink {
			trueChans[j] = c.Channel(c.scenario.Clients[client], ap)
			estChans[j] = c.Estimated(c.scenario.Clients[client], ap, rng)
		} else {
			trueChans[j] = c.Channel(ap, c.scenario.Clients[client])
			estChans[j] = c.Estimated(ap, c.scenario.Clients[client], rng)
		}
	}
	planned, achieved = mimo.AdaptedBestAPWS(c.ws, table, trueChans, estChans, NodePower, c.scenario.Env.Noise())
	*m = rateMemo{planned, achieved, c.adaptGen}
	return planned, achieved
}
