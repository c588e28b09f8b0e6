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

// SlotCache memoizes what slot planning derives from a scenario's
// channel state at the cost of a draw or an eigendecomposition: training
// estimates (one noise draw per pair) and per-client best-AP baseline
// rates (one SVD per AP). True channels have one home, the world; every
// reader measures them from it (channel.World.ChannelInto).
// The group pickers evaluate the same pairs across hundreds of
// candidate groups per contention-free period; with the cache, each
// estimate and baseline is computed once per channel epoch instead.
//
// Invalidation rule: every memo is keyed by the world's channel-state
// epoch (channel.World.Epoch). Any fading mutation — Redraw, MoveNode,
// Perturb — bumps the epoch, and every cached entry goes stale. Within
// one epoch a pair's estimate is drawn once and reused, so all slots
// planned in that epoch see one consistent channel survey, like APs
// sharing a measurement round over the wired backend. Generation is
// the clock that moves on an epoch move or a Retrain, which callers'
// estimate-derived memos (the engine's group plans) key on.
//
// Storage is flat and nothing is dropped. Each directed pair the cache
// has seen owns one row of a chunked slab, found through an
// open-addressed index keyed by the packed (tx, rx) node IDs; the row's
// estimate is a cmplxmat.View into one matrix slab, stamped with the
// survey generation it was drawn in. The first lookup after a stamp
// goes stale redraws the estimate in place (channel.NoisyEstimateInto),
// with the same draws and bits as drawing a fresh matrix. The
// per-client baseline rates are likewise stamped rows, one per client
// and direction. Storage therefore grows only with the pairs a trial
// actually touches, in O(log N) allocations for N pairs, and re-planning
// after a fading step allocates nothing. The price is the lifetime
// rule: a matrix returned by Estimated is valid only until its pair is
// re-surveyed — the next lookup of that pair after an epoch move (or,
// under manual re-training, a Retrain). Holders must not keep one across
// a fading step; the slot planner, the baselines and the survey read
// them within one call.
//
// Under the traffic engine's channel dynamics the estimate memo follows
// a different clock: SetManualRetrain pins training estimates across
// epoch moves so they refresh only on Retrain — the stale-CSI model
// where the channel decorrelates faster than the APs re-survey it.
// Baseline rates always track the world epoch.
//
// A SlotCache is scoped to one scenario (its AP set anchors the baseline
// rates) and is not safe for concurrent use; each simulation trial owns
// one, which keeps sharded trial sweeps bit-identical to serial runs. In
// a multi-cell campus every cell is its own scenario with its own cache.
// The estimate memo is keyed by node-ID pair, so slot runners handed
// any subset of the scenario's AP set (the N-AP chain uses up to M+2 of
// them per slot) share one consistent survey.
type SlotCache struct {
	scenario Scenario
	epoch    uint64
	// pairs indexes entries by packed directed node-ID pair; an entry is
	// added the first time its pair is looked up and never removed. The
	// entries' estimates are views into mats.
	pairs   flat.Index
	entries flat.Slab[pairEntry]
	mats    flat.Slab[complex128]
	// chanGen and estGen are the current channel and survey
	// generations: chanGen moves with the world epoch, estGen with it
	// too unless manual re-training pins estimates, and on Retrain. gen
	// moves on either, for the adapted baselines that read both (and
	// for Generation's callers). A memo is fresh while its stamp equals
	// the current generation; all start at 1, so a zero stamp is never
	// fresh.
	chanGen, estGen, gen uint64
	// base and adapted memoize the per-client baseline rates, at
	// 2*client+uplink, stamped with chanGen and gen. Each is sized
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
	// hits and misses count memo lookups across every memo (estimates,
	// baseline rates, adapted baselines) — the cache's effectiveness
	// signal the traffic engine surfaces as the slotcache_hits /
	// slotcache_misses metrics. Plain fields: the cache is single-owner
	// like the rest of its state.
	hits, misses uint64
	// ws is the scratch for channel measurements and baseline math,
	// released after each use: own, or for a one-slot cache the
	// planner's workspace.
	ws  *cmplxmat.Workspace
	own cmplxmat.Workspace
	// plan is the slot planner's reusable search state (see planSlot).
	plan planScratch
}

// pairEntry is one directed pair's estimate and the survey generation
// it was drawn in (0 before the first draw, when the view is still
// empty).
type pairEntry struct {
	est   cmplxmat.Matrix
	stamp uint64
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
		gen:      1,
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
// lookup that had to compute — an estimate draw or a baseline
// eigendecomposition.
func (c *SlotCache) Counters() (hits, misses uint64) { return c.hits, c.misses }

// Retrain models one training round: every cached estimate goes stale,
// so the next lookups re-survey the current channel state. Baseline
// rates are keyed to the world epoch and are unaffected; the
// adapted-baseline memo depends on the estimates and drops with them.
func (c *SlotCache) Retrain() {
	c.estGen++
	c.gen++
}

// Generation returns the clock every estimate-derived result is valid
// under: it moves when the world's channel epoch moves and on Retrain.
// A memo stamped with one generation is stale under any other.
func (c *SlotCache) Generation() uint64 {
	c.ensure()
	return c.gen
}

// ensure moves the cache to the world's channel epoch when it has moved:
// baseline memos go stale. Estimates follow the epoch too unless manual
// re-training pins them (see SetManualRetrain).
func (c *SlotCache) ensure() {
	if e := c.scenario.World.Epoch(); e != c.epoch {
		c.chanGen++
		if !c.manualRetrain {
			c.estGen++
		}
		c.gen++
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

// Estimated returns the training-noise-corrupted estimate of the tx->rx
// channel: the world's current channel plus estimation noise drawn from
// rng once per pair per survey. The matrix is the pair's own storage,
// read-only and valid until the pair is next re-surveyed.
func (c *SlotCache) Estimated(tx, rx *channel.Node, rng *rand.Rand) *cmplxmat.Matrix {
	c.ensure()
	e := c.entry(tx, rx)
	if e.stamp == c.estGen {
		c.hits++
		return &e.est
	}
	c.misses++
	if e.est.Rows() == 0 {
		_, d := c.mats.Take(rx.Antennas * tx.Antennas)
		e.est = cmplxmat.View(rx.Antennas, tx.Antennas, d)
	}
	// Measure the channel into the estimate's own storage, then noise it
	// in place: entry by entry, the same values and draws as noising a
	// separate copy.
	c.scenario.World.ChannelInto(&e.est, c.ws, tx, rx)
	channel.NoisyEstimateInto(&e.est, &e.est, c.scenario.Env.EstimationSigma(), rng)
	e.stamp = c.estGen
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
	// mimo.BestAPWS's loop, inlined: its []*Matrix would cost a fresh
	// cache's workspace one more arena chunk, an allocation per trial.
	w, cl := c.scenario.World, c.scenario.Clients[client]
	best := math.Inf(-1)
	for _, ap := range c.scenario.APs {
		var h *cmplxmat.Matrix
		if uplink {
			h = w.ChannelWS(c.ws, cl, ap)
		} else {
			h = w.ChannelWS(c.ws, ap, cl)
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
	m, ok := c.memo(&c.adapted, client, uplink, c.gen)
	if ok {
		c.hits++
		return m.planned, m.achieved
	}
	c.misses++
	mark := c.ws.Mark()
	defer c.ws.Release(mark)
	w, cl := c.scenario.World, c.scenario.Clients[client]
	trueChans := c.ws.MatrixPtrs(len(c.scenario.APs))
	estChans := c.ws.MatrixPtrs(len(c.scenario.APs))
	for j, ap := range c.scenario.APs {
		if uplink {
			trueChans[j] = w.ChannelWS(c.ws, cl, ap)
			estChans[j] = c.Estimated(cl, ap, rng)
		} else {
			trueChans[j] = w.ChannelWS(c.ws, ap, cl)
			estChans[j] = c.Estimated(ap, cl, rng)
		}
	}
	planned, achieved = mimo.AdaptedBestAPWS(c.ws, table, trueChans, estChans, NodePower, c.scenario.Env.Noise())
	*m = rateMemo{planned, achieved, c.gen}
	return planned, achieved
}
