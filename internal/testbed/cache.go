package testbed

import (
	"fmt"
	"math"
	"math/rand"

	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/flat"
	"iaclan/internal/mimo"
)

// SlotCache is the leader's channel survey (paper Section 7.1): the
// training estimates of the last survey, one per directed pair, drawn
// on the pair's first lookup after a Retrain and reused by every slot
// planned until the next one, like APs sharing a measurement round over
// the wired backend. It also lends the slot planner its reusable
// scratch. True channels have one home, the world, and the baselines
// are computations over it (BaselineRateWS, AdaptedBaselineWS): nothing
// else is memoized here.
//
// One clock: estimates refresh only on Retrain. A fading mutation
// (Redraw, MoveNode, Perturb) moves the world's epoch but leaves the
// survey standing, which is the stale CSI the paper's Section 8
// coherence measurements are about; the traffic engine re-trains on its
// own schedule. Generation moves on either an epoch move or a Retrain,
// and is the key every memo derived from estimates and true channels
// (the engine's group plans) holds under.
//
// Storage is flat and nothing is dropped. Each directed pair the cache
// has seen owns one row of a chunked slab, found through an
// open-addressed index keyed by the packed (tx, rx) node IDs; the row's
// estimate is a cmplxmat.View into one matrix slab, stamped with the
// survey it was drawn in. The first lookup after a Retrain redraws the
// estimate in place (channel.NoisyEstimateInto), with the same draws and
// bits as drawing a fresh matrix. Storage therefore grows only with the
// pairs a trial actually touches, in O(log N) allocations for N pairs,
// and re-planning allocates nothing. The price is the lifetime rule: a
// matrix returned by Estimated is valid only until its pair is
// re-surveyed, at its next lookup after a Retrain.
//
// A SlotCache is scoped to one scenario and is not safe for concurrent
// use; each simulation trial owns one, which keeps sharded trial sweeps
// bit-identical to serial runs. In a multi-cell campus every cell is
// its own scenario with its own cache. The survey is keyed by node-ID
// pair, so slot runners handed any subset of the scenario's AP set (the
// N-AP chain uses up to M+2 of them per slot) share it.
type SlotCache struct {
	scenario Scenario
	// pairs indexes entries by packed directed node-ID pair; an entry is
	// added the first time its pair is looked up and never removed. The
	// entries' estimates are views into mats.
	pairs   flat.Index
	entries flat.Slab[pairEntry]
	mats    flat.Slab[complex128]
	// survey counts training rounds, starting at 1 so that an entry's
	// zero stamp is never current.
	survey uint64
	// trackPlanned asks the slot runners to report the planner's
	// estimate-derived rates alongside the achieved ones (see
	// SlotOutcome.PlannedPerClient), so a MAC can detect outages.
	trackPlanned bool
	// hits and misses count estimate lookups, the survey's effectiveness
	// signal the traffic engine surfaces as the slotcache_hits /
	// slotcache_misses metrics.
	hits, misses uint64
	// plan is the slot planner's reusable search state (see planSlot).
	plan planScratch
}

// pairEntry is one directed pair's estimate and the survey it was drawn
// in (0 before the first draw, when the view is still empty).
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

// NewSlotCache creates an empty survey of the scenario's world.
func NewSlotCache(s Scenario) *SlotCache {
	return &SlotCache{scenario: s, survey: 1}
}

// TrackPlannedRates toggles planned-rate reporting in the slot runners
// (SlotOutcome.PlannedPerClient). Off by default so static runs pay no
// extra allocation; the MCS table turns it on regardless.
func (c *SlotCache) TrackPlannedRates(on bool) { c.trackPlanned = on }

// Counters reports the cumulative estimate hit and miss totals over the
// cache's lifetime (a Retrain does not reset them). A miss is a lookup
// that drew a fresh estimate.
func (c *SlotCache) Counters() (hits, misses uint64) { return c.hits, c.misses }

// Retrain models one training round: every estimate goes stale, so the
// next lookups re-survey the current channel state.
func (c *SlotCache) Retrain() { c.survey++ }

// Generation returns the clock every result derived from the estimates
// and the true channels is valid under. It is the sum of the world's
// channel epoch and the survey count, so it moves whenever either does
// and never returns to an earlier value.
func (c *SlotCache) Generation() uint64 { return c.scenario.World.Epoch() + c.survey }

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
// channel: the world's channel at the pair's first lookup since the last
// Retrain plus estimation noise drawn from rng, once per pair per
// survey. The matrix is the pair's own storage, read-only and valid
// until the pair is next re-surveyed.
func (c *SlotCache) Estimated(tx, rx *channel.Node, rng *rand.Rand) *cmplxmat.Matrix {
	e := c.entry(tx, rx)
	if e.stamp == c.survey {
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
	c.scenario.World.ChannelInto(&e.est, tx, rx)
	channel.NoisyEstimateInto(&e.est, &e.est, c.scenario.Env.EstimationSigma(), rng)
	e.stamp = c.survey
	return &e.est
}

// AdaptedBaselineWS is the client's 802.11-MIMO link under the
// scenario's shared MCS table: rate selection on the survey's
// estimates, realized SINRs on the true channels, per-stream outage, at
// the AP with the best planned rate. Per AP it measures the true channel
// and then looks up the estimate, so a pair's first measurement draws
// its fading before its estimate draws noise. Returns (planned,
// achieved) in bit/s/Hz, with its scratch in ws. The scenario Env must
// have MCS set.
func (c *SlotCache) AdaptedBaselineWS(ws *cmplxmat.Workspace, client int, uplink bool, rng *rand.Rand) (planned, achieved float64) {
	s := c.scenario
	if s.Env.MCS == nil {
		panic("testbed: adapted baseline needs Env.MCS")
	}
	mark := ws.Mark()
	defer ws.Release(mark)
	trueChans := ws.MatrixPtrs(len(s.APs))
	estChans := ws.MatrixPtrs(len(s.APs))
	for j, ap := range s.APs {
		tx, rx := s.Clients[client], ap
		if !uplink {
			tx, rx = rx, tx
		}
		trueChans[j] = s.World.ChannelWS(ws, tx, rx)
		estChans[j] = c.Estimated(tx, rx, rng)
	}
	return mimo.AdaptedBestAPWS(ws, s.Env.MCS, trueChans, estChans, NodePower, s.Env.Noise())
}
