package testbed

import (
	"math/rand"
	"slices"

	"iaclan/internal/core"
	"iaclan/internal/phy"
)

// SlotOutcome is one concurrent-transmission slot's result.
//
// From RunUplinkSlotWS/RunDownlinkSlotWS the outcome is a view: Plan,
// PerClient and PlannedPerClient point into the workspace arena and the
// planner scratch of the cache the slot ran through, and are valid until
// the next use of that workspace or cache. Copy out what must live
// longer. RunUplinkSlot/RunDownlinkSlot return detached heap copies.
type SlotOutcome struct {
	// SumRate is the slot's total achievable rate (Eq. 9).
	SumRate float64
	// PerClient[i] is the rate scenario client i's packets achieved this
	// slot. Every supported shape gives every client at least one
	// packet.
	PerClient []float64
	// PlannedPerClient[i] is the rate the leader planned client i's
	// packets at — the estimate-derived rate the MAC selects its
	// modulation from. Under stale CSI it can exceed what the drifted
	// channel actually carries (PerClient), which is how the traffic
	// engine detects outages. Filled when planning through a SlotCache
	// with TrackPlannedRates on, or under the MCS table; nil otherwise.
	PlannedPerClient []float64
	// Plan is the IAC plan that produced the outcome.
	Plan *core.Plan
	// Batched is how many channel-direction products the planner's
	// evaluations computed for this outcome (core.Evaluation.Products):
	// every candidate scoring plus the final evaluation. The
	// observability plane distributes it as sim_batch_products.
	Batched int
}

// detach copies the outcome's views onto the heap.
func (o SlotOutcome) detach() SlotOutcome {
	if o.Plan != nil {
		o.Plan = o.Plan.Clone()
	}
	o.PerClient = slices.Clone(o.PerClient)
	o.PlannedPerClient = slices.Clone(o.PlannedPerClient)
	return o
}

// RunUplinkSlot plans and evaluates one IAC uplink slot for the scenario.
// twoPacketRole selects which client transmits two packets this slot
// (the paper rotates this role round-robin, Section 10.1). Supported
// shapes: 2 clients x 2 APs (three packets, Fig. 4b) and the N-AP chain
// — the chain assignment's client count with 3 or more APs (2M packets,
// Fig. 5/Fig. 8, successive cancellation spread across up to M+2 APs).
//
// Planning runs on estimated channels; SINRs are measured on the true
// ones. The slot draws fresh channel estimates (the paper's per-slot
// training) through a cache of its own. All intermediate math runs on
// a pooled workspace, and the returned outcome is a heap copy.
func RunUplinkSlot(s Scenario, twoPacketRole int, rng *rand.Rand) (SlotOutcome, error) {
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	out, err := RunUplinkSlotWS(ws, NewSlotCache(s), s, twoPacketRole, rng)
	return out.detach(), err
}

// RunUplinkSlotWS is RunUplinkSlot with an explicit workspace and the
// channel survey the slot plans through, which must not be nil. A
// cache reused across slots reuses its survey's per-pair estimates; a
// fresh NewSlotCache(s) per slot is the paper's per-slot training. The
// cache also lends the planner its reusable scratch. The outcome is a
// view (see SlotOutcome).
func RunUplinkSlotWS(ws *phy.Workspace, cache *SlotCache, s Scenario, twoPacketRole int, rng *rand.Rand) (SlotOutcome, error) {
	return planSlot(ws, cache, s, false, twoPacketRole, rng)
}

// solveCandidates is how many random-seeded solver attempts the leader
// evaluates per role assignment before committing to a plan. A shape
// whose solver draws no randomness runs one (shapeSolver.candidates).
const solveCandidates = 3

// RunDownlinkSlot plans and evaluates one IAC downlink slot. Supported
// shapes: 3 APs x 3 clients (triangle, Fig. 6) and 2 APs x 1 client
// (diversity selection, Fig. 14).
func RunDownlinkSlot(s Scenario, rng *rand.Rand) (SlotOutcome, error) {
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	out, err := RunDownlinkSlotWS(ws, NewSlotCache(s), s, rng)
	return out.detach(), err
}

// RunDownlinkSlotWS is RunDownlinkSlot with an explicit workspace and a
// non-nil channel survey (see RunUplinkSlotWS). The outcome is a view.
func RunDownlinkSlotWS(ws *phy.Workspace, cache *SlotCache, s Scenario, rng *rand.Rand) (SlotOutcome, error) {
	return planSlot(ws, cache, s, true, 0, rng)
}

// downlinkDestination finds which receiver decodes the packet.
func downlinkDestination(plan *core.Plan, pkt int) int {
	for _, step := range plan.Schedule {
		for _, p := range step.Packets {
			if p == pkt {
				return step.Rx
			}
		}
	}
	return -1 // unreachable for validated plans
}

// AverageUplinkIAC runs one slot per two-packet role (the paper's
// round-robin), each with fresh channel estimates, and returns the
// average sum rate.
func AverageUplinkIAC(s Scenario, rng *rand.Rand) (float64, error) {
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	var total float64
	n := 0
	for role := 0; role < len(s.Clients); role++ {
		out, err := RunUplinkSlotWS(ws, NewSlotCache(s), s, role, rng)
		if err != nil {
			return 0, err
		}
		total += out.SumRate
		n++
	}
	return total / float64(n), nil
}
