package testbed

import (
	"fmt"
	"math/rand"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/phy"
)

// SlotOutcome is one concurrent-transmission slot's result.
type SlotOutcome struct {
	// SumRate is the slot's total achievable rate (Eq. 9).
	SumRate float64
	// PerClient maps scenario client index to the rate its packets
	// achieved this slot.
	PerClient map[int]float64
	// PlannedPerClient maps scenario client index to the rate the leader
	// planned the client's packets at — the estimate-derived rate the MAC
	// selects its modulation from. Under stale CSI it can exceed what the
	// drifted channel actually carries (PerClient), which is how the
	// traffic engine detects outages. Filled only when planning through a
	// SlotCache with TrackPlannedRates on; nil otherwise.
	PlannedPerClient map[int]float64
	// Plan is the IAC plan that produced the outcome.
	Plan *core.Plan
	// Batched is how many direction products the batched planner
	// gathered into strided kernel dispatches producing this outcome —
	// candidate scorings plus the final evaluation. Zero from the scalar
	// reference path. The observability plane distributes it as the
	// batch size.
	Batched int
}

// RunUplinkSlot plans and evaluates one IAC uplink slot for the scenario.
// twoPacketRole selects which client transmits two packets this slot
// (the paper rotates this role round-robin, Section 10.1). Supported
// shapes: 2 clients x 2 APs (three packets, Fig. 4b) and the N-AP chain
// — the chain assignment's client count with 3 or more APs (2M packets,
// Fig. 5/Fig. 8, successive cancellation spread across up to M+2 APs).
//
// Planning runs on estimated channels; SINRs are measured on the true
// ones. All intermediate math runs on a pooled workspace.
func RunUplinkSlot(s Scenario, twoPacketRole int, rng *rand.Rand) (SlotOutcome, error) {
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	return RunUplinkSlotWS(ws, nil, s, twoPacketRole, rng)
}

// RunUplinkSlotWS is RunUplinkSlot with an explicit workspace and an
// optional channel memo. A nil cache draws fresh channel estimates for
// the slot (the paper's per-slot training); a non-nil cache reuses the
// epoch's per-pair estimates and skips re-deriving channel matrices.
// Planning runs through the batched slot planner (PlanSlots +
// EvaluateSlots), bitwise-identical to the scalar reference below.
func RunUplinkSlotWS(ws *phy.Workspace, cache *SlotCache, s Scenario, twoPacketRole int, rng *rand.Rand) (SlotOutcome, error) {
	slots, _ := PlanSlots(ws, cache, []SlotRequest{{S: s, Role: twoPacketRole}}, rng)
	outs, errs, _ := EvaluateSlots(ws, slots)
	return outs[0], errs[0]
}

// runUplinkSlotScalarWS is the historical one-evaluation-at-a-time slot
// runner, kept verbatim as the differential reference the batched
// planner's equivalence tests pin against.
func runUplinkSlotScalarWS(ws *phy.Workspace, cache *SlotCache, s Scenario, twoPacketRole int, rng *rand.Rand) (SlotOutcome, error) {
	nc, na := len(s.Clients), len(s.APs)
	if twoPacketRole < 0 || twoPacketRole >= nc {
		return SlotOutcome{}, fmt.Errorf("testbed: role %d out of range", twoPacketRole)
	}
	// Order clients so the two-packet client sits at transmitter 0.
	//iacvet:allow wsalloc:make historical differential reference kept verbatim (PR 8); one small index slice, off the batched hot path
	order := make([]int, 0, nc)
	order = append(order, twoPacketRole)
	for i := 0; i < nc; i++ {
		if i != twoPacketRole {
			order = append(order, i)
		}
	}
	var baseTrue, baseEst core.ChannelSet
	if cache == nil {
		baseTrue = Permute(s.UplinkChannels(), order)
		baseEst = EstimateEnv(baseTrue, s.Env, rng)
	} else {
		//iacvet:allow wsalloc:twin historical differential reference kept verbatim; its channel sets outlive the per-candidate arena marks
		baseTrue, baseEst = core.NewChannelSet(nc, na), core.NewChannelSet(nc, na)
		for i, o := range order {
			c := s.Clients[o]
			for j, ap := range s.APs {
				baseTrue[i][j] = cache.Channel(c, ap)
				baseEst[i][j] = cache.Estimated(c, ap, rng)
			}
		}
	}

	solve := func(ws *cmplxmat.Workspace, est core.ChannelSet) (*core.Plan, error) {
		m := est.Antennas()
		switch {
		case nc == 2 && na == 2:
			plan, err := core.SolveUplinkThreeWS(ws, est, rng)
			if err != nil {
				return nil, err
			}
			return &plan, nil
		case na >= 3 && nc == (core.UplinkChainAssignment{M: m}).NumClients():
			return core.SolveUplinkChainWS(ws, est, rng)
		default:
			return nil, fmt.Errorf("testbed: unsupported uplink shape %dx%d", nc, na)
		}
	}
	// The leader chooses which AP plays which role in the construction
	// by estimated rate (Section 7.1: the concurrency algorithm decides
	// AP assignments along with the vectors).
	track := (cache != nil && cache.trackPlanned) || s.Env.MCS != nil
	plan, trueCS, err := bestRxAssignment(ws.Mat, baseTrue, baseEst, solve, s.Env.planOpts(), track)
	if err != nil {
		return SlotOutcome{}, err
	}
	mark := ws.Mat.Mark()
	defer ws.Mat.Release(mark)
	ev, err := plan.EvaluateOptsWS(ws.Mat, trueCS, plan.PlannedChannels, s.Env.trueOptsFor(plan.PlannedSINR))
	if err != nil {
		return SlotOutcome{}, err
	}
	out := SlotOutcome{SumRate: ev.SumRate, PerClient: map[int]float64{}, Plan: plan.Plan}
	if mcs := s.Env.MCS; mcs != nil {
		// Discrete rate adaptation: each packet was committed to the
		// rung its planned SINR selected; it delivers that rung's bits
		// when the realized SINR clears the threshold, nothing on
		// outage.
		out.SumRate = 0
		for pkt, owner := range plan.Owner {
			r := mcs.AchievedRate(plan.PlannedSINR[pkt], ev.SINR[pkt])
			out.PerClient[order[owner]] += r
			out.SumRate += r
		}
	} else {
		for pkt, owner := range plan.Owner {
			out.PerClient[order[owner]] += ev.PacketRate[pkt]
		}
	}
	if plan.PlannedRate != nil {
		//iacvet:allow wsalloc:make returned outcome map; escapes the workspace lifetime by design
		out.PlannedPerClient = make(map[int]float64, len(out.PerClient))
		for pkt, owner := range plan.Owner {
			out.PlannedPerClient[order[owner]] += plan.PlannedRate[pkt]
		}
	}
	return out, nil
}

// solveCandidates is how many random-seeded solver attempts the leader
// evaluates per role assignment before committing to a plan.
const solveCandidates = 3

// plannedPlan bundles a solved plan with the channel estimates it was
// planned against (in the plan's receiver order) and, when requested,
// the per-packet rates the planner scored it at on those estimates.
type plannedPlan struct {
	*core.Plan
	PlannedChannels core.ChannelSet
	// PlannedRate is the winner's estimated per-packet rate, copied out
	// of the workspace before its scratch is released. Nil unless the
	// assignment search ran with trackPlanned. In MCS mode the rates
	// are already quantized to the shared table.
	PlannedRate []float64
	// PlannedSINR is the winner's estimated per-packet SINR, tracked
	// alongside PlannedRate — the quantity the MCS outage rule compares
	// the realized SINR against.
	PlannedSINR []float64
}

// solveFunc is one construction solver bound to a slot shape, running its
// intermediate math on the given workspace.
type solveFunc func(ws *cmplxmat.Workspace, est core.ChannelSet) (*core.Plan, error)

// bestTxAssignment mirrors bestRxAssignment over the transmitter axis
// (downlink: which AP carries which packet).
func bestTxAssignment(ws *cmplxmat.Workspace, trueCS, estCS core.ChannelSet, solve solveFunc, opts core.EvalOptions, trackPlanned bool) (plannedPlan, core.ChannelSet, error) {
	var best plannedPlan
	var bestTrue core.ChannelSet
	bestRate := -1.0
	var lastErr error
	for _, perm := range permutations(trueCS.NumTx()) {
		est := Permute(estCS, perm)
		for attempt := 0; attempt < solveCandidates; attempt++ {
			mark := ws.Mark()
			plan, err := solve(ws, est)
			if err != nil {
				lastErr = err
				ws.Release(mark)
				continue
			}
			ev, err := plan.EvaluateOptsWS(ws, est, est, opts)
			if err != nil {
				lastErr = err
				ws.Release(mark)
				continue
			}
			if ev.SumRate > bestRate {
				bestRate = ev.SumRate
				// Clone detaches the winner from the workspace before the
				// release below reclaims the candidate's memory.
				winner := plannedPlan{Plan: plan.Clone(), PlannedChannels: est}
				if trackPlanned {
					// The previous winner's buffers are dead; reuse them.
					winner.PlannedRate = append(best.PlannedRate[:0], ev.PacketRate...)
					if opts.Rate != nil {
						// Planner SINRs feed the MCS outage rule only;
						// dynamics-mode tracking skips them.
						winner.PlannedSINR = append(best.PlannedSINR[:0], ev.SINR...)
					}
				}
				best = winner
				bestTrue = Permute(trueCS, perm)
			}
			ws.Release(mark)
		}
	}
	if best.Plan == nil {
		return plannedPlan{}, nil, lastErr
	}
	return best, bestTrue, nil
}

// bestRxAssignment tries the receiver-role orderings of rxOrders (every
// permutation up to 3 APs, cyclic rotations beyond), solving on the
// estimated channels and scoring by the estimated sum rate, and returns
// the winner together with the true channels in the same order. Each
// attempt's scratch is released before the next begins — plans are
// heap-allocated, so keeping the winner is safe.
func bestRxAssignment(ws *cmplxmat.Workspace, trueCS, estCS core.ChannelSet, solve solveFunc, opts core.EvalOptions, trackPlanned bool) (plannedPlan, core.ChannelSet, error) {
	var best plannedPlan
	var bestTrue core.ChannelSet
	bestRate := -1.0
	var lastErr error
	for _, perm := range rxOrders(trueCS.NumRx()) {
		est := PermuteRx(estCS, perm)
		// Several solver attempts per role assignment: the solvers draw
		// random free vectors, and the leader keeps the candidate with
		// the best estimated rate (Section 7.2 estimates rates without
		// transmitting).
		for attempt := 0; attempt < solveCandidates; attempt++ {
			mark := ws.Mark()
			plan, err := solve(ws, est)
			if err != nil {
				lastErr = err
				ws.Release(mark)
				continue
			}
			// Score with the planner's knowledge only (estimates).
			ev, err := plan.EvaluateOptsWS(ws, est, est, opts)
			if err != nil {
				lastErr = err
				ws.Release(mark)
				continue
			}
			if ev.SumRate > bestRate {
				bestRate = ev.SumRate
				// Clone detaches the winner from the workspace before the
				// release below reclaims the candidate's memory.
				winner := plannedPlan{Plan: plan.Clone(), PlannedChannels: est}
				if trackPlanned {
					// The previous winner's buffers are dead; reuse them.
					winner.PlannedRate = append(best.PlannedRate[:0], ev.PacketRate...)
					if opts.Rate != nil {
						// Planner SINRs feed the MCS outage rule only;
						// dynamics-mode tracking skips them.
						winner.PlannedSINR = append(best.PlannedSINR[:0], ev.SINR...)
					}
				}
				best = winner
				bestTrue = PermuteRx(trueCS, perm)
			}
			ws.Release(mark)
		}
	}
	if best.Plan == nil {
		return plannedPlan{}, nil, lastErr
	}
	return best, bestTrue, nil
}

// RunDownlinkSlot plans and evaluates one IAC downlink slot. Supported
// shapes: 3 APs x 3 clients (triangle, Fig. 6) and 2 APs x 1 client
// (diversity selection, Fig. 14).
func RunDownlinkSlot(s Scenario, rng *rand.Rand) (SlotOutcome, error) {
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	return RunDownlinkSlotWS(ws, nil, s, rng)
}

// RunDownlinkSlotWS is RunDownlinkSlot with an explicit workspace and an
// optional channel memo (see RunUplinkSlotWS). Planning runs through
// the batched slot planner, bitwise-identical to the scalar reference
// below.
func RunDownlinkSlotWS(ws *phy.Workspace, cache *SlotCache, s Scenario, rng *rand.Rand) (SlotOutcome, error) {
	slots, _ := PlanSlots(ws, cache, []SlotRequest{{S: s, Downlink: true}}, rng)
	outs, errs, _ := EvaluateSlots(ws, slots)
	return outs[0], errs[0]
}

// runDownlinkSlotScalarWS is the historical scalar downlink runner,
// kept verbatim as the batched planner's differential reference.
func runDownlinkSlotScalarWS(ws *phy.Workspace, cache *SlotCache, s Scenario, rng *rand.Rand) (SlotOutcome, error) {
	nc, na := len(s.Clients), len(s.APs)
	var baseTrue, baseEst core.ChannelSet
	if cache == nil {
		baseTrue = s.DownlinkChannels()
		baseEst = EstimateEnv(baseTrue, s.Env, rng)
	} else {
		//iacvet:allow wsalloc:twin historical differential reference kept verbatim; its channel sets outlive the per-candidate arena marks
		baseTrue, baseEst = core.NewChannelSet(na, nc), core.NewChannelSet(na, nc)
		for i, ap := range s.APs {
			for j, c := range s.Clients {
				baseTrue[i][j] = cache.Channel(ap, c)
				baseEst[i][j] = cache.Estimated(ap, c, rng)
			}
		}
	}
	solve := func(ws *cmplxmat.Workspace, est core.ChannelSet) (*core.Plan, error) {
		switch {
		case nc == 3 && na == 3:
			return core.SolveDownlinkTriangleWS(ws, est)
		case nc == 1 && na == 2:
			return core.SolveDownlinkDiversity(est, rng, NodePower, s.Env.Noise())
		default:
			return nil, fmt.Errorf("testbed: unsupported downlink shape %dx%d clients/APs", nc, na)
		}
	}
	// Downlink roles: the permutation runs over the transmitter (AP)
	// axis here, deciding which AP carries which client's packet.
	track := (cache != nil && cache.trackPlanned) || s.Env.MCS != nil
	plan, trueCS, err := bestTxAssignment(ws.Mat, baseTrue, baseEst, solve, s.Env.planOpts(), track)
	if err != nil {
		return SlotOutcome{}, err
	}
	mark := ws.Mat.Mark()
	defer ws.Mat.Release(mark)
	ev, err := plan.EvaluateOptsWS(ws.Mat, trueCS, plan.PlannedChannels, s.Env.trueOptsFor(plan.PlannedSINR))
	if err != nil {
		return SlotOutcome{}, err
	}
	out := SlotOutcome{SumRate: ev.SumRate, PerClient: map[int]float64{}, Plan: plan.Plan}
	if plan.PlannedRate != nil {
		//iacvet:allow wsalloc:make returned outcome map; escapes the workspace lifetime by design
		out.PlannedPerClient = make(map[int]float64, len(out.PerClient))
	}
	mcs := s.Env.MCS
	if mcs != nil {
		out.SumRate = 0
	}
	for pkt := range plan.Owner {
		// Downlink packets are destined to the receiver that decodes
		// them; attribute each packet to that client.
		client := downlinkDestination(plan.Plan, pkt)
		if mcs != nil {
			r := mcs.AchievedRate(plan.PlannedSINR[pkt], ev.SINR[pkt])
			out.PerClient[client] += r
			out.SumRate += r
		} else {
			out.PerClient[client] += ev.PacketRate[pkt]
		}
		if out.PlannedPerClient != nil {
			out.PlannedPerClient[client] += plan.PlannedRate[pkt]
		}
	}
	return out, nil
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
// round-robin) and returns the average sum rate.
func AverageUplinkIAC(s Scenario, rng *rand.Rand) (float64, error) {
	ws := phy.GetWorkspace()
	defer phy.PutWorkspace(ws)
	var total float64
	n := 0
	for role := 0; role < len(s.Clients); role++ {
		out, err := RunUplinkSlotWS(ws, nil, s, role, rng)
		if err != nil {
			return 0, err
		}
		total += out.SumRate
		n++
	}
	return total / float64(n), nil
}
