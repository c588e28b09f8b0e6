package testbed

import (
	"fmt"
	"math/rand"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/phy"
)

// The scalar slot search: the planner's test-only oracle. Like the
// planner it scores each solver attempt as it is solved, through the one
// slot evaluator (core.Plan.EvaluateWS, itself pinned against core's
// scalar SINR recursion). Its independence lies in the search: heap
// channel sets built by Permute/PermuteRx instead of arena views, a
// Mark/Release per attempt, each new winner cloned out of the arena and
// the outcome allocated on the heap, where the planner reads its winner
// in place. TestBatchedSlotRunnerMatchesScalar pins the two bit for bit.

// The scalar search's heap channel sets: the scenario's uplink set
// straight from the world, fresh estimates of a whole set, and the
// role permutations along either axis.

// UplinkChannels returns the true client->AP channel set.
func (s Scenario) UplinkChannels() core.ChannelSet {
	cs := core.NewChannelSet(len(s.Clients), len(s.APs))
	for i, c := range s.Clients {
		for j, ap := range s.APs {
			cs[i][j] = s.World.Channel(c, ap)
		}
	}
	return cs
}

// EstimateEnv is Estimate at an explicit operating point: the estimate
// noise scales with the environment's receiver noise power.
func EstimateEnv(cs core.ChannelSet, env Env, rng *rand.Rand) core.ChannelSet {
	return estimateWith(cs, env.EstimationSigma(), rng)
}

// Permute reorders the transmitter axis of a channel set, used to rotate
// which client plays the two-packet role across slots.
func Permute(cs core.ChannelSet, order []int) core.ChannelSet {
	out := make(core.ChannelSet, len(order))
	for i, o := range order {
		out[i] = cs[o]
	}
	return out
}

// PermuteRx reorders the receiver axis of a channel set, used to choose
// which AP plays which role in a construction (the concurrency algorithm
// "decides which AP serves which client in a transmission group",
// Section 7.1).
func PermuteRx(cs core.ChannelSet, order []int) core.ChannelSet {
	out := core.NewChannelSet(cs.NumTx(), len(order))
	for t := range cs {
		for j, o := range order {
			out[t][j] = cs[t][o]
		}
	}
	return out
}

// planOpts is planScratch.planOpts as the scalar search builds it, one
// closure set per slot. The options the leader scores candidate plans
// with (estimates only): it anticipates its own residual floor and, in
// MCS mode, quantizes candidate rates to the shared table and treats a
// packet whose planned SINR misses even the lowest rung as undecodable
// (it cannot be sent, so nothing downstream may cancel it).
//
// Deliberate asymmetry with the baseline: an IAC slot's packets are a
// joint construction — the encoding vectors and the per-node power
// split are committed together, so an unsendable packet's power still
// rides the committed waveform and interferes, while a point-to-point
// baseline transmitter simply omits an unsendable stream
// (mimo.AdaptedLinkWS). This is conservative for IAC's reported
// low-SNR gains.
func (e Env) planOpts() core.EvalOptions {
	opts := core.EvalOptions{NodePower: NodePower, Noise: e.Noise(), ResidualCancel: e.ResidualCancel}
	if e.MCS != nil {
		opts.Rate = e.MCS.Rate
		opts.Decodes = func(_ int, sinr float64) bool {
			_, ok := e.MCS.Select(sinr)
			return ok
		}
	}
	return opts
}

// trueOptsFor is planScratch.trueOpts as the scalar search builds it.
// The options for measuring a committed plan
// on the true channels. Rates stay continuous here even in MCS mode
// (the discrete achieved-rate rule needs the planned rung, which the
// slot runners apply per packet); what MCS mode changes is decodability:
// a packet whose realized SINR misses its committed rung (selected from
// plannedSINR) fails, is never reconstructed, and keeps interfering
// with every later step of a wired chain.
func (e Env) trueOptsFor(plannedSINR []float64) core.EvalOptions {
	opts := core.EvalOptions{NodePower: NodePower, Noise: e.Noise(), ResidualCancel: e.ResidualCancel}
	if e.MCS != nil {
		opts.Decodes = func(pkt int, sinr float64) bool {
			return !e.MCS.Outage(plannedSINR[pkt], sinr)
		}
	}
	return opts
}

// runUplinkSlotScalarWS is the historical one-evaluation-at-a-time slot
// runner: each solver attempt is scored as soon as it is solved and the
// winner is cloned out of the arena. The slot planner must match it bit
// for bit, RNG stream included. Its outcome is on the heap.
func runUplinkSlotScalarWS(ws *phy.Workspace, cache *SlotCache, s Scenario, twoPacketRole int, rng *rand.Rand) (SlotOutcome, error) {
	nc, na := len(s.Clients), len(s.APs)
	if twoPacketRole < 0 || twoPacketRole >= nc {
		return SlotOutcome{}, fmt.Errorf("testbed: role %d out of range", twoPacketRole)
	}
	// Order clients so the two-packet client sits at transmitter 0.
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
		// Survey the scenario in its own order, as the uncached path
		// does, then estimate the role-ordered set.
		var all core.ChannelSet
		all, baseEst = core.NewChannelSet(nc, na), core.NewChannelSet(nc, na)
		for i, c := range s.Clients {
			for j, ap := range s.APs {
				all[i][j] = s.World.Channel(c, ap)
			}
		}
		baseTrue = Permute(all, order)
		for i, o := range order {
			c := s.Clients[o]
			for j, ap := range s.APs {
				baseEst[i][j] = cache.Estimated(c, ap, rng)
			}
		}
	}

	search := func(ws *cmplxmat.Workspace, est core.ChannelSet) (int, solveFunc) {
		m := est.Antennas()
		switch {
		case nc == 2 && na == 2:
			return solveCandidates, func(ws *cmplxmat.Workspace, _ int) (*core.Plan, error) {
				plan, err := core.SolveUplinkThreeWS(ws, est, rng)
				if err != nil {
					return nil, err
				}
				return &plan, nil
			}
		case na >= 3 && nc == (core.UplinkChainAssignment{M: m}).NumClients():
			// One attempt per dependent direction of an M = 2 pencil, each
			// preparing the set afresh; the random-line search otherwise.
			mark := ws.Mark()
			prep := core.PrepareUplinkChainWS(ws, est)
			dirs, n := prep.DependentDirections2(ws)
			ws.Release(mark)
			if n == 0 {
				return solveCandidates, func(ws *cmplxmat.Workspace, _ int) (*core.Plan, error) {
					return core.SolveUplinkChainWS(ws, est, rng)
				}
			}
			return n, func(ws *cmplxmat.Workspace, attempt int) (*core.Plan, error) {
				prep := core.PrepareUplinkChainWS(ws, est)
				plan, err := prep.SolveAlongWS(ws, rng, dirs[attempt])
				if err != nil {
					return nil, err
				}
				return &plan, nil
			}
		default:
			return solveCandidates, func(*cmplxmat.Workspace, int) (*core.Plan, error) {
				return nil, fmt.Errorf("testbed: unsupported uplink shape %dx%d", nc, na)
			}
		}
	}
	// The leader chooses which AP plays which role in the construction
	// by estimated rate (Section 7.1: the concurrency algorithm decides
	// AP assignments along with the vectors).
	track := (cache != nil && cache.trackPlanned) || s.Env.MCS != nil
	plan, trueCS, err := bestRxAssignment(ws.Mat, baseTrue, baseEst, search, s.Env.planOpts(), track)
	if err != nil {
		return SlotOutcome{}, err
	}
	mark := ws.Mat.Mark()
	defer ws.Mat.Release(mark)
	ev, err := plan.EvaluateWS(ws.Mat, trueCS, plan.PlannedChannels, s.Env.trueOptsFor(plan.PlannedSINR))
	if err != nil {
		return SlotOutcome{}, err
	}
	out := SlotOutcome{SumRate: ev.SumRate, PerClient: make([]float64, nc), Plan: plan.Plan}
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
		out.PlannedPerClient = make([]float64, nc)
		for pkt, owner := range plan.Owner {
			out.PlannedPerClient[order[owner]] += plan.PlannedRate[pkt]
		}
	}
	return out, nil
}

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

// solveFunc is one solver attempt of a slot shape's construction on one
// role assignment's estimates, running its intermediate math on the
// given workspace.
type solveFunc func(ws *cmplxmat.Workspace, attempt int) (*core.Plan, error)

// searchFunc returns how many solver attempts the search runs on one
// role assignment's estimates, and the attempt itself.
type searchFunc func(ws *cmplxmat.Workspace, est core.ChannelSet) (int, solveFunc)

// bestTxAssignment mirrors bestRxAssignment over the transmitter axis
// (downlink: which AP carries which packet).
func bestTxAssignment(ws *cmplxmat.Workspace, trueCS, estCS core.ChannelSet, search searchFunc, opts core.EvalOptions, trackPlanned bool) (plannedPlan, core.ChannelSet, error) {
	var best plannedPlan
	var bestTrue core.ChannelSet
	bestRate := -1.0
	var lastErr error
	for _, perm := range permutations(trueCS.NumTx()) {
		est := Permute(estCS, perm)
		n, solve := search(ws, est)
		for attempt := 0; attempt < n; attempt++ {
			mark := ws.Mark()
			plan, err := solve(ws, attempt)
			if err != nil {
				lastErr = err
				ws.Release(mark)
				continue
			}
			ev, err := plan.EvaluateWS(ws, est, est, opts)
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
func bestRxAssignment(ws *cmplxmat.Workspace, trueCS, estCS core.ChannelSet, search searchFunc, opts core.EvalOptions, trackPlanned bool) (plannedPlan, core.ChannelSet, error) {
	var best plannedPlan
	var bestTrue core.ChannelSet
	bestRate := -1.0
	var lastErr error
	for _, perm := range rxOrders(trueCS.NumRx()) {
		est := PermuteRx(estCS, perm)
		// Several solver attempts per role assignment: the solvers draw
		// random free vectors (and the M = 2 chain has two alignment
		// directions), and the leader keeps the candidate with the best
		// estimated rate (Section 7.2 estimates rates without
		// transmitting).
		n, solve := search(ws, est)
		for attempt := 0; attempt < n; attempt++ {
			mark := ws.Mark()
			plan, err := solve(ws, attempt)
			if err != nil {
				lastErr = err
				ws.Release(mark)
				continue
			}
			// Score with the planner's knowledge only (estimates).
			ev, err := plan.EvaluateWS(ws, est, est, opts)
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

// runDownlinkSlotScalarWS is the historical scalar downlink runner, the
// slot planner's downlink oracle.
func runDownlinkSlotScalarWS(ws *phy.Workspace, cache *SlotCache, s Scenario, rng *rand.Rand) (SlotOutcome, error) {
	nc, na := len(s.Clients), len(s.APs)
	var baseTrue, baseEst core.ChannelSet
	if cache == nil {
		baseTrue = s.DownlinkChannels()
		baseEst = EstimateEnv(baseTrue, s.Env, rng)
	} else {
		baseTrue, baseEst = core.NewChannelSet(na, nc), core.NewChannelSet(na, nc)
		for i, ap := range s.APs {
			for j, c := range s.Clients {
				baseTrue[i][j] = s.World.Channel(ap, c)
				baseEst[i][j] = cache.Estimated(ap, c, rng)
			}
		}
	}
	search := func(_ *cmplxmat.Workspace, est core.ChannelSet) (int, solveFunc) {
		return solveCandidates, func(ws *cmplxmat.Workspace, _ int) (*core.Plan, error) {
			switch {
			case nc == 3 && na == 3:
				plan, err := core.SolveDownlinkTriangleWS(ws, est)
				if err != nil {
					return nil, err
				}
				return &plan, nil
			case nc == 1 && na == 2:
				plan, err := core.SolveDownlinkDiversityWS(ws, est, rng, NodePower, s.Env.Noise())
				if err != nil {
					return nil, err
				}
				return &plan, nil
			default:
				return nil, fmt.Errorf("testbed: unsupported downlink shape %dx%d clients/APs", nc, na)
			}
		}
	}
	// Downlink roles: the permutation runs over the transmitter (AP)
	// axis here, deciding which AP carries which client's packet.
	track := (cache != nil && cache.trackPlanned) || s.Env.MCS != nil
	plan, trueCS, err := bestTxAssignment(ws.Mat, baseTrue, baseEst, search, s.Env.planOpts(), track)
	if err != nil {
		return SlotOutcome{}, err
	}
	mark := ws.Mat.Mark()
	defer ws.Mat.Release(mark)
	ev, err := plan.EvaluateWS(ws.Mat, trueCS, plan.PlannedChannels, s.Env.trueOptsFor(plan.PlannedSINR))
	if err != nil {
		return SlotOutcome{}, err
	}
	out := SlotOutcome{SumRate: ev.SumRate, PerClient: make([]float64, nc), Plan: plan.Plan}
	if plan.PlannedRate != nil {
		out.PlannedPerClient = make([]float64, nc)
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
