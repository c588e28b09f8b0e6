package testbed

import (
	"fmt"
	"math/rand"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/mimo"
	"iaclan/internal/phy"
)

// Slot planning. The leader's role-assignment search scores every
// (role permutation, solver attempt) candidate as soon as it is solved,
// keeping only the running winner and the last error, then measures the
// winner under the true channels. Scoring draws no randomness, so the
// RNG stream is the solver attempts' alone. The scalar search in
// oracle_test.go, which clones each new winner onto the heap and builds
// its own heap channel sets, is the test-only oracle the equivalence
// tests pin the planner against.
//
// One plan runs under one arena Mark of the caller's workspace: the
// true channels, the channel-set views, every candidate, both
// evaluations and the outcome's per-client rates live in the arena, and
// the winner is read in place rather than copied out. The Mark is released on return, so the outcome
// is a view (see SlotOutcome). The winner's plan header and the MCS
// option closures are the planner's reusable scratch, owned by the
// SlotCache the slot runs through (one per simulation trial), so a warm
// plan allocates nothing.

// planScratch is the planner's reusable state: the winning plan's header,
// which the outcome's Plan points at, and the MCS evaluation-option
// closures, built once and reading the current table and committed
// SINRs through the scratch so that no plan builds a closure.
type planScratch struct {
	win core.Plan

	// attempts and pruned count the solver attempts the search ran and
	// the candidates whose scoring was pruned, for the tests.
	attempts, pruned int

	mcs         *mimo.RateTable
	plannedSINR []float64
	rate        func(sinr float64) float64
	sendable    func(pkt int, sinr float64) bool
	delivers    func(pkt int, sinr float64) bool
}

// bindMCS points the option closures at table, building them on first
// use.
func (sc *planScratch) bindMCS(table *mimo.RateTable) {
	sc.mcs = table
	if sc.rate != nil {
		return
	}
	sc.rate = func(sinr float64) float64 { return sc.mcs.Rate(sinr) }
	sc.sendable = func(_ int, sinr float64) bool {
		_, ok := sc.mcs.Select(sinr)
		return ok
	}
	sc.delivers = func(pkt int, sinr float64) bool {
		return !sc.mcs.Outage(sc.plannedSINR[pkt], sinr)
	}
}

// planOpts are the evaluation options the leader scores candidate plans
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
func (sc *planScratch) planOpts(env Env) core.EvalOptions {
	opts := core.EvalOptions{NodePower: NodePower, Noise: env.Noise(), ResidualCancel: env.ResidualCancel}
	if env.MCS != nil {
		sc.bindMCS(env.MCS)
		opts.Rate, opts.Decodes = sc.rate, sc.sendable
	}
	return opts
}

// trueOpts are the evaluation options for measuring a committed plan on
// the true channels. Rates stay continuous here even in MCS mode (the
// discrete achieved-rate rule needs the planned rung, which the outcome
// applies per packet); what MCS mode changes is decodability: a packet
// whose realized SINR misses its committed rung (selected from
// plannedSINR) fails, is never reconstructed, and keeps interfering with
// every later step of a wired chain.
func (sc *planScratch) trueOpts(env Env, plannedSINR []float64) core.EvalOptions {
	opts := core.EvalOptions{NodePower: NodePower, Noise: env.Noise(), ResidualCancel: env.ResidualCancel}
	if env.MCS != nil {
		sc.bindMCS(env.MCS)
		sc.plannedSINR = plannedSINR
		opts.Decodes = sc.delivers
	}
	return opts
}

// slotShape is the construction a slot's shape selects.
type slotShape int

const (
	shapeUnsupported slotShape = iota
	shapeUplinkThree
	shapeUplinkChain
	shapeDownlinkTriangle
	shapeDownlinkDiversity
)

// shapeSolver runs a slot's construction through the role-assignment
// search: prepare once per role assignment (the channel-only work: the
// chain's inverses and, at M = 2, its dependent directions), then one
// attempt per solver candidate. The attempts draw from rng in the same
// order as solving from scratch every time.
type shapeSolver struct {
	shape slotShape
	err   error // what every attempt of an unsupported shape returns
	rng   *rand.Rand
	noise float64 // receiver noise, for the diversity construction
	est   core.ChannelSet
	chain core.UplinkPrep
	// dirs[:ndirs] are the M = 2 chain's dependent directions, one
	// attempt each; ndirs is 0 when the pencil declines or the chain is
	// M >= 3, and each attempt then runs the random-line search.
	dirs  [2][2]complex128
	ndirs int
}

func (sv *shapeSolver) prepare(ws *cmplxmat.Workspace, est core.ChannelSet) {
	sv.est = est
	if sv.shape == shapeUplinkChain {
		sv.chain = core.PrepareUplinkChainWS(ws, est)
		sv.dirs, sv.ndirs = sv.chain.DependentDirections2(ws)
	}
}

// attempt runs the i-th solver candidate of the current role assignment.
func (sv *shapeSolver) attempt(ws *cmplxmat.Workspace, i int) (core.Plan, error) {
	switch sv.shape {
	case shapeUplinkThree:
		return core.SolveUplinkThreeWS(ws, sv.est, sv.rng)
	case shapeUplinkChain:
		if sv.ndirs > 0 {
			return sv.chain.SolveAlongWS(ws, sv.rng, sv.dirs[i])
		}
		return sv.chain.SolveWS(ws, sv.rng)
	case shapeDownlinkTriangle:
		return core.SolveDownlinkTriangleWS(ws, sv.est)
	case shapeDownlinkDiversity:
		return core.SolveDownlinkDiversityWS(ws, sv.est, sv.rng, NodePower, sv.noise)
	}
	return core.Plan{}, sv.err
}

// candidates is how many attempts the search runs per role assignment:
// one per dependent direction of an M = 2 chain whose pencil gave them
// (at most two: the alignment has exactly two solution directions, so
// sampling more only lands on them again), one for the downlink
// triangle, whose solve is a function of the estimates alone, and
// solveCandidates for the other shapes whose solver draws from rng. A
// repeat of a deterministic attempt returns the same plan at the same
// score, which can never strictly beat the first, and draws nothing, so
// skipping it changes neither the winner, the slot's error nor the RNG
// stream.
func (sv *shapeSolver) candidates() int {
	switch {
	case sv.ndirs > 0:
		return sv.ndirs
	case sv.shape == shapeDownlinkTriangle:
		return 1
	}
	return solveCandidates
}

// planSlot plans and evaluates one slot: measure the true channels from
// the world into the arena, gather the estimates through the cache, run
// the role-assignment search scoring each candidate as it is solved, and
// measure the winner — decoding vectors from the planner's estimates,
// SINRs from the true channels.
// On the uplink role is the client holding the two-packet role; the
// downlink ignores it.
//
// The candidates of a role assignment are shapeSolver.candidates'
// attempts: for an M = 2 uplink chain, one per dependent direction of
// the alignment (core.UplinkPrep.DependentDirections2, at most two),
// and the random-line search's three draws only where the pencil
// declines.
//
// Once a candidate has won, each later one is scored with pruning at
// the best rate so far (core.EvalOptions.Prune): its evaluation stops
// as soon as a sound upper bound on its sum rate shows it cannot
// strictly beat the winner. Its solver attempt has already run, so the
// RNG stream is unchanged, and the last error matters only when no
// candidate wins, so a pruned candidate changes no result.
func planSlot(ws *phy.Workspace, cache *SlotCache, s Scenario, downlink bool, role int, rng *rand.Rand) (SlotOutcome, error) {
	sc := &cache.plan
	mat := ws.Mat
	mark := mat.Mark()
	defer mat.Release(mark)

	nc, na := len(s.Clients), len(s.APs)
	var trueCS, estCS core.ChannelSet
	var order []int // uplink client order, two-packet role first
	sv := shapeSolver{rng: rng}
	var perms [][]int
	if downlink {
		trueCS = core.NewChannelSetWS(mat, na, nc)
		estCS = core.NewChannelSetWS(mat, na, nc)
		for i, ap := range s.APs {
			for j, c := range s.Clients {
				trueCS[i][j] = s.World.ChannelWS(mat, ap, c)
				estCS[i][j] = cache.Estimated(ap, c, rng)
			}
		}
		switch {
		case nc == 3 && na == 3:
			sv.shape = shapeDownlinkTriangle
		case nc == 1 && na == 2:
			sv.shape = shapeDownlinkDiversity
			sv.noise = s.Env.Noise()
		default:
			sv.err = fmt.Errorf("testbed: unsupported downlink shape %dx%d clients/APs", nc, na)
		}
		// Downlink roles permute the transmitter (AP) axis: which AP
		// carries which client's packet.
		perms = permutations(trueCS.NumTx())
	} else {
		if role < 0 || role >= nc {
			return SlotOutcome{}, fmt.Errorf("testbed: role %d out of range", role)
		}
		order = mat.Ints(nc)
		order[0] = role
		for i, k := 0, 1; i < nc; i++ {
			if i != role {
				order[k] = i
				k++
			}
		}
		trueCS = core.NewChannelSetWS(mat, nc, na)
		estCS = core.NewChannelSetWS(mat, nc, na)
		// True channels in scenario order, estimates in role order: a
		// pair's first measurement draws its fading from the world and
		// its estimate draws from rng, each in the order of surveying
		// the whole scenario and then estimating the role-ordered set.
		rowOf := mat.Ints(nc)
		for r, o := range order {
			rowOf[o] = r
		}
		for i, c := range s.Clients {
			for j, ap := range s.APs {
				trueCS[rowOf[i]][j] = s.World.ChannelWS(mat, c, ap)
			}
		}
		for i, o := range order {
			c := s.Clients[o]
			for j, ap := range s.APs {
				estCS[i][j] = cache.Estimated(c, ap, rng)
			}
		}
		switch {
		case nc == 2 && na == 2:
			sv.shape = shapeUplinkThree
		case na >= 3 && nc == (core.UplinkChainAssignment{M: estCS.Antennas()}).NumClients():
			sv.shape = shapeUplinkChain
		default:
			sv.err = fmt.Errorf("testbed: unsupported uplink shape %dx%d", nc, na)
		}
		perms = rxOrders(trueCS.NumRx())
	}

	// Solver attempts in search order, each scored with the planner's
	// knowledge only (estimates). The winner is the first candidate to
	// strictly beat the best estimated sum rate so far; the last error
	// seen (solve or score) is the slot's error when none survives.
	opts := sc.planOpts(s.Env)
	var winEst core.ChannelSet
	var winPerm []int // nil until a candidate wins
	var scored core.Evaluation
	bestRate := -1.0
	var lastErr error
	batched := 0
	checked, err := core.CheckSet(estCS)
	if err != nil {
		return SlotOutcome{}, err
	}
	for _, perm := range perms {
		est := checked.PermuteWS(mat, perm, downlink)
		sv.prepare(mat, est.Set())
		for attempt := 0; attempt < sv.candidates(); attempt++ {
			plan, err := sv.attempt(mat, attempt)
			sc.attempts++
			if err != nil {
				lastErr = err
				continue
			}
			opts.Prune, opts.PruneAt = winPerm != nil, bestRate
			ev, err := plan.ScoreWS(mat, est, opts)
			batched += ev.Products
			if err != nil {
				lastErr = err
				continue
			}
			if ev.Pruned {
				sc.pruned++
				continue
			}
			if ev.SumRate > bestRate {
				bestRate, scored = ev.SumRate, ev
				sc.win, winEst, winPerm = plan, est.Set(), perm
			}
		}
	}
	if winPerm == nil {
		return SlotOutcome{}, lastErr
	}

	// Measure the winner in place: its plan, estimate set and scored
	// rates are still in the arena.
	win := &sc.win
	var plannedRate, plannedSINR []float64
	if cache.trackPlanned || s.Env.MCS != nil {
		plannedRate = scored.PacketRate
		if s.Env.MCS != nil {
			// Planner SINRs feed the MCS outage rule only; dynamics-mode
			// tracking skips them.
			plannedSINR = scored.SINR
		}
	}
	final, err := win.EvaluateWS(mat, trueCS.PermuteWS(mat, winPerm, downlink), winEst, sc.trueOpts(s.Env, plannedSINR))
	batched += final.Products
	if err != nil {
		return SlotOutcome{}, err
	}

	out := SlotOutcome{SumRate: final.SumRate, PerClient: mat.Floats(nc), Plan: win, Batched: batched}
	if plannedRate != nil {
		out.PlannedPerClient = mat.Floats(nc)
	}
	mcs := s.Env.MCS
	if mcs != nil {
		out.SumRate = 0
	}
	for pkt, owner := range win.Owner {
		// Uplink packets belong to their transmitter (through the role
		// order); downlink packets to the receiver that decodes them.
		var client int
		if downlink {
			client = downlinkDestination(win, pkt)
		} else {
			client = order[owner]
		}
		if mcs != nil {
			// Discrete rate adaptation: each packet was committed to the
			// rung its planned SINR selected; it delivers that rung's
			// bits when the realized SINR clears the threshold, nothing
			// on outage.
			r := mcs.AchievedRate(plannedSINR[pkt], final.SINR[pkt])
			out.PerClient[client] += r
			out.SumRate += r
		} else {
			out.PerClient[client] += final.PacketRate[pkt]
		}
		if plannedRate != nil {
			out.PlannedPerClient[client] += plannedRate[pkt]
		}
	}
	return out, nil
}
