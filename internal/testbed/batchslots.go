package testbed

import (
	"fmt"
	"math/rand"
	"sync"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/phy"
)

// Batched slot planning. The scalar slot runners interleave solver
// attempts with candidate scoring, one small evaluation at a time; the
// batched planner runs the same search with every candidate's scoring
// deferred and gathered into one core.EvaluateJobsWS dispatch, and the
// surviving winners' final true-channel evaluations into a second. The
// RNG stream is preserved exactly — channel gathers and solver attempts
// (the only randomness) run in request order, and evaluations draw no
// randomness — so PlanSlots + EvaluateSlots is bitwise-identical to
// running the scalar slot runners request by request. The scalar bodies
// are kept as runUplinkSlotScalarWS / runDownlinkSlotScalarWS, the
// differential reference the equivalence tests pin the batch against.

// SlotRequest describes one slot for the batched planner: the
// (sub-)scenario to run, the link direction, and — on the uplink — the
// client holding the two-packet role this slot.
type SlotRequest struct {
	S        Scenario
	Downlink bool
	// Role is the uplink two-packet client index (Section 10.1's
	// round-robin role); ignored on the downlink.
	Role int
}

// slotCandidate is one (role permutation, solver attempt) of a
// request's assignment search, recorded in the exact order the scalar
// search visits them so winner and last-error selection replay
// identically. The plan header is held by value and est is an arena
// set, so recording a candidate allocates nothing. job indexes the
// candidate's entry in the scoring batch; -1 when the solve already
// failed.
type slotCandidate struct {
	plan core.Plan
	est  core.ChannelSet
	perm []int
	err  error
	job  int
}

// PlannedSlot is one request's planning result: the winning plan with
// its planned channels and rates, and the true channels in the winner's
// order — ready for EvaluateSlots — or the error the scalar runner
// would have returned.
type PlannedSlot struct {
	s        Scenario
	downlink bool
	order    []int // uplink client order (two-packet role first); nil on the downlink
	plan     plannedPlan
	trueCS   core.ChannelSet
	err      error
	batched  int // direction products gathered planning this slot
}

// Err reports the planning error, if any; EvaluateSlots surfaces it for
// the slot.
func (ps *PlannedSlot) Err() error { return ps.err }

// slotBases are one request's true and estimated channel sets in the
// base role order, before any permutation. They may live in the arena,
// so they are kept only for the duration of PlanSlots.
type slotBases struct {
	trueCS, estCS core.ChannelSet
}

// planScratch is the batch planner's reusable search state: the flat
// candidate list (candStart[r]..candStart[r+1] is request r's range),
// the scoring-job slice and the per-request base channel sets.
// Candidates and jobs are fat structs the engine's per-group planning
// calls would otherwise append-grow on the heap every slot; pooling them
// makes the steady state allocation-flat. Entries are cleared before the
// scratch returns to the pool so pooled buffers never pin a trial's
// workspace arena or plans.
type planScratch struct {
	cands     []slotCandidate
	candStart []int
	jobs      []core.EvalJob
	bases     []slotBases
}

var planScratchPool = sync.Pool{New: func() any { return new(planScratch) }}

func (sc *planScratch) release() {
	clear(sc.cands)
	clear(sc.jobs)
	clear(sc.bases)
	sc.cands = sc.cands[:0]
	sc.candStart = sc.candStart[:0]
	sc.jobs = sc.jobs[:0]
	sc.bases = sc.bases[:0]
	planScratchPool.Put(sc)
}

// slotShape is the construction a request's shape selects.
type slotShape int

const (
	shapeUnsupported slotShape = iota
	shapeUplinkThree
	shapeUplinkChain
	shapeDownlinkTriangle
	shapeDownlinkDiversity
)

// shapeSolver runs a request's construction through the role-assignment
// search: prepare once per role assignment (the channel-only work: the
// chain's inverses), then one attempt per solver candidate. The
// attempts draw from rng in the same order as solving from scratch
// every time.
type shapeSolver struct {
	shape slotShape
	err   error // what every attempt of an unsupported shape returns
	rng   *rand.Rand
	noise float64 // receiver noise, for the diversity construction
	est   core.ChannelSet
	chain core.UplinkPrep
}

func (sv *shapeSolver) prepare(ws *cmplxmat.Workspace, est core.ChannelSet) {
	sv.est = est
	if sv.shape == shapeUplinkChain {
		sv.chain = core.PrepareUplinkChainWS(ws, est)
	}
}

func (sv *shapeSolver) attempt(ws *cmplxmat.Workspace) (core.Plan, error) {
	var plan *core.Plan
	var err error
	switch sv.shape {
	case shapeUplinkThree:
		return core.SolveUplinkThreeWS(ws, sv.est, sv.rng)
	case shapeUplinkChain:
		return sv.chain.SolveWS(ws, sv.rng)
	case shapeDownlinkTriangle:
		plan, err = core.SolveDownlinkTriangleWS(ws, sv.est)
	case shapeDownlinkDiversity:
		plan, err = core.SolveDownlinkDiversity(sv.est, sv.rng, NodePower, sv.noise)
	default:
		return core.Plan{}, sv.err
	}
	if err != nil {
		return core.Plan{}, err
	}
	return *plan, nil
}

// PlanSlots runs every request's role-assignment search with all
// candidate scorings batched into one kernel dispatch. Channel gathers
// (which may draw estimation noise) and solver attempts (which draw
// random free vectors) run in request order, exactly as back-to-back
// scalar runners would, so the RNG stream — and therefore every bit of
// every plan — is unchanged. The second return is the total number of
// direction products batched.
func PlanSlots(ws *phy.Workspace, cache *SlotCache, reqs []SlotRequest, rng *rand.Rand) ([]PlannedSlot, int) {
	slots := make([]PlannedSlot, len(reqs))
	sc := planScratchPool.Get().(*planScratch)
	defer sc.release()
	cands, jobs := sc.cands, sc.jobs

	// Candidate scratch — solver plans, their estimate sets and the base
	// sets — stays alive until the winners are cloned out; one release
	// covers the whole search.
	mark := ws.Mat.Mark()
	defer ws.Mat.Release(mark)

	for r := range reqs {
		sc.candStart = append(sc.candStart, len(cands))
		req := &reqs[r]
		slot := &slots[r]
		slot.s = req.S
		slot.downlink = req.Downlink
		nc, na := len(req.S.Clients), len(req.S.APs)

		var b slotBases
		sv := shapeSolver{rng: rng}
		var perms [][]int
		if req.Downlink {
			if cache == nil {
				b.trueCS = req.S.DownlinkChannels()
				b.estCS = EstimateEnv(b.trueCS, req.S.Env, rng)
			} else {
				b.trueCS = core.NewChannelSetWS(ws.Mat, na, nc)
				b.estCS = core.NewChannelSetWS(ws.Mat, na, nc)
				for i, ap := range req.S.APs {
					for j, c := range req.S.Clients {
						b.trueCS[i][j] = cache.Channel(ap, c)
						b.estCS[i][j] = cache.Estimated(ap, c, rng)
					}
				}
			}
			switch {
			case nc == 3 && na == 3:
				sv.shape = shapeDownlinkTriangle
			case nc == 1 && na == 2:
				sv.shape = shapeDownlinkDiversity
				sv.noise = req.S.Env.Noise()
			default:
				sv.err = fmt.Errorf("testbed: unsupported downlink shape %dx%d clients/APs", nc, na)
			}
			// Downlink roles permute the transmitter (AP) axis: which AP
			// carries which client's packet.
			perms = permutations(b.trueCS.NumTx())
		} else {
			if req.Role < 0 || req.Role >= nc {
				slot.err = fmt.Errorf("testbed: role %d out of range", req.Role)
				sc.bases = append(sc.bases, b)
				continue
			}
			// Order clients so the two-packet client sits at transmitter 0.
			order := make([]int, 0, nc)
			order = append(order, req.Role)
			for i := 0; i < nc; i++ {
				if i != req.Role {
					order = append(order, i)
				}
			}
			slot.order = order
			if cache == nil {
				b.trueCS = Permute(req.S.UplinkChannels(), order)
				b.estCS = EstimateEnv(b.trueCS, req.S.Env, rng)
			} else {
				b.trueCS = core.NewChannelSetWS(ws.Mat, nc, na)
				b.estCS = core.NewChannelSetWS(ws.Mat, nc, na)
				for i, o := range order {
					c := req.S.Clients[o]
					for j, ap := range req.S.APs {
						b.trueCS[i][j] = cache.Channel(c, ap)
						b.estCS[i][j] = cache.Estimated(c, ap, rng)
					}
				}
			}
			switch {
			case nc == 2 && na == 2:
				sv.shape = shapeUplinkThree
			case na >= 3 && nc == (core.UplinkChainAssignment{M: b.estCS.Antennas()}).NumClients():
				sv.shape = shapeUplinkChain
			default:
				sv.err = fmt.Errorf("testbed: unsupported uplink shape %dx%d", nc, na)
			}
			perms = rxOrders(b.trueCS.NumRx())
		}
		sc.bases = append(sc.bases, b)

		// Solver attempts in search order, scoring deferred: each
		// successful candidate contributes one job to the batch. The
		// job's plan pointer is filled in once the candidate list has
		// stopped growing.
		opts := req.S.Env.planOpts()
		for _, perm := range perms {
			est := permuteCandidateWS(ws.Mat, b.estCS, perm, req.Downlink)
			sv.prepare(ws.Mat, est)
			for attempt := 0; attempt < solveCandidates; attempt++ {
				plan, err := sv.attempt(ws.Mat)
				c := slotCandidate{plan: plan, est: est, perm: perm, err: err, job: -1}
				if err == nil {
					c.job = len(jobs)
					// Score with the planner's knowledge only (estimates).
					jobs = append(jobs, core.EvalJob{TrueCS: est, EstCS: est, Opts: opts})
				}
				cands = append(cands, c)
			}
		}
	}
	sc.candStart = append(sc.candStart, len(cands))
	sc.cands, sc.jobs = cands, jobs
	for i := range cands {
		if c := &cands[i]; c.job >= 0 {
			jobs[c.job].Plan = &c.plan
		}
	}

	total := core.EvaluateJobsWS(ws.Mat, jobs)

	// Selection replays the scalar winner/last-error walk candidate by
	// candidate: each candidate carries at most one error (solve or
	// score), and the winner is the first candidate in search order to
	// strictly beat the best estimated sum rate so far. Only the winner
	// is copied out of the arena.
	for r := range slots {
		slot := &slots[r]
		if slot.err != nil {
			continue
		}
		best := -1
		bestRate := -1.0
		var lastErr error
		for i := sc.candStart[r]; i < sc.candStart[r+1]; i++ {
			c := &cands[i]
			if c.err != nil {
				lastErr = c.err
				continue
			}
			j := &jobs[c.job]
			slot.batched += j.Products
			if j.Err != nil {
				lastErr = j.Err
				continue
			}
			if j.Ev.SumRate > bestRate {
				bestRate = j.Ev.SumRate
				best = i
			}
		}
		if best < 0 {
			slot.err = lastErr
			continue
		}
		c, b := &cands[best], sc.bases[r]
		slot.plan = plannedPlan{Plan: c.plan.Clone(), PlannedChannels: permuteCandidate(b.estCS, c.perm, slot.downlink)}
		if (cache != nil && cache.trackPlanned) || slot.s.Env.MCS != nil {
			ev := jobs[c.job].Ev
			slot.plan.PlannedRate = append([]float64(nil), ev.PacketRate...)
			if slot.s.Env.MCS != nil {
				// Planner SINRs feed the MCS outage rule only;
				// dynamics-mode tracking skips them.
				slot.plan.PlannedSINR = append([]float64(nil), ev.SINR...)
			}
		}
		slot.trueCS = permuteCandidate(b.trueCS, c.perm, slot.downlink)
	}
	return slots, total
}

// permuteCandidateWS is permuteCandidate with the permuted set's slices
// in the arena: the search's per-assignment estimate sets live only as
// long as its candidates.
func permuteCandidateWS(ws *cmplxmat.Workspace, cs core.ChannelSet, perm []int, downlink bool) core.ChannelSet {
	if downlink {
		out := core.NewChannelSetWS(ws, len(perm), cs.NumRx())
		for i, o := range perm {
			copy(out[i], cs[o])
		}
		return out
	}
	out := core.NewChannelSetWS(ws, cs.NumTx(), len(perm))
	for t := range cs {
		for j, o := range perm {
			out[t][j] = cs[t][o]
		}
	}
	return out
}

// permuteCandidate applies a role permutation along the axis the search
// runs over: transmitters on the downlink, receivers on the uplink.
func permuteCandidate(cs core.ChannelSet, perm []int, downlink bool) core.ChannelSet {
	if downlink {
		return Permute(cs, perm)
	}
	return PermuteRx(cs, perm)
}

// EvaluateSlots measures every planned slot under its true channels —
// decoding vectors from the planner's estimates, SINRs from the drifted
// reality — with all final evaluations batched into one kernel
// dispatch, and scatters the results into per-slot outcomes exactly as
// the scalar runners do. The third return is the number of direction
// products batched.
func EvaluateSlots(ws *phy.Workspace, slots []PlannedSlot) ([]SlotOutcome, []error, int) {
	mark := ws.Mat.Mark()
	defer ws.Mat.Release(mark)
	sc := planScratchPool.Get().(*planScratch)
	defer sc.release()
	jobs := sc.jobs
	jobOf := sc.candStart[:0] // reuse the offset buffer as the slot->job map
	for i := range slots {
		jobOf = append(jobOf, -1)
		sl := &slots[i]
		if sl.err != nil || sl.plan.Plan == nil {
			continue
		}
		jobOf[i] = len(jobs)
		jobs = append(jobs, core.EvalJob{
			Plan:   sl.plan.Plan,
			TrueCS: sl.trueCS,
			EstCS:  sl.plan.PlannedChannels,
			Opts:   sl.s.Env.trueOptsFor(sl.plan.PlannedSINR),
		})
	}
	sc.jobs, sc.candStart = jobs, jobOf
	total := core.EvaluateJobsWS(ws.Mat, jobs)

	outs := make([]SlotOutcome, len(slots))
	errs := make([]error, len(slots))
	for i := range slots {
		sl := &slots[i]
		if sl.err != nil {
			errs[i] = sl.err
			continue
		}
		j := &jobs[jobOf[i]]
		if j.Err != nil {
			errs[i] = j.Err
			continue
		}
		sl.batched += j.Products
		if sl.downlink {
			outs[i] = downlinkOutcome(sl.plan, j.Ev, sl.s.Env)
		} else {
			outs[i] = uplinkOutcome(sl.plan, j.Ev, sl.s.Env, sl.order)
		}
		outs[i].Batched = sl.batched
	}
	return outs, errs, total
}

// uplinkOutcome scatters one uplink evaluation into a SlotOutcome,
// mirroring the scalar runner's attribution: packets map to clients
// through the slot's role order, and under the MCS table each packet
// delivers its committed rung's bits only when the realized SINR clears
// it.
func uplinkOutcome(plan plannedPlan, ev core.Evaluation, env Env, order []int) SlotOutcome {
	out := SlotOutcome{SumRate: ev.SumRate, PerClient: map[int]float64{}, Plan: plan.Plan}
	if mcs := env.MCS; mcs != nil {
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
		out.PlannedPerClient = make(map[int]float64, len(out.PerClient))
		for pkt, owner := range plan.Owner {
			out.PlannedPerClient[order[owner]] += plan.PlannedRate[pkt]
		}
	}
	return out
}

// downlinkOutcome scatters one downlink evaluation into a SlotOutcome:
// packets are attributed to the receiver that decodes them.
func downlinkOutcome(plan plannedPlan, ev core.Evaluation, env Env) SlotOutcome {
	out := SlotOutcome{SumRate: ev.SumRate, PerClient: map[int]float64{}, Plan: plan.Plan}
	if plan.PlannedRate != nil {
		out.PlannedPerClient = make(map[int]float64, len(out.PerClient))
	}
	mcs := env.MCS
	if mcs != nil {
		out.SumRate = 0
	}
	for pkt := range plan.Owner {
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
	return out
}
