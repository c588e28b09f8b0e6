package core

import (
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/mimo"
)

// boundCase builds one plan and channel set for FuzzScoreBound from a
// seed: a solver plan (uplink three, the chain at M = 2..5, the
// downlink triangle or two-client plan) or a random plan with random
// owners, unit encodings and a random schedule, wired or not. kind
// selects a degeneracy: aligned interferers (every channel into a
// receiver the same matrix, every encoding the same vector), zero
// channels, or none. scaleExp scales every channel by 2^scaleExp.
func boundCase(rng *rand.Rand, m int, random, wired bool, kind uint8, scaleExp int) (*Plan, ChannelSet) {
	var plan *Plan
	var cs ChannelSet
	if !random {
		var err error
		switch rng.Intn(4) {
		case 0:
			cs = RandomChannelSet(rng, 2, 2, 2, 1)
			plan, err = SolveUplinkThree(cs, rng)
		case 1:
			cs = RandomChannelSet(rng, UplinkChainAssignment{M: m}.NumClients(), UplinkAPsNeeded(m), m, 1)
			plan, err = SolveUplinkChain(cs, rng)
		case 2:
			cs = RandomChannelSet(rng, 3, 3, 2, 1)
			plan, err = SolveDownlinkTriangle(cs)
		default:
			m = max(m, 3)
			cs = RandomChannelSet(rng, m-1, 2, m, 1)
			plan, err = SolveDownlinkTwoClient(cs, rng)
		}
		if err != nil {
			return nil, nil
		}
	} else {
		numTx, numRx := 1+rng.Intn(3), 1+rng.Intn(3)
		cs = RandomChannelSet(rng, numTx, numRx, m, 1)
		k := 1 + rng.Intn(2*m)
		plan = &Plan{M: m, Owner: make([]int, k), Encoding: make([]cmplxmat.Vector, k), Wired: wired}
		for i := range plan.Owner {
			plan.Owner[i] = rng.Intn(numTx)
			plan.Encoding[i] = randUnit(rng, m)
		}
		for pkt := 0; pkt < k; {
			n := 1 + rng.Intn(min(m, k-pkt))
			step := DecodeStep{Rx: rng.Intn(numRx)}
			for ; n > 0; n-- {
				step.Packets = append(step.Packets, pkt)
				pkt++
			}
			plan.Schedule = append(plan.Schedule, step)
		}
		rng.Shuffle(k, func(i, j int) {
			plan.Owner[i], plan.Owner[j] = plan.Owner[j], plan.Owner[i]
			plan.Encoding[i], plan.Encoding[j] = plan.Encoding[j], plan.Encoding[i]
		})
	}
	switch kind % 3 {
	case 1: // aligned interferers
		for rx := 0; rx < cs.NumRx(); rx++ {
			for tx := range cs {
				cs[tx][rx] = cs[0][rx]
			}
		}
		for i := range plan.Encoding {
			plan.Encoding[i] = plan.Encoding[0]
		}
	case 2: // zero channels
		for tx := range cs {
			for rx := range cs[tx] {
				if rng.Intn(2) == 0 {
					cs[tx][rx] = cmplxmat.New(plan.M, plan.M)
				}
			}
		}
	}
	scale := complex(math.Ldexp(1, scaleExp), 0)
	for tx := range cs {
		for rx := range cs[tx] {
			cs[tx][rx] = cs[tx][rx].Scale(scale)
		}
	}
	return plan, cs
}

// FuzzScoreBound checks the prune bound of Plan.EvaluateWS on random
// and near-degenerate plans at M = 2..5 — aligned interferers, zero,
// tiny and huge channel scales, noise down to 0 — under Shannon and MCS
// rates, with ResidualCancel on and off, wired and unwired, scored on
// the estimates alone (the planner's use) or with a perturbed estimate:
//
//   - the bound is at least the full SumRate: with PruneAt just below
//     the full SumRate the evaluation never prunes, and then matches
//     the unpruned evaluation bit for bit;
//   - at any threshold, a pruned evaluation's full SumRate is at most
//     the threshold, and an unpruned one matches bit for bit.
func FuzzScoreBound(f *testing.F) {
	for i := 0; i < 64; i++ {
		scale := []int{0, 0, 0, 3, -3, -300, 300, -520, 500, -1070}[i%10]
		noise := []int{0, -4, 4, -40, -1000, -1074, -1100}[i%7]
		f.Add(int64(i), uint8(i), uint8(i/3), scale, noise, 0.5+float64(i%5)/4)
	}
	// A matched-filter packet whose computed SINR lands one ulp above
	// p g / N0: a bound without boundMargin prunes the winner here.
	f.Add(int64(77), uint8(0), uint8(97), 0, 0, 0.5)
	table := mimo.DefaultRateTable()
	mcsRate := table.Rate
	sendable := func(_ int, sinr float64) bool {
		_, ok := table.Select(sinr)
		return ok
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, flags uint8, scaleExp, noiseExp int, factor float64) {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + int(shape%4)
		plan, cs := boundCase(rng, m, flags&1 != 0, flags&2 != 0, shape/4, scaleExp%1100)
		if plan == nil {
			return
		}
		noise := math.Ldexp(1, noiseExp%1200)
		if noiseExp%1200 <= -1100 {
			noise = 0
		}
		opts := EvalOptions{NodePower: 1, Noise: noise, ResidualCancel: flags&4 != 0}
		if flags&8 != 0 {
			opts.Rate, opts.Decodes = mcsRate, sendable
		}
		est := cs
		if flags&16 != 0 {
			est = perturbedEstimate(rng, cs)
		}
		ws := cmplxmat.NewWorkspace()
		full, fullErr := plan.EvaluateWS(ws, cs, est, opts)
		same := func(ev Evaluation, err error) bool {
			if (err == nil) != (fullErr == nil) || ev.Pruned {
				return false
			}
			return err != nil || evalBitEqualF(ev.SINR, full.SINR) && evalBitEqualF(ev.PacketRate, full.PacketRate) &&
				math.Float64bits(ev.SumRate) == math.Float64bits(full.SumRate)
		}

		opts.Prune = true
		if fullErr == nil && !math.IsNaN(full.SumRate) && !math.IsInf(full.SumRate, -1) {
			opts.PruneAt = math.Nextafter(full.SumRate, math.Inf(-1))
			if ev, err := plan.EvaluateWS(ws, cs, est, opts); !same(ev, err) {
				t.Fatalf("bound below the full SumRate %v: pruned=%v err=%v (full err %v)", full.SumRate, ev.Pruned, err, fullErr)
			}
		}
		for _, at := range []float64{full.SumRate * factor, full.SumRate, factor, 0} {
			opts.PruneAt = at
			ev, err := plan.EvaluateWS(ws, cs, est, opts)
			if ev.Pruned {
				if err != nil {
					t.Fatalf("pruned evaluation returned error %v", err)
				}
				if fullErr == nil && full.SumRate > at {
					t.Fatalf("pruned at %v, but the full SumRate is %v", at, full.SumRate)
				}
				continue
			}
			if !same(ev, err) {
				t.Fatalf("unpruned evaluation at %v differs from the full one: %+v err %v, full %+v err %v", at, ev, err, full, fullErr)
			}
		}
	})
}
