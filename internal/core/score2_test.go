package core

import (
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/mimo"
)

// score2Case builds one M = 2 plan and channel set for FuzzScoreM2:
// for shape%5 < 4 a boundCase plan (a solver's or a random one, wired
// or not, with its degeneracy kind and scale 2^scaleExp), otherwise the
// uplink chain over four APs, campus_fading's shape, under the same
// degeneracies. special%10 then injects what no solver produces: a
// zero encoding vector (1), a channel entry of +Inf (2), NaN (3), -Inf
// in its imaginary part (4), the largest float64 (5) or the smallest
// subnormal (7), or an encoding entry at the subnormal end (6); or it
// moves one channel entry (8) or one encoding entry (9) by a relative
// 2^-20..2^-40, which on aligned interferers puts a signal just off an
// interferer's line, across the decoder's 1e-9 null threshold. It
// returns a nil plan when the solver fails or builds an M = 3 plan.
func score2Case(rng *rand.Rand, shape, kind uint8, scaleExp int, special uint8) (*Plan, ChannelSet) {
	var plan *Plan
	var cs ChannelSet
	if shape%5 == 4 {
		cs = RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 4, 2, 1)
		var err error
		if plan, err = SolveUplinkChain(cs, rng); err != nil {
			return nil, nil
		}
		degrade(rng, plan, cs, kind, scaleExp)
	} else {
		plan, cs = boundCase(rng, 2, shape&1 != 0, shape&2 != 0, kind, scaleExp)
		if plan == nil || plan.M != 2 {
			return nil, nil
		}
	}
	setEntry := func(v complex128) {
		tx, rx := rng.Intn(cs.NumTx()), rng.Intn(cs.NumRx())
		h := cs[tx][rx].Clone()
		h.SetAt(rng.Intn(2), rng.Intn(2), v)
		cs[tx][rx] = h
	}
	pkt := rng.Intn(plan.NumPackets())
	nudge := complex(1+math.Ldexp(1, -20-rng.Intn(21)), 0)
	switch special % 10 {
	case 1:
		plan.Encoding[pkt] = cmplxmat.Vector{0, 0}
	case 2:
		setEntry(complex(math.Inf(1), 0))
	case 3:
		setEntry(complex(math.NaN(), 1))
	case 4:
		setEntry(complex(1, math.Inf(-1)))
	case 5:
		setEntry(complex(math.MaxFloat64, 0))
	case 6:
		plan.Encoding[pkt] = cmplxmat.Vector{complex(0, math.SmallestNonzeroFloat64), 1}
	case 7:
		setEntry(complex(math.SmallestNonzeroFloat64, 0))
	case 8:
		tx, rx, i, j := rng.Intn(cs.NumTx()), rng.Intn(cs.NumRx()), rng.Intn(2), rng.Intn(2)
		h := cs[tx][rx].Clone()
		h.SetAt(i, j, h.At(i, j)*nudge)
		cs[tx][rx] = h
	case 9:
		v := plan.Encoding[pkt].Clone()
		v[rng.Intn(2)] *= nudge
		plan.Encoding[pkt] = v
	}
	return plan, cs
}

// FuzzScoreM2 pins the fixed-size M = 2 scorer, score2WS, to the
// general evaluator, evaluateWS on the same set as both the true and
// the estimate set, on solver and random plans (wired or not, up to
// four packets) with near-degenerate inputs: aligned interferers, zero
// channels, a zero encoding vector, Inf and NaN entries, and channel
// scales at both ends of jacobiScale's Gram range and of pow2Scale's,
// down to subnormals; under Shannon and MCS rates, with residual
// cancellation on and off, noise down to 0 and pruning at any
// threshold. Every Evaluation field, the error and the Rate and Decodes
// calls must agree bit for bit, any NaN matching any NaN (evalDiff).
func FuzzScoreM2(f *testing.F) {
	scales := []int{0, -10, -11, 400, 401, -1000, -1001, 1000, 1001, 0, -300, 300, -1070}
	noises := []int{0, -4, 4, -40, -1100}
	i := 0
	for shape := uint8(0); shape < 5; shape++ {
		for kind := uint8(0); kind < 3; kind++ {
			for special := uint8(0); special < 10; special++ {
				f.Add(int64(i), shape, kind, special, uint8(i), scales[i%len(scales)], noises[i%len(noises)], 0.5+float64(i%7)/2)
				i++
			}
		}
	}
	table := mimo.DefaultRateTable()
	sendable := func(_ int, sinr float64) bool {
		_, ok := table.Select(sinr)
		return ok
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, kind, special, flags uint8, scaleExp, noiseExp int, pruneAt float64) {
		rng := rand.New(rand.NewSource(seed))
		plan, cs := score2Case(rng, shape, kind, scaleExp%1100, special)
		if plan == nil {
			return
		}
		noise := math.Ldexp(1, noiseExp%1200)
		if noiseExp%1200 <= -1100 {
			noise = 0
		}
		opts := EvalOptions{NodePower: 1, Noise: noise, ResidualCancel: flags&1 != 0, Prune: flags&4 != 0, PruneAt: pruneAt}
		if flags&2 != 0 {
			opts.Rate, opts.Decodes = table.Rate, sendable
		}
		ws := cmplxmat.NewWorkspace()
		var gotLog, wantLog []evalCall
		got, gotErr := plan.score2WS(ws, cs, loggedOptions(opts, &gotLog))
		want, wantErr := plan.evaluateWS(ws, cs, cs, true, loggedOptions(opts, &wantLog))
		if d := evalDiff(got, gotErr, gotLog, want, wantErr, wantLog); d != "" {
			t.Fatalf("score2WS and evaluateWS differ in %s", d)
		}
	})
}

// estimateCase returns an estimate of cs for FuzzEvaluateM2: each
// matrix plus CN(0, 1) noise scaled 2^-errExp below its largest part
// (or below 1 when that is zero or not finite), except that with keep
// set one random matrix is cs's own, which makes its (true - est)
// matrix exactly zero.
func estimateCase(rng *rand.Rand, cs ChannelSet, errExp int, keep bool) ChannelSet {
	est := NewChannelSet(cs.NumTx(), cs.NumRx())
	m := cs.Antennas()
	for tx := range cs {
		for rx, h := range cs[tx] {
			s := h.MaxAbs()
			if s == 0 || math.IsInf(s, 0) || math.IsNaN(s) {
				s = 1
			}
			noise := cmplxmat.RandomGaussian(rng, m, m).Scale(complex(math.Ldexp(s, -errExp), 0))
			est[tx][rx] = h.Add(noise)
		}
	}
	if keep {
		tx, rx := rng.Intn(cs.NumTx()), rng.Intn(cs.NumRx())
		est[tx][rx] = cs[tx][rx]
	}
	return est
}

// FuzzEvaluateM2 pins measure2WS, EvaluateWS at M = 2
// with distinct true and estimate sets (the winner's measurement), to
// evaluateWS on the same sets: decoders from the estimates, powers from
// the true channels, leakage from their difference. The plans and
// their near-degenerate inputs are FuzzScoreM2's (score2Case), with an
// estimate 2^-1..2^-60 off the channel set, one matrix of it left
// exact or not; flags swap which of the two sets is the true one (so
// the injected Inf, NaN and extreme entries land on either side), and
// pick Shannon or MCS rates, the measurement's MCS outage rule against
// the SINRs scored on the estimates, residual cancellation, and
// pruning. Every Evaluation field, the error and the closure calls must
// agree bit for bit, any NaN matching any NaN (evalDiff).
func FuzzEvaluateM2(f *testing.F) {
	scales := []int{0, -10, -11, 400, 401, -1000, -1001, 1000, 1001, 0, -300, 300, -1070}
	noises := []int{0, -4, 4, -40, -1100}
	i := 0
	for shape := uint8(0); shape < 5; shape++ {
		for kind := uint8(0); kind < 3; kind++ {
			for special := uint8(0); special < 10; special++ {
				f.Add(int64(i), shape, kind, special, uint8(i*7), scales[i%len(scales)], noises[i%len(noises)], 0.5+float64(i%7)/2, 1+i%60)
				i++
			}
		}
	}
	table := mimo.DefaultRateTable()
	sendable := func(_ int, sinr float64) bool {
		_, ok := table.Select(sinr)
		return ok
	}
	f.Fuzz(func(t *testing.T, seed int64, shape, kind, special, flags uint8, scaleExp, noiseExp int, pruneAt float64, errExp int) {
		rng := rand.New(rand.NewSource(seed))
		plan, cs := score2Case(rng, shape, kind, scaleExp%1100, special)
		if plan == nil {
			return
		}
		est := estimateCase(rng, cs, 1+(errExp%60+60)%60, flags&8 != 0)
		trueCS, estCS := cs, est
		if flags&16 != 0 {
			trueCS, estCS = est, cs
		}
		noise := math.Ldexp(1, noiseExp%1200)
		if noiseExp%1200 <= -1100 {
			noise = 0
		}
		opts := EvalOptions{NodePower: 1, Noise: noise, ResidualCancel: flags&1 != 0, Prune: flags&4 != 0, PruneAt: pruneAt}
		ws := cmplxmat.NewWorkspace()
		switch {
		case flags&2 != 0:
			opts.Rate, opts.Decodes = table.Rate, sendable
		case flags&32 != 0:
			// The measurement's rule: a packet decodes when its realized
			// SINR clears the rung its scored SINR selected.
			scored, err := plan.evaluateWS(ws, estCS, estCS, true, EvalOptions{NodePower: 1, Noise: noise, ResidualCancel: opts.ResidualCancel, Rate: table.Rate, Decodes: sendable})
			if err != nil {
				return
			}
			planned := append([]float64(nil), scored.SINR...)
			opts.Decodes = func(pkt int, sinr float64) bool { return !table.Outage(planned[pkt], sinr) }
		}
		var gotLog, wantLog []evalCall
		got, gotErr := plan.measure2WS(ws, trueCS, estCS, loggedOptions(opts, &gotLog))
		want, wantErr := plan.evaluateWS(ws, trueCS, estCS, false, loggedOptions(opts, &wantLog))
		if d := evalDiff(got, gotErr, gotLog, want, wantErr, wantLog); d != "" {
			t.Fatalf("measure2WS and evaluateWS differ in %s", d)
		}
	})
}

// BenchmarkScoreChainM2 times one planning round's candidate scoring
// on campus_fading's shape, the M = 2 uplink chain over four APs: the
// 4 AP rotations x 3 solver attempts = 12 candidates, each scored
// through ScoreWS on its rotation's estimates with the default MCS
// table's rates and residual cancellation, pruned at the best sum rate
// so far once one has won, as planSlot scores them. The candidates are
// solved outside the timer, for 16 channel sets cycled one per op.
func BenchmarkScoreChainM2(b *testing.B) {
	rng := rand.New(rand.NewSource(131))
	type candidate struct {
		plan *Plan
		est  CheckedSet
	}
	setup := cmplxmat.NewWorkspace()
	rounds := make([][]candidate, 16)
	for i := range rounds {
		checked, err := CheckSet(RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 4, 2, testSNR))
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 4; r++ {
			perm := []int{r, (r + 1) % 4, (r + 2) % 4, (r + 3) % 4}
			est := checked.PermuteWS(setup, perm, false)
			prep := PrepareUplinkChainWS(setup, est.Set())
			for attempt := 0; attempt < 3; attempt++ {
				plan, err := prep.SolveWS(setup, rng)
				if err != nil {
					continue
				}
				rounds[i] = append(rounds[i], candidate{plan.Clone(), est})
			}
		}
	}
	table := mimo.DefaultRateTable()
	opts := EvalOptions{NodePower: 1, Noise: testNoise / testSNR, ResidualCancel: true, Rate: table.Rate,
		Decodes: func(_ int, sinr float64) bool {
			_, ok := table.Select(sinr)
			return ok
		}}
	ws := cmplxmat.NewWorkspace()
	round := func(candidates []candidate) {
		ws.Reset()
		best, won := -1.0, false
		for _, c := range candidates {
			opts.Prune, opts.PruneAt = won, best
			ev, err := c.plan.ScoreWS(ws, c.est, opts)
			if err != nil || ev.Pruned {
				continue
			}
			if ev.SumRate > best {
				best, won = ev.SumRate, true
			}
		}
	}
	round(rounds[0]) // warms the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round(rounds[i%len(rounds)])
	}
}
