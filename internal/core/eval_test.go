package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/mimo"
	"iaclan/internal/stats"
)

// evalBitEqualF compares float slices by bit pattern — the evaluator's
// contract is bit-identity with the scalar oracle, not tolerance-level
// agreement.
func evalBitEqualF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func evalBitEqualV(a, b cmplxmat.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// perturbedEstimate corrupts a channel set the way estimation noise
// does, so the est/true split (zero-forcing off est, measuring under
// true, leakage through the difference) is exercised.
func perturbedEstimate(rng *rand.Rand, cs ChannelSet) ChannelSet {
	est := NewChannelSet(cs.NumTx(), cs.NumRx())
	m := cs.Antennas()
	for tx := range cs {
		for rx := range cs[tx] {
			noise := cmplxmat.RandomGaussian(rng, m, m).Scale(complex(0.05*cs[tx][rx].FrobeniusNorm()/float64(m), 0))
			est[tx][rx] = cs[tx][rx].Add(noise)
		}
	}
	return est
}

// ladderRate is a discrete rate table for the evaluator tests: four
// rungs at linear SINR thresholds 1, 3, 7 and 15.
func ladderRate(sinr float64) float64 {
	switch {
	case sinr >= 15:
		return 6
	case sinr >= 7:
		return 4.5
	case sinr >= 3:
		return 3
	case sinr >= 1:
		return 1.5
	default:
		return 0
	}
}

// ladderDecodes is ladderRate's decode rule: a packet below the lowest
// rung fails.
func ladderDecodes(_ int, sinr float64) bool { return sinr >= 1 }

// evalCase is one evaluation the equivalence test pins: a plan and the
// channel sets and options it is measured under.
type evalCase struct {
	name          string
	plan          *Plan
	trueCS, estCS ChannelSet
	opts          EvalOptions
}

// diversityOptions builds the three 1x2 downlink diversity plans the
// diversity solver scores: both packets from AP 0 (its eigenmodes), both
// from AP 1, or one from each (random unit vectors).
func diversityOptions(rng *rand.Rand, cs ChannelSet) []*Plan {
	var plans []*Plan
	for _, owners := range [][]int{{0, 0}, {1, 1}, {0, 1}} {
		plan := &Plan{
			M:        2,
			Owner:    owners,
			Encoding: []cmplxmat.Vector{randUnit(rng, 2), randUnit(rng, 2)},
			Schedule: []DecodeStep{{Rx: 0, Packets: []int{0, 1}}},
		}
		if owners[0] == owners[1] {
			ws := cmplxmat.NewWorkspace()
			_, _, v := cs[owners[0]][0].SVDWS(ws)
			plan.Encoding[0], plan.Encoding[1] = v.ColWS(ws, 0), v.ColWS(ws, 1)
		}
		plans = append(plans, plan)
	}
	return plans
}

// evalCases builds every plan shape production evaluates — uplink
// three, N-AP chains at M = 2..5, the downlink triangle, the
// two-client downlink at M = 3..5 (Lemma 5.1) and the three 1x2
// diversity options — each under residual-cancel leakage, a discrete
// rate table and a decode threshold, and each measured twice: under a
// perturbed estimate, and with the true set passed as the estimate
// itself, the collapsed table every scoring job uses.
func evalCases(t *testing.T) []evalCase {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	mcs, decodes := ladderRate, ladderDecodes
	noise := testNoise / testSNR
	optCases := []struct {
		name string
		opts EvalOptions
	}{
		{"shannon", EvalOptions{NodePower: 1.0, Noise: noise}},
		{"residual-cancel", EvalOptions{NodePower: 1.0, Noise: noise, ResidualCancel: true}},
		{"mcs", EvalOptions{NodePower: 1.0, Noise: noise, Rate: mcs, Decodes: decodes}},
		{"mcs-residual", EvalOptions{NodePower: 1.0, Noise: noise, ResidualCancel: true, Rate: mcs, Decodes: decodes}},
	}

	var cases []evalCase
	add := func(name string, plan *Plan, err error, cs ChannelSet) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, oc := range optCases {
			cases = append(cases,
				evalCase{name + "/" + oc.name + "/perturbed", plan, cs, perturbedEstimate(rng, cs), oc.opts},
				evalCase{name + "/" + oc.name + "/est-only", plan, cs, cs, oc.opts})
		}
	}
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	plan, err := SolveUplinkThree(cs, rng)
	add("uplink-three", plan, err, cs)
	for m := 2; m <= 5; m++ {
		clients := UplinkChainAssignment{M: m}.NumClients()
		cs := RandomChannelSet(rng, clients, UplinkAPsNeeded(m), m, testSNR)
		plan, err := SolveUplinkChain(cs, rng)
		add(fmt.Sprintf("chain-m%d", m), plan, err, cs)
	}
	cs = RandomChannelSet(rng, 3, 3, 2, testSNR)
	plan, err = SolveDownlinkTriangle(cs)
	add("triangle", plan, err, cs)
	for m := 3; m <= 5; m++ {
		cs := RandomChannelSet(rng, m-1, 2, m, testSNR)
		plan, err := SolveDownlinkTwoClient(cs, rng)
		add(fmt.Sprintf("two-client-m%d", m), plan, err, cs)
	}
	cs = RandomChannelSet(rng, 2, 1, 2, testSNR)
	for i, plan := range diversityOptions(rng, cs) {
		add(fmt.Sprintf("diversity-%d", i), plan, nil, cs)
	}

	// An invalid plan must report the same error as the scalar oracle.
	cs = RandomChannelSet(rng, 2, 2, 2, testSNR)
	plan, err = SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	bad := *plan
	bad.Schedule = []DecodeStep{{Rx: 0, Packets: []int{0, 0}}, {Rx: 1, Packets: []int{1, 2}}}
	cases = append(cases, evalCase{"invalid", &bad, cs, cs, optCases[0].opts})
	return cases
}

// evaluateScalarWS is the slot evaluator's test-only oracle: the SINR
// recursion with every channel product re-derived where it is used
// instead of read from a direction table. EvaluateWS must match it bit
// for bit.
func evaluateScalarWS(ws *cmplxmat.Workspace, p *Plan, trueCS, estCS ChannelSet, opts EvalOptions) (Evaluation, error) {
	nodePower, noise := opts.NodePower, opts.Noise
	k := p.NumPackets()
	if err := p.validateWith(ws.Bools(k)); err != nil {
		return Evaluation{}, err
	}
	ev := Evaluation{
		SINR:       ws.Floats(k),
		PacketRate: ws.Floats(k),
		Decoding:   ws.Vectors(k),
	}
	powers := ws.Floats(k)
	p.packetPowersInto(powers, nodePower)
	decoded := ws.Bools(k)
	residual := ws.Ints(k)
	interfDirs := ws.Vectors(k)
	for _, step := range p.Schedule {
		nRes := 0
		for pkt := range p.Owner {
			if p.Wired && decoded[pkt] {
				continue
			}
			residual[nRes] = pkt
			nRes++
		}
		for _, pkt := range step.Packets {
			nInt := 0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				d := estCS[p.Owner[q]][step.Rx].MulVecWS(ws, p.Encoding[q])
				interfDirs[nInt] = d.ScaleWS(ws, complex(math.Sqrt(powers[q]), 0))
				nInt++
			}
			sigDir := estCS[p.Owner[pkt]][step.Rx].MulVecWS(ws, p.Encoding[pkt])
			w := zfDecodingVectorWS(ws, sigDir, interfDirs[:nInt], p.M)
			if w == nil {
				return Evaluation{}, fmt.Errorf("%w: no decoding vector for packet %d at rx %d", ErrInfeasible, pkt, step.Rx)
			}
			ev.Decoding[pkt] = w

			hTrue := trueCS[p.Owner[pkt]][step.Rx]
			sig := cmplxAbs2(w.Dot(hTrue.MulVecWS(ws, p.Encoding[pkt]))) * powers[pkt]
			interf := 0.0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				d := trueCS[p.Owner[q]][step.Rx].MulVecWS(ws, p.Encoding[q])
				interf += cmplxAbs2(w.Dot(d)) * powers[q]
			}
			if p.Wired {
				for q := range p.Owner {
					if !decoded[q] {
						continue
					}
					h := trueCS[p.Owner[q]][step.Rx]
					diff := ws.Matrix(h.Rows(), h.Cols())
					h.SubInto(diff, estCS[p.Owner[q]][step.Rx])
					interf += cmplxAbs2(w.Dot(diff.MulVecWS(ws, p.Encoding[q]))) * powers[q]
					if opts.ResidualCancel {
						d := trueCS[p.Owner[q]][step.Rx].MulVecWS(ws, p.Encoding[q])
						interf += cmplxAbs2(w.Dot(d)) * powers[q] / (1 + ev.SINR[q])
					}
				}
			}
			sinr := sig / (noise + interf)
			ev.SINR[pkt] = sinr
			if opts.Rate != nil {
				ev.PacketRate[pkt] = opts.Rate(sinr)
			} else {
				ev.PacketRate[pkt] = stats.ShannonRate(sinr)
			}
			ev.SumRate += ev.PacketRate[pkt]
		}
		for _, pkt := range step.Packets {
			if opts.Decodes == nil || opts.Decodes(pkt, ev.SINR[pkt]) {
				decoded[pkt] = true
			}
		}
	}
	return ev, nil
}

// TestEvaluateWSMatchesScalar pins the slot evaluator bitwise against
// the scalar oracle across every plan shape of evalCases, including its
// error for an invalid plan, and pins the product count the evaluator
// reports: one per (packet, visited receiver) and kind.
func TestEvaluateWSMatchesScalar(t *testing.T) {
	for _, c := range evalCases(t) {
		got, gotErr := c.plan.EvaluateWS(cmplxmat.NewWorkspace(), c.trueCS, c.estCS, c.opts)
		want, wantErr := evaluateScalarWS(cmplxmat.NewWorkspace(), c.plan, c.trueCS, c.estCS, c.opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error behavior diverged: evaluator=%v scalar=%v", c.name, gotErr, wantErr)
		}
		if wantErr != nil {
			if c.name != "invalid" {
				t.Fatalf("%s: %v", c.name, wantErr)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error text diverged: evaluator=%q scalar=%q", c.name, gotErr, wantErr)
			}
			continue
		}
		rxs := map[int]bool{}
		for _, st := range c.plan.Schedule {
			rxs[st.Rx] = true
		}
		kinds := 3
		if sameChannels(c.trueCS, c.estCS) {
			kinds = 1
		}
		if want := len(rxs) * c.plan.NumPackets() * kinds; got.Products != want {
			t.Fatalf("%s: %d products, want %d", c.name, got.Products, want)
		}
		if math.Float64bits(got.SumRate) != math.Float64bits(want.SumRate) {
			t.Fatalf("%s: SumRate diverged: evaluator=%v scalar=%v", c.name, got.SumRate, want.SumRate)
		}
		if !evalBitEqualF(got.SINR, want.SINR) {
			t.Fatalf("%s: SINR diverged:\n evaluator=%v\n scalar=%v", c.name, got.SINR, want.SINR)
		}
		if !evalBitEqualF(got.PacketRate, want.PacketRate) {
			t.Fatalf("%s: PacketRate diverged", c.name)
		}
		if len(got.Decoding) != len(want.Decoding) {
			t.Fatalf("%s: decoding vector count diverged", c.name)
		}
		for p := range want.Decoding {
			if !evalBitEqualV(got.Decoding[p], want.Decoding[p]) {
				t.Fatalf("%s packet %d: decoding vector diverged", c.name, p)
			}
		}
	}
}

// TestEvaluateRejectsOutOfRange: a plan or channel set that does not fit
// together is an error from Evaluate, never a panic — owners and
// receivers out of range either way, and estimate sets shaped unlike
// the true set or holding a missing or mis-sized channel.
func TestEvaluateRejectsOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	base, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	withEst := func(edit func(est ChannelSet) ChannelSet) ChannelSet {
		est := NewChannelSet(2, 2)
		for tx := range cs {
			copy(est[tx], cs[tx])
		}
		return edit(est)
	}
	cases := []struct {
		name string
		plan func(p *Plan)
		est  ChannelSet
	}{
		{"owner past the transmitters", func(p *Plan) { p.Owner[2] = 5 }, cs},
		{"negative owner", func(p *Plan) { p.Owner[0] = -1 }, cs},
		{"receiver past the receivers", func(p *Plan) { p.Schedule[1].Rx = 7 }, cs},
		{"negative receiver", func(p *Plan) { p.Schedule[0].Rx = -1 }, cs},
		{"estimate missing a transmitter", nil, withEst(func(est ChannelSet) ChannelSet { return est[:1] })},
		{"estimate missing a receiver", nil, withEst(func(est ChannelSet) ChannelSet {
			est[1] = est[1][:1]
			return est
		})},
		{"estimate missing a channel", nil, withEst(func(est ChannelSet) ChannelSet {
			est[0][1] = nil
			return est
		})},
		{"estimate channel mis-sized", nil, withEst(func(est ChannelSet) ChannelSet {
			est[1][0] = cmplxmat.RandomGaussian(rng, 3, 3)
			return est
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plan := base.Clone()
			if c.plan != nil {
				c.plan(plan)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Evaluate panicked: %v", r)
				}
			}()
			if _, err := plan.Evaluate(cs, c.est, 1.0, testNoise/testSNR); err == nil {
				t.Fatal("Evaluate accepted the input")
			}
		})
	}
}

// TestMalformedSetsRejectedEverywhere feeds malformed channel sets to
// every exported entry point that takes one: Evaluate and EvaluateWS
// (as the true set and as the estimate set), CheckSet, and ScoreWS,
// which a malformed set can reach only as a zero CheckedSet, or as a
// checked set too small or of another antenna count for the plan. Each
// returns an error, never a panic.
func TestMalformedSetsRejectedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	edited := func(edit func(c ChannelSet) ChannelSet) ChannelSet {
		c := NewChannelSet(2, 2)
		for tx := range cs {
			copy(c[tx], cs[tx])
		}
		return edit(c)
	}
	malformed := map[string]ChannelSet{
		"missing a transmitter": edited(func(c ChannelSet) ChannelSet { return c[:1] }),
		"ragged": edited(func(c ChannelSet) ChannelSet {
			c[1] = c[1][:1]
			return c
		}),
		"missing a channel": edited(func(c ChannelSet) ChannelSet {
			c[0][1] = nil
			return c
		}),
		"mis-sized channel": edited(func(c ChannelSet) ChannelSet {
			c[1][0] = cmplxmat.RandomGaussian(rng, 3, 3)
			return c
		}),
		"empty": nil,
	}
	ws := cmplxmat.NewWorkspace()
	opts := EvalOptions{NodePower: 1, Noise: testNoise / testSNR}
	for name, bad := range malformed {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if _, err := plan.Evaluate(cs, bad, 1, opts.Noise); err == nil {
				t.Error("Evaluate accepted it as the estimate set")
			}
			if _, err := plan.Evaluate(bad, cs, 1, opts.Noise); err == nil {
				t.Error("Evaluate accepted it as the true set")
			}
			if _, err := plan.EvaluateWS(ws, bad, bad, opts); err == nil {
				t.Error("EvaluateWS accepted it")
			}
			if name != "missing a transmitter" && name != "empty" {
				// Those two are well formed, only too small for the plan.
				if _, err := CheckSet(bad); err == nil {
					t.Error("CheckSet accepted it")
				}
			}
			checked, err := CheckSet(bad)
			if err != nil {
				checked = CheckedSet{}
			}
			if _, err := plan.ScoreWS(ws, checked, opts); err == nil {
				t.Error("ScoreWS accepted it")
			}
		})
	}
	t.Run("other antenna count", func(t *testing.T) {
		checked, err := CheckSet(RandomChannelSet(rng, 2, 2, 3, testSNR))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.ScoreWS(ws, checked, opts); err == nil {
			t.Error("ScoreWS scored a 2-antenna plan on 3x3 channels")
		}
	})
}

// TestScoreWSRejectsBadPlans scores the bad plans of
// TestValidateCatchesBadPlans, a negative owner and receiver and a
// truncated schedule through ScoreWS and EvaluateWS, each made from a
// solver plan still on its layout: both must return validateWith's
// error, never panic. An encoding edit keeps the layout's slices, so it
// takes the encodings-only check; an owner or schedule edit replaces a
// slice and gets the whole check.
func TestScoreWSRejectsBadPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	checked, err := CheckSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	ws := cmplxmat.NewWorkspace()
	plan, err := SolveUplinkThreeWS(ws, cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.layout.holds(&plan) {
		t.Fatal("the solver's plan is not on its layout")
	}
	opts := EvalOptions{NodePower: 1, Noise: testNoise / testSNR}
	if _, err := plan.ScoreWS(ws, checked, opts); err != nil {
		t.Fatal(err)
	}
	encodings := func(edit func(enc []cmplxmat.Vector)) []cmplxmat.Vector {
		enc := append([]cmplxmat.Vector(nil), plan.Encoding...)
		edit(enc)
		return enc
	}
	cases := []struct {
		name     string
		edit     func(p *Plan)
		onLayout bool
	}{
		{"duplicate decode", func(p *Plan) {
			p.Schedule = []DecodeStep{{Rx: 0, Packets: []int{0, 0}}, {Rx: 1, Packets: []int{1, 2}}}
		}, false},
		{"missing packet", func(p *Plan) { p.Schedule = []DecodeStep{{Rx: 0, Packets: []int{0}}} }, false},
		{"out-of-range packet", func(p *Plan) { p.Schedule = []DecodeStep{{Rx: 0, Packets: []int{7}}} }, false},
		{"truncated schedule", func(p *Plan) { p.Schedule = p.Schedule[:1] }, false},
		{"negative owner", func(p *Plan) { p.Owner = []int{-1, 0, 1} }, false},
		{"negative receiver", func(p *Plan) {
			p.Schedule = []DecodeStep{{Rx: -1, Packets: []int{0}}, {Rx: 1, Packets: []int{1, 2}}}
		}, false},
		{"non-unit encoding", func(p *Plan) {
			p.Encoding = encodings(func(enc []cmplxmat.Vector) { enc[0] = enc[0].Scale(2) })
		}, true},
		{"wrong dimension", func(p *Plan) {
			p.Encoding = encodings(func(enc []cmplxmat.Vector) { enc[0] = cmplxmat.Vector{1} })
		}, true},
		{"count mismatch", func(p *Plan) { p.Encoding = plan.Encoding[:2] }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := plan
			c.edit(&bad)
			if got := bad.layout.holds(&bad); got != c.onLayout {
				t.Fatalf("on its layout: %v, want %v", got, c.onLayout)
			}
			want := bad.Validate()
			if want == nil {
				t.Fatal("Validate accepted it")
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if _, err := bad.ScoreWS(ws, checked, opts); fmt.Sprint(err) != want.Error() {
				t.Errorf("ScoreWS: %v, want %v", err, want)
			}
			if _, err := bad.EvaluateWS(ws, cs, perturbedEstimate(rng, cs), opts); fmt.Sprint(err) != want.Error() {
				t.Errorf("EvaluateWS: %v, want %v", err, want)
			}
		})
	}
}

// TestScoreWSMatchesEvaluateWS: ScoreWS on a checked set, and
// EvaluateWS with distinct true and estimate sets (the winner's
// measurement) or with one set as both, match the general evaluator
// evaluateWS bit for bit in every Evaluation field, Decoding included,
// with the same error and the same Rate and Decodes calls in the same
// order. At M = 2 they run the fixed-size score2WS (one set) and
// measure2WS (two sets), so this pins both to evaluateWS on every M = 2
// shape
// the planners build (the chain over 3 and 4 APs, the 2-AP three-packet
// uplink, wired; the downlink triangle and the diversity options,
// unwired), and on an M = 3 chain, which takes evaluateWS itself. Each
// plan is evaluated on the set it was solved on (exact alignment), on a
// perturbed one, and with either of the two as the true set and the
// other as the estimates, under Shannon and ladder rates, with residual
// cancellation on and off, under the measurement's MCS outage rule
// against the SINRs scored on the estimates, and pruned at thresholds
// that stop it before each of its packets in turn.
func TestScoreWSMatchesEvaluateWS(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	ws := cmplxmat.NewWorkspace()
	noise := testNoise / testSNR
	shapes := []struct {
		name          string
		m, numTx, aps int
		trials        int
		solve         func(ChannelSet, *rand.Rand) (*Plan, error)
	}{
		{"chain-3ap", 2, 3, 3, 20, SolveUplinkChain},
		{"chain-4ap", 2, 3, 4, 20, SolveUplinkChain},
		{"uplink-three", 2, 2, 2, 10, SolveUplinkThree},
		{"triangle", 2, 3, 3, 10, func(cs ChannelSet, _ *rand.Rand) (*Plan, error) { return SolveDownlinkTriangle(cs) }},
		{"chain-m3", 3, UplinkChainAssignment{M: 3}.NumClients(), UplinkAPsNeeded(3), 10, SolveUplinkChain},
	}
	// prunedAt[shape][i] counts the evaluations that pruned before the
	// plan's i-th packet in schedule order.
	prunedAt := map[string]*[4]int{}
	for _, sh := range shapes {
		prunedAt[sh.name] = new([4]int)
		for trial := 0; trial < sh.trials; trial++ {
			cs := RandomChannelSet(rng, sh.numTx, sh.aps, sh.m, testSNR)
			plan, err := sh.solve(cs, rng)
			if err != nil {
				t.Fatalf("%s trial %d: %v", sh.name, trial, err)
			}
			perturbed := perturbedEstimate(rng, cs)
			for i, sets := range [][2]ChannelSet{{cs, cs}, {perturbed, perturbed}, {perturbed, cs}, {cs, perturbed}} {
				name := fmt.Sprintf("%s trial %d sets %d", sh.name, trial, i)
				evalMatchesReference(t, ws, name, plan, sets[0], sets[1], noise, prunedAt[sh.name])
			}
		}
	}
	cs := RandomChannelSet(rng, 2, 1, 2, testSNR)
	perturbed := perturbedEstimate(rng, cs)
	for i, plan := range diversityOptions(rng, cs) {
		for j, sets := range [][2]ChannelSet{{cs, cs}, {perturbed, cs}} {
			evalMatchesReference(t, ws, fmt.Sprintf("diversity-%d sets %d", i, j), plan, sets[0], sets[1], noise, new([4]int))
		}
	}
	for _, name := range []string{"chain-3ap", "chain-4ap"} {
		for i, n := range prunedAt[name] {
			if n == 0 {
				t.Errorf("%s: no evaluation pruned before packet %d of the schedule", name, i)
			}
		}
	}
}

// evalMatchesReference evaluates plan with powers from trueCS and
// decoders from estCS through EvaluateWS, and through ScoreWS when the
// two are one set, under a list of options, and fails on any difference
// from evaluateWS (see evalDiff); the prune thresholds come from the
// plan's own bounds and rates. prunedAt counts where the pruned
// evaluations stopped, by schedule position.
func evalMatchesReference(t *testing.T, ws *cmplxmat.Workspace, name string, plan *Plan, trueCS, estCS ChannelSet, noise float64, prunedAt *[4]int) {
	t.Helper()
	same := sameChannels(trueCS, estCS)
	checked, err := CheckSet(estCS)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts EvalOptions) (Evaluation, []evalCall) {
		t.Helper()
		var wantLog []evalCall
		want, wantErr := plan.evaluateWS(ws, trueCS, estCS, same, loggedOptions(opts, &wantLog))
		var gotLog []evalCall
		got, gotErr := plan.EvaluateWS(ws, trueCS, estCS, loggedOptions(opts, &gotLog))
		if d := evalDiff(got, gotErr, gotLog, want, wantErr, wantLog); d != "" {
			t.Fatalf("%s, %+v: EvaluateWS and evaluateWS differ in %s", name, opts, d)
		}
		if same {
			gotLog = nil
			got, gotErr = plan.ScoreWS(ws, checked, loggedOptions(opts, &gotLog))
			if d := evalDiff(got, gotErr, gotLog, want, wantErr, wantLog); d != "" {
				t.Fatalf("%s, %+v: ScoreWS and evaluateWS differ in %s", name, opts, d)
			}
		}
		return want, wantLog
	}
	k := plan.NumPackets()
	list := []EvalOptions{
		{NodePower: 1, Noise: noise},
		{NodePower: 1, Noise: noise, ResidualCancel: true},
		{NodePower: 1, Noise: noise, Prune: true, PruneAt: 10},
		{NodePower: 1, Noise: noise, ResidualCancel: true, Rate: ladderRate, Decodes: ladderDecodes},
	}
	// The measurement's MCS rule (testbed's trueOpts): continuous rates,
	// and a packet decodes when its realized SINR clears the rung its
	// SINR scored on the estimates selected.
	table := mimo.DefaultRateTable()
	for _, residual := range []bool{false, true} {
		scored, err := plan.evaluateWS(ws, estCS, estCS, true, EvalOptions{NodePower: 1, Noise: noise, ResidualCancel: residual, Rate: table.Rate,
			Decodes: func(_ int, sinr float64) bool {
				_, ok := table.Select(sinr)
				return ok
			}})
		if err != nil {
			continue
		}
		planned := append([]float64(nil), scored.SINR...)
		list = append(list, EvalOptions{NodePower: 1, Noise: noise, ResidualCancel: residual,
			Decodes: func(pkt int, sinr float64) bool { return !table.Outage(planned[pkt], sinr) }})
	}
	for _, opts := range list {
		run(opts)
	}
	for _, rate := range []func(float64) float64{stats.ShannonRate, ladderRate} {
		// An unpruned run logs the k rate bounds, then the k rates, in
		// schedule order; from them, ub below is the sum the prune test
		// compares before packet i.
		opts := EvalOptions{NodePower: 1, Noise: noise, ResidualCancel: true, Rate: rate, Decodes: ladderDecodes, Prune: true, PruneAt: math.Inf(-1)}
		full, log := run(opts)
		if full.Pruned {
			t.Fatalf("%s: pruned at -Inf", name)
		}
		var outs []float64
		for _, c := range log {
			if c.pkt < 0 {
				outs = append(outs, c.out)
			}
		}
		if len(outs) != 2*k {
			t.Fatalf("%s: %d Rate calls unpruned, want %d", name, len(outs), 2*k)
		}
		for i := 0; i < k; i++ {
			ub := 0.0
			for _, r := range outs[k : k+i] {
				ub += r
			}
			for _, b := range outs[i:k] {
				ub += b
			}
			for _, at := range []float64{ub, math.Nextafter(ub, math.Inf(-1))} {
				opts.PruneAt = at
				ev, log := run(opts)
				if !ev.Pruned {
					continue
				}
				rates := -k
				for _, c := range log {
					if c.pkt < 0 {
						rates++
					}
				}
				if rates < len(prunedAt) {
					prunedAt[rates]++
				}
			}
		}
	}
}

// evalCall is one call an evaluation made to its options' closures: a
// Rate call (pkt -1) or a Decodes call for pkt, with the SINR passed
// and, for Rate, the rate returned.
type evalCall struct {
	pkt       int
	sinr, out float64
}

// loggedOptions returns opts with Rate (Shannon when nil) and Decodes
// (when set) wrapped to append each call to log.
func loggedOptions(opts EvalOptions, log *[]evalCall) EvalOptions {
	rate := opts.Rate
	if rate == nil {
		rate = stats.ShannonRate
	}
	opts.Rate = func(sinr float64) float64 {
		r := rate(sinr)
		*log = append(*log, evalCall{-1, sinr, r})
		return r
	}
	if decodes := opts.Decodes; decodes != nil {
		opts.Decodes = func(pkt int, sinr float64) bool {
			*log = append(*log, evalCall{pkt, sinr, 0})
			return decodes(pkt, sinr)
		}
	}
	return opts
}

// evalDiff names the first thing in which two evaluations differ bit
// for bit, "" if none: the error's text, Pruned, Products, SumRate,
// SINR, PacketRate, Decoding (each vector, nil or not) and the logged
// closure calls. Any NaN matches any NaN: which NaN an operation on a
// NaN returns is the compiler's choice (it may swap a commutative
// operation's operands), and a build instrumented for fuzzing chooses
// differently from a plain one.
func evalDiff(a Evaluation, aErr error, aLog []evalCall, b Evaluation, bErr error, bLog []evalCall) string {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) || x != x && y != y }
	sameF := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !same(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case fmt.Sprint(aErr) != fmt.Sprint(bErr):
		return fmt.Sprintf("error: %v vs %v", aErr, bErr)
	case a.Pruned != b.Pruned:
		return fmt.Sprintf("Pruned: %v vs %v", a.Pruned, b.Pruned)
	case a.Products != b.Products:
		return fmt.Sprintf("Products: %d vs %d", a.Products, b.Products)
	case !same(a.SumRate, b.SumRate):
		return fmt.Sprintf("SumRate: %v vs %v", a.SumRate, b.SumRate)
	case !sameF(a.SINR, b.SINR):
		return fmt.Sprintf("SINR: %v vs %v", a.SINR, b.SINR)
	case !sameF(a.PacketRate, b.PacketRate):
		return fmt.Sprintf("PacketRate: %v vs %v", a.PacketRate, b.PacketRate)
	case len(a.Decoding) != len(b.Decoding):
		return fmt.Sprintf("Decoding: %d vs %d vectors", len(a.Decoding), len(b.Decoding))
	case len(aLog) != len(bLog):
		return fmt.Sprintf("closure calls: %d vs %d", len(aLog), len(bLog))
	}
	for i, x := range a.Decoding {
		y := b.Decoding[i]
		ok := (x == nil) == (y == nil) && len(x) == len(y)
		for j := 0; ok && j < len(x); j++ {
			ok = same(real(x[j]), real(y[j])) && same(imag(x[j]), imag(y[j]))
		}
		if !ok {
			return fmt.Sprintf("Decoding[%d]: %v vs %v", i, x, y)
		}
	}
	for i := range aLog {
		x, y := aLog[i], bLog[i]
		if x.pkt != y.pkt || !same(x.sinr, y.sinr) || !same(x.out, y.out) {
			return fmt.Sprintf("closure call %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// BenchmarkEvaluateUplinkChain times the slot evaluator at M = 2 on a
// 3-AP uplink-chain plan: EvaluateWS on the estimates alone (the
// collapsed table) plus the winner's measurement on the true channels
// (the full table), with residual cancellation, on the fixed-size
// score2WS and measure2WS; BenchmarkEvaluateUplinkChainM3 times the
// general evaluateWS on the same job at M = 3.
func BenchmarkEvaluateUplinkChain(b *testing.B) { benchEvaluateUplinkChain(b, 2) }

// BenchmarkEvaluateUplinkChainM3 is BenchmarkEvaluateUplinkChain at
// M = 3, on the general evaluator.
func BenchmarkEvaluateUplinkChainM3(b *testing.B) { benchEvaluateUplinkChain(b, 3) }

func benchEvaluateUplinkChain(b *testing.B, m int) {
	rng := rand.New(rand.NewSource(41))
	cs := RandomChannelSet(rng, UplinkChainAssignment{M: m}.NumClients(), 3, m, testSNR)
	plan, err := SolveUplinkChain(cs, rng)
	if err != nil {
		b.Fatal(err)
	}
	est := perturbedEstimate(rng, cs)
	opts := EvalOptions{NodePower: 1.0, Noise: testNoise / testSNR, ResidualCancel: true}
	ws := cmplxmat.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		if _, err := plan.EvaluateWS(ws, est, est, opts); err != nil {
			b.Fatal(err)
		}
		if _, err := plan.EvaluateWS(ws, cs, est, opts); err != nil {
			b.Fatal(err)
		}
	}
}
