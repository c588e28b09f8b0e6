package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
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
// three, N-AP chains at M = 2..5 (M = 5 is past cmplxmat.SmallDim, on
// arena storage), the downlink triangle, the two-client downlink at
// M = 3..5 (Lemma 5.1) and the three 1x2 diversity options — each under
// residual-cancel leakage, a discrete rate table and a decode threshold,
// and each measured twice: under a perturbed estimate, and with the true
// set passed as the estimate itself, the collapsed table every scoring
// job uses.
func evalCases(t *testing.T) []evalCase {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	mcs := func(sinr float64) float64 {
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
	decodes := func(_ int, sinr float64) bool { return sinr >= 1 }
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

// TestScoreWSMatchesEvaluateWS: scoring on a checked set is EvaluateWS
// with that set as both the true and the estimate set, bit for bit,
// pruned or not.
func TestScoreWSMatchesEvaluateWS(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	ws := cmplxmat.NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		cs := RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR)
		plan, err := SolveUplinkChain(cs, rng)
		if err != nil {
			t.Fatal(err)
		}
		checked, err := CheckSet(cs)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []EvalOptions{
			{NodePower: 1, Noise: testNoise / testSNR, ResidualCancel: true},
			{NodePower: 1, Noise: testNoise / testSNR, Prune: true, PruneAt: 10},
		} {
			got, gotErr := plan.ScoreWS(ws, checked, opts)
			want, wantErr := plan.EvaluateWS(ws, cs, cs, opts)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got.Pruned != want.Pruned || got.Products != want.Products ||
				math.Float64bits(got.SumRate) != math.Float64bits(want.SumRate) || !evalBitEqualF(got.SINR, want.SINR) {
				t.Fatalf("trial %d: ScoreWS %+v (%v), EvaluateWS %+v (%v)", trial, got, gotErr, want, wantErr)
			}
		}
	}
}

// BenchmarkEvaluateUplinkChain times the slot evaluator on one planning
// round's worth of work at M = 2: one 3-AP uplink-chain candidate scored
// on the estimates (the collapsed table) plus the winner's measurement
// on the true channels (the full table), with residual cancellation.
func BenchmarkEvaluateUplinkChain(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	cs := RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR)
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
