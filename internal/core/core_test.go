package core

import (
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
)

const (
	testSNR   = 1000 // 30 dB
	testNoise = 1.0
)

func TestChannelSetShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cs := RandomChannelSet(rng, 3, 2, 2, testSNR)
	if cs.NumTx() != 3 || cs.NumRx() != 2 || cs.Antennas() != 2 {
		t.Fatalf("shape %d %d %d", cs.NumTx(), cs.NumRx(), cs.Antennas())
	}
	empty := NewChannelSet(2, 2)
	if empty.Antennas() != 0 {
		t.Fatal("empty set antennas")
	}
	if (ChannelSet{}).NumRx() != 0 {
		t.Fatal("zero set NumRx")
	}
}

func TestSolveUplinkThreeAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
		plan, err := SolveUplinkThree(cs, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		// Eq. 2: packets 1 and 2 aligned at AP 0.
		d1 := cs[0][0].MulVec(plan.Encoding[1])
		d2 := cs[1][0].MulVec(plan.Encoding[2])
		if !parallel(d1, d2, 1e-8) {
			t.Fatalf("trial %d: packets 1,2 not aligned at AP0", trial)
		}
		// NOT aligned at AP 1 (channels are independent).
		e1 := cs[0][1].MulVec(plan.Encoding[1])
		e2 := cs[1][1].MulVec(plan.Encoding[2])
		if parallel(e1, e2, 1e-4) {
			t.Fatalf("trial %d: packets aligned at AP1 too (degenerate)", trial)
		}
		if r := plan.AlignmentResidual(cs); r > 1e-7 {
			t.Fatalf("trial %d: alignment residual %v", trial, r)
		}
	}
}

func TestSolveUplinkThreeDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := plan.Evaluate(cs, cs, 1.0, testNoise/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.SINR) != 3 {
		t.Fatalf("SINR count %d", len(ev.SINR))
	}
	// With perfect channel knowledge, projections null all interference:
	// every packet's SINR should be within a diversity factor of the raw
	// SNR, far above the no-alignment interference floor (~0 dB).
	for i, s := range ev.SINR {
		if s < 10 {
			t.Fatalf("packet %d SINR %v too low (interference not nulled?)", i, s)
		}
	}
	if ev.SumRate <= 0 {
		t.Fatal("sum rate not positive")
	}
}

func TestSolveUplinkThreeShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cs := RandomChannelSet(rng, 3, 2, 2, testSNR)
	if _, err := SolveUplinkThree(cs, rng); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestSolveUplinkChainM2MatchesFig5(t *testing.T) {
	// M=2: the four-packet example of Fig. 5 / Eqs. 3-4.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		// Fig. 5 layout: 3 clients (owners 0,0,1,2), 3 APs.
		cs := RandomChannelSet(rng, 3, 3, 2, testSNR)
		plan, err := SolveUplinkChain(cs, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		if plan.NumPackets() != 4 {
			t.Fatalf("packet count %d want 4", plan.NumPackets())
		}
		wantOwners := []int{0, 0, 1, 2}
		for i, o := range plan.Owner {
			if o != wantOwners[i] {
				t.Fatalf("owners %v want %v", plan.Owner, wantOwners)
			}
		}
		// Eq. 3 shape at AP0: packets 1,2,3 collapse to one direction
		// (M-1 = 1 dimensional subspace).
		d1 := cs[plan.Owner[1]][0].MulVec(plan.Encoding[1])
		d2 := cs[plan.Owner[2]][0].MulVec(plan.Encoding[2])
		d3 := cs[plan.Owner[3]][0].MulVec(plan.Encoding[3])
		if !parallel(d1, d2, 1e-6) || !parallel(d1, d3, 1e-6) {
			t.Fatalf("trial %d: Eq.3 alignment at AP0 broken", trial)
		}
		// Eq. 4 at AP1: the A-set (packets 2 and 3) shares one direction.
		a2 := cs[plan.Owner[2]][1].MulVec(plan.Encoding[2])
		a3 := cs[plan.Owner[3]][1].MulVec(plan.Encoding[3])
		if !parallel(a2, a3, 1e-6) {
			t.Fatalf("trial %d: Eq.4 alignment at AP1 broken", trial)
		}
		if r := plan.AlignmentResidual(cs); r > 1e-5 {
			t.Fatalf("trial %d: residual %v", trial, r)
		}
	}
}

func TestSolveUplinkChainDeliversTwoM(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for m := 2; m <= 5; m++ {
		clients := UplinkChainAssignment{M: m}.NumClients()
		cs := RandomChannelSet(rng, clients, 3, m, testSNR)
		plan, err := SolveUplinkChain(cs, rng)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if got, want := plan.NumPackets(), MaxUplinkPackets(m); got != want {
			t.Fatalf("M=%d: %d packets want %d (Lemma 5.2)", m, got, want)
		}
		if r := plan.AlignmentResidual(cs); r > 1e-5 {
			t.Fatalf("M=%d: alignment residual %v", m, r)
		}
		ev, err := plan.Evaluate(cs, cs, 1.0, testNoise/testSNR)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		for i, s := range ev.SINR {
			if s < 5 {
				t.Fatalf("M=%d packet %d: SINR %v too low", m, i, s)
			}
		}
	}
}

// TestSolveUplinkChainLemma52Conformance pins the constructive solver
// to Lemma 5.2: with the prescribed AP count (UplinkAPsNeeded) it
// delivers exactly MaxUplinkPackets(M) decodable packets for M = 2..4.
func TestSolveUplinkChainLemma52Conformance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for m := 2; m <= 4; m++ {
		clients := UplinkChainAssignment{M: m}.NumClients()
		cs := RandomChannelSet(rng, clients, UplinkAPsNeeded(m), m, testSNR)
		plan, err := SolveUplinkChain(cs, rng)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if got, want := plan.NumPackets(), MaxUplinkPackets(m); got != want {
			t.Fatalf("M=%d: %d packets, Lemma 5.2 promises %d", m, got, want)
		}
		ev, err := plan.Evaluate(cs, cs, 1.0, testNoise/testSNR)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		for i, s := range ev.SINR {
			if s < 5 {
				t.Fatalf("M=%d packet %d: SINR %v — packet not decodable", m, i, s)
			}
		}
	}
}

// TestSolveUplinkChainNAPs exercises the generalized chain: every AP
// count from 3 to beyond the usable maximum still delivers 2M packets,
// the schedule spreads over min(N, M+2) APs, and every packet decodes.
func TestSolveUplinkChainNAPs(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for m := 2; m <= 4; m++ {
		clients := UplinkChainAssignment{M: m}.NumClients()
		for n := 3; n <= UplinkChainMaxAPs(m)+1; n++ {
			cs := RandomChannelSet(rng, clients, n, m, testSNR)
			plan, err := SolveUplinkChain(cs, rng)
			if err != nil {
				t.Fatalf("M=%d N=%d: %v", m, n, err)
			}
			if err := plan.Validate(); err != nil {
				t.Fatalf("M=%d N=%d: %v", m, n, err)
			}
			if got, want := plan.NumPackets(), MaxUplinkPackets(m); got != want {
				t.Fatalf("M=%d N=%d: %d packets want %d", m, n, got, want)
			}
			wantSteps := n
			if max := UplinkChainMaxAPs(m); wantSteps > max {
				wantSteps = max
			}
			if len(plan.Schedule) != wantSteps {
				t.Fatalf("M=%d N=%d: %d decode steps want %d", m, n, len(plan.Schedule), wantSteps)
			}
			seenRx := map[int]bool{}
			for _, step := range plan.Schedule {
				if step.Rx < 0 || step.Rx >= n {
					t.Fatalf("M=%d N=%d: step at rx %d out of range", m, n, step.Rx)
				}
				if seenRx[step.Rx] {
					t.Fatalf("M=%d N=%d: rx %d decodes twice", m, n, step.Rx)
				}
				seenRx[step.Rx] = true
			}
			if r := plan.AlignmentResidual(cs); r > 1e-5 {
				t.Fatalf("M=%d N=%d: alignment residual %v", m, n, r)
			}
			ev, err := plan.Evaluate(cs, cs, 1.0, testNoise/testSNR)
			if err != nil {
				t.Fatalf("M=%d N=%d: %v", m, n, err)
			}
			for i, s := range ev.SINR {
				if s < 5 {
					t.Fatalf("M=%d N=%d packet %d: SINR %v too low", m, n, i, s)
				}
			}
		}
	}
}

// TestSolveUplinkChainTwoAPsMatchesSolveUplinkThree pins the two-AP
// degenerate path bit for bit: with identical channels and identical
// RNG state the chain solver and SolveUplinkThree return byte-identical
// plans.
func TestSolveUplinkChainTwoAPsMatchesSolveUplinkThree(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		chanRng := rand.New(rand.NewSource(100 + seed))
		cs := RandomChannelSet(chanRng, 2, 2, 2, testSNR)
		a, err := SolveUplinkChain(cs, rand.New(rand.NewSource(200+seed)))
		if err != nil {
			t.Fatalf("seed %d: chain: %v", seed, err)
		}
		b, err := SolveUplinkThree(cs, rand.New(rand.NewSource(200+seed)))
		if err != nil {
			t.Fatalf("seed %d: three: %v", seed, err)
		}
		if a.M != b.M || a.Wired != b.Wired {
			t.Fatalf("seed %d: header mismatch", seed)
		}
		if len(a.Owner) != len(b.Owner) {
			t.Fatalf("seed %d: %d vs %d packets", seed, len(a.Owner), len(b.Owner))
		}
		for i := range a.Owner {
			if a.Owner[i] != b.Owner[i] {
				t.Fatalf("seed %d: owner %d differs", seed, i)
			}
			for d := 0; d < a.M; d++ {
				if a.Encoding[i][d] != b.Encoding[i][d] {
					t.Fatalf("seed %d: encoding[%d][%d] %v vs %v (not bit-identical)",
						seed, i, d, a.Encoding[i][d], b.Encoding[i][d])
				}
			}
		}
		for i := range a.Schedule {
			if a.Schedule[i].Rx != b.Schedule[i].Rx {
				t.Fatalf("seed %d: schedule step %d rx differs", seed, i)
			}
		}
	}
}

// TestUplinkDoFHelpers pins the N-AP DoF table.
func TestUplinkDoFHelpers(t *testing.T) {
	if UplinkAPsNeeded(2) != 3 || UplinkAPsNeeded(5) != 3 {
		t.Fatal("Lemma 5.2 prescribes three APs")
	}
	if UplinkAPsNeeded(0) != 0 {
		t.Fatal("degenerate antenna count")
	}
	for m := 2; m <= 6; m++ {
		if got, want := UplinkChainMaxAPs(m), m+2; got != want {
			t.Fatalf("M=%d: chain max APs %d want %d", m, got, want)
		}
		// Packet count grows monotonically with APs, up to the ceiling.
		prev := 0
		for n := 1; n <= m+3; n++ {
			p := UplinkPacketsWithAPs(m, n)
			if p < prev {
				t.Fatalf("M=%d: packets dropped from %d to %d at N=%d", m, prev, p, n)
			}
			if p > MaxUplinkPackets(m) {
				t.Fatalf("M=%d N=%d: %d packets exceed the DoF ceiling", m, n, p)
			}
			prev = p
		}
		if UplinkPacketsWithAPs(m, 3) != MaxUplinkPackets(m) {
			t.Fatalf("M=%d: three APs must reach the Lemma 5.2 bound", m)
		}
	}
	if UplinkPacketsWithAPs(2, 2) != 3 {
		t.Fatal("two APs carry the three-packet construction")
	}
}

func TestSolveUplinkChainShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Wrong AP count.
	if _, err := SolveUplinkChain(RandomChannelSet(rng, 3, 2, 2, testSNR), rng); err == nil {
		t.Fatal("expected error for 2 APs")
	}
	// Wrong client count (M=2 needs 3 clients).
	if _, err := SolveUplinkChain(RandomChannelSet(rng, 2, 3, 2, testSNR), rng); err == nil {
		t.Fatal("expected error for 2 clients with M=2")
	}
}

func TestUplinkChainAssignment(t *testing.T) {
	for m := 2; m <= 6; m++ {
		a := UplinkChainAssignment{M: m}
		owners := a.Owners()
		if len(owners) != 2*m {
			t.Fatalf("M=%d: %d owners", m, len(owners))
		}
		// A-set owners pairwise distinct (alignment requirement).
		seen := map[int]bool{}
		for _, p := range a.ASet() {
			if seen[owners[p]] {
				t.Fatalf("M=%d: A-set owners not distinct", m)
			}
			seen[owners[p]] = true
		}
		if len(a.ASet()) != m || len(a.BSet()) != m-1 {
			t.Fatalf("M=%d: set sizes %d %d", m, len(a.ASet()), len(a.BSet()))
		}
		// Every packet is packet 0, in A, or in B — exactly once.
		all := map[int]int{0: 1}
		for _, p := range a.ASet() {
			all[p]++
		}
		for _, p := range a.BSet() {
			all[p]++
		}
		if len(all) != 2*m {
			t.Fatalf("M=%d: partition covers %d packets", m, len(all))
		}
		for p, n := range all {
			if n != 1 {
				t.Fatalf("M=%d: packet %d appears %d times", m, p, n)
			}
		}
		// No client owns more packets than it has antennas.
		counts := map[int]int{}
		for _, o := range owners {
			counts[o]++
		}
		for c, n := range counts {
			if n > m {
				t.Fatalf("M=%d: client %d owns %d packets", m, c, n)
			}
		}
	}
	if (UplinkChainAssignment{M: 2}).NumClients() != 3 {
		t.Fatal("M=2 needs 3 clients (Fig. 5)")
	}
	if (UplinkChainAssignment{M: 3}).NumClients() != 3 {
		t.Fatal("M=3 needs 3 clients (Fig. 8)")
	}
}

func TestSolveDownlinkTriangleAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		cs := RandomChannelSet(rng, 3, 3, 2, testSNR)
		plan, err := SolveDownlinkTriangle(cs)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		// Eqs. 5-7: at client k the two undesired packets are aligned.
		for client := 0; client < 3; client++ {
			var undesired []cmplxmat.Vector
			for pkt := 0; pkt < 3; pkt++ {
				if pkt == client {
					continue
				}
				undesired = append(undesired, cs[pkt][client].MulVec(plan.Encoding[pkt]))
			}
			if !parallel(undesired[0], undesired[1], 1e-6) {
				t.Fatalf("trial %d: undesired packets not aligned at client %d", trial, client)
			}
			// Desired packet along a different direction.
			des := cs[client][client].MulVec(plan.Encoding[client])
			if parallel(des, undesired[0], 1e-4) {
				t.Fatalf("trial %d: desired packet swallowed by interference at client %d", trial, client)
			}
		}
	}
}

func TestSolveDownlinkTriangleDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cs := RandomChannelSet(rng, 3, 3, 2, testSNR)
	plan, err := SolveDownlinkTriangle(cs)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := plan.Evaluate(cs, cs, 1.0, testNoise/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ev.SINR {
		if s < 10 {
			t.Fatalf("packet %d SINR %v", i, s)
		}
	}
}

func TestSolveDownlinkTwoClient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for m := 3; m <= 5; m++ {
		cs := RandomChannelSet(rng, m-1, 2, m, testSNR)
		plan, err := SolveDownlinkTwoClient(cs, rng)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if got, want := plan.NumPackets(), 2*m-2; got != want {
			t.Fatalf("M=%d: %d packets want %d", m, got, want)
		}
		// At each client all undesired packets share one direction.
		for client := 0; client < 2; client++ {
			var undesired []cmplxmat.Vector
			for pkt := range plan.Owner {
				if pkt%2 == client {
					continue
				}
				undesired = append(undesired, cs[plan.Owner[pkt]][client].MulVec(plan.Encoding[pkt]).Normalize())
			}
			for i := 1; i < len(undesired); i++ {
				if !parallel(undesired[0], undesired[i], 1e-6) {
					t.Fatalf("M=%d client %d: interference not aligned", m, client)
				}
			}
		}
		ev, err := plan.Evaluate(cs, cs, 1.0, testNoise/testSNR)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		for i, s := range ev.SINR {
			if s < 5 {
				t.Fatalf("M=%d packet %d: SINR %v", m, i, s)
			}
		}
	}
}

func TestSolveDownlinkDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// M=2 -> triangle, 3 packets.
	p2, err := SolveDownlink(RandomChannelSet(rng, 3, 3, 2, testSNR), rng)
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumPackets() != MaxDownlinkPackets(2) {
		t.Fatalf("M=2 packets %d want %d", p2.NumPackets(), MaxDownlinkPackets(2))
	}
	// M=4 -> two-client, 6 packets.
	p4, err := SolveDownlink(RandomChannelSet(rng, 3, 2, 4, testSNR), rng)
	if err != nil {
		t.Fatal(err)
	}
	if p4.NumPackets() != MaxDownlinkPackets(4) {
		t.Fatalf("M=4 packets %d want %d", p4.NumPackets(), MaxDownlinkPackets(4))
	}
	// M=2 via two-client must be rejected.
	if _, err := SolveDownlinkTwoClient(RandomChannelSet(rng, 1, 2, 2, testSNR), rng); err == nil {
		t.Fatal("expected M=2 rejection")
	}
}

func TestSolveDownlinkDiversityPicksBest(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var gains int
	const trials = 30
	ws := cmplxmat.NewWorkspace()
	for trial := 0; trial < trials; trial++ {
		ws.Reset()
		cs := RandomChannelSet(rng, 2, 1, 2, testSNR)
		plan, err := SolveDownlinkDiversityWS(ws, cs, rng, 1.0, testNoise/testSNR)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		ev, err := plan.Evaluate(cs, cs, 1.0, testNoise/testSNR)
		if err != nil {
			t.Fatal(err)
		}
		// Compare against always using AP 0 (a single-AP baseline).
		base := &Plan{
			M:        2,
			Owner:    []int{0, 0},
			Encoding: plan.Encoding[:2],
			Schedule: []DecodeStep{{Rx: 0, Packets: []int{0, 1}}},
		}
		ws := cmplxmat.NewWorkspace()
		_, _, v := cs[0][0].SVDWS(ws)
		base.Encoding = []cmplxmat.Vector{v.ColWS(ws, 0), v.ColWS(ws, 1)}
		bev, err := base.Evaluate(cs, cs, 1.0, testNoise/testSNR)
		if err != nil {
			t.Fatal(err)
		}
		if ev.SumRate >= bev.SumRate-1e-9 {
			gains++
		}
	}
	// Selection over a superset of options can never lose (up to random
	// encoding noise for the mixed option); expect a win in nearly all.
	if gains < trials*9/10 {
		t.Fatalf("diversity selection beat single AP only %d/%d times", gains, trials)
	}
}

func TestEvaluateWithEstimationError(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	perfect, err := plan.Evaluate(cs, cs, 1.0, testNoise/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the channel estimates.
	est := NewChannelSet(2, 2)
	for tx := 0; tx < 2; tx++ {
		for rx := 0; rx < 2; rx++ {
			noise := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(0.05*cs[tx][rx].FrobeniusNorm()/2, 0))
			est[tx][rx] = cs[tx][rx].Add(noise)
		}
	}
	noisy, err := plan.Evaluate(cs, est, 1.0, testNoise/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.SumRate >= perfect.SumRate {
		t.Fatalf("estimation error should cost rate: %v >= %v", noisy.SumRate, perfect.SumRate)
	}
	if noisy.SumRate <= 0 {
		t.Fatal("moderate estimation error should not kill the link")
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicate decode.
	bad := *plan
	bad.Schedule = []DecodeStep{{Rx: 0, Packets: []int{0, 0}}, {Rx: 1, Packets: []int{1, 2}}}
	if bad.Validate() == nil {
		t.Fatal("duplicate decode not caught")
	}
	// Missing packet.
	bad.Schedule = []DecodeStep{{Rx: 0, Packets: []int{0}}}
	if bad.Validate() == nil {
		t.Fatal("missing packet not caught")
	}
	// Out of range.
	bad.Schedule = []DecodeStep{{Rx: 0, Packets: []int{7}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-range packet not caught")
	}
	// Non-unit encoding.
	bad = *plan
	bad.Encoding = append([]cmplxmat.Vector(nil), plan.Encoding...)
	bad.Encoding[0] = plan.Encoding[0].Scale(2)
	if bad.Validate() == nil {
		t.Fatal("non-unit encoding not caught")
	}
	// Wrong dimension.
	bad.Encoding[0] = cmplxmat.Vector{1}
	if bad.Validate() == nil {
		t.Fatal("wrong dimension not caught")
	}
	// Encoding/owner count mismatch.
	bad.Encoding = plan.Encoding[:2]
	if bad.Validate() == nil {
		t.Fatal("count mismatch not caught")
	}
}

func TestPacketPowers(t *testing.T) {
	plan := &Plan{M: 2, Owner: []int{0, 0, 1}}
	p := plan.PacketPowers(1.0)
	if p[0] != 0.5 || p[1] != 0.5 || p[2] != 1.0 {
		t.Fatalf("powers %v", p)
	}
}

func TestDoFTable(t *testing.T) {
	cases := []struct {
		m, up, down int
	}{
		{1, 2, 1}, {2, 4, 3}, {3, 6, 4}, {4, 8, 6}, {5, 10, 8}, {6, 12, 10},
	}
	for _, c := range cases {
		if got := MaxUplinkPackets(c.m); got != c.up {
			t.Fatalf("M=%d uplink %d want %d", c.m, got, c.up)
		}
		if got := MaxDownlinkPackets(c.m); got != c.down {
			t.Fatalf("M=%d downlink %d want %d", c.m, got, c.down)
		}
	}
	if MaxUplinkPackets(0) != 0 || MaxDownlinkPackets(0) != 0 {
		t.Fatal("degenerate M")
	}
	if DownlinkAPsNeeded(2) != 3 || DownlinkAPsNeeded(4) != 3 {
		t.Fatalf("AP counts %d %d", DownlinkAPsNeeded(2), DownlinkAPsNeeded(4))
	}
	// Uplink multiplexing gain is exactly 2 (paper: "doubles the
	// throughput of the uplink").
	if g := MultiplexingGain(3, true); g != 2 {
		t.Fatalf("uplink gain %v", g)
	}
	// Downlink approaches 2 for large M.
	if g := MultiplexingGain(10, false); g != 1.8 {
		t.Fatalf("downlink gain %v", g)
	}
	if MultiplexingGain(0, true) != 0 {
		t.Fatal("degenerate gain")
	}
}

func TestAlignmentConstraintBudget(t *testing.T) {
	// A 2-antenna encoding vector can satisfy one alignment, not two.
	if _, _, ok := AlignmentConstraintBudget(2, 1); !ok {
		t.Fatal("one alignment must be feasible at M=2")
	}
	if _, _, ok := AlignmentConstraintBudget(2, 2); ok {
		t.Fatal("two alignments must be infeasible at M=2")
	}
	if _, _, ok := AlignmentConstraintBudget(4, 3); !ok {
		t.Fatal("three alignments must be feasible at M=4")
	}
}

func TestAlignmentResidualDetectsMisalignment(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the aligned vector with a random one: residual jumps.
	plan.Encoding[2] = randUnit(rng, 2)
	if r := plan.AlignmentResidual(cs); r < 0.05 {
		t.Fatalf("misalignment not detected: residual %v", r)
	}
}

func TestEvaluateWithoutAlignmentIsInterferenceLimited(t *testing.T) {
	// Three packets, two antennas, random (non-aligned) encodings: the
	// first AP faces two interferers spanning its whole signal space
	// (Fig. 4a). The ZF receiver can only null one direction, so packet 0
	// stays interference limited — its SINR must sit orders of magnitude
	// below the aligned plan's.
	rng := rand.New(rand.NewSource(16))
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	aligned, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	misaligned := &Plan{
		M:     2,
		Owner: []int{0, 0, 1},
		Encoding: []cmplxmat.Vector{
			aligned.Encoding[0], aligned.Encoding[1], randUnit(rng, 2),
		},
		Schedule: aligned.Schedule,
		Wired:    true,
	}
	evA, err := aligned.Evaluate(cs, cs, 1.0, testNoise/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	evM, err := misaligned.Evaluate(cs, cs, 1.0, testNoise/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	if evM.SINR[0] > evA.SINR[0]/10 {
		t.Fatalf("misaligned packet 0 SINR %v vs aligned %v: interference not visible", evM.SINR[0], evA.SINR[0])
	}
}

func TestFrequencyOffsetScalingPreservesPlan(t *testing.T) {
	// Section 6(a): multiplying a client's channels by a unit-magnitude
	// scalar (the CFO rotation at some instant) must leave alignment and
	// decodability intact.
	rng := rand.New(rand.NewSource(17))
	cs := RandomChannelSet(rng, 2, 2, 2, testSNR)
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	rot := NewChannelSet(2, 2)
	phases := []complex128{complex(0.36, 0.93), complex(-0.8, 0.6)} // unit magnitude
	for tx := 0; tx < 2; tx++ {
		for rx := 0; rx < 2; rx++ {
			rot[tx][rx] = cs[tx][rx].Scale(phases[tx])
		}
	}
	if r := plan.AlignmentResidual(rot); r > 1e-7 {
		t.Fatalf("CFO rotation broke alignment: %v", r)
	}
	ev, err := plan.Evaluate(rot, rot, 1.0, testNoise/testSNR)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ev.SINR {
		if s < 10 {
			t.Fatalf("packet %d SINR %v under rotation", i, s)
		}
	}
}
