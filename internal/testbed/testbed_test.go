package testbed

import (
	"math/rand"
	"testing"

	"iaclan/internal/channel"
)

func scenario(t *testing.T, seed int64, clients, aps int) Scenario {
	t.Helper()
	w := channel.DefaultTestbed(seed)
	return PickScenario(w, clients, aps)
}

func TestPickScenarioDisjoint(t *testing.T) {
	s := scenario(t, 1, 3, 3)
	seen := map[int]bool{}
	for _, n := range append(append([]*channel.Node{}, s.Clients...), s.APs...) {
		if seen[n.ID] {
			t.Fatal("client/AP overlap")
		}
		seen[n.ID] = true
	}
}

func TestChannelSetsShape(t *testing.T) {
	s := scenario(t, 2, 2, 3)
	up := s.UplinkChannels()
	if up.NumTx() != 2 || up.NumRx() != 3 {
		t.Fatalf("uplink shape %dx%d", up.NumTx(), up.NumRx())
	}
	down := s.DownlinkChannels()
	if down.NumTx() != 3 || down.NumRx() != 2 {
		t.Fatalf("downlink shape %dx%d", down.NumTx(), down.NumRx())
	}
	// Uplink and downlink are NOT transposes with hardware chains, but
	// share magnitude scale.
	if up[0][0].FrobeniusNorm() == 0 || down[0][0].FrobeniusNorm() == 0 {
		t.Fatal("degenerate channels")
	}
}

func TestEstimateAddsBoundedNoise(t *testing.T) {
	s := scenario(t, 3, 2, 2)
	cs := s.UplinkChannels()
	rng := rand.New(rand.NewSource(1))
	est := Estimate(cs, rng)
	for i := range cs {
		for j := range cs[i] {
			d := cs[i][j].Sub(est[i][j]).FrobeniusNorm()
			if d == 0 {
				t.Fatal("estimate identical to truth")
			}
			if d > cs[i][j].FrobeniusNorm() {
				t.Fatal("estimation noise dominates the channel")
			}
		}
	}
}

func TestPermute(t *testing.T) {
	s := scenario(t, 4, 3, 2)
	cs := s.UplinkChannels()
	p := Permute(cs, []int{2, 0, 1})
	if p[0][0].Sub(cs[2][0]).MaxAbs() > 0 || p[1][1].Sub(cs[0][1]).MaxAbs() > 0 {
		t.Fatal("permute wrong")
	}
}

func TestBaselineRatesPositive(t *testing.T) {
	s := scenario(t, 5, 2, 2)
	for i := range s.Clients {
		if BaselineUplinkRate(s, i) <= 0 {
			t.Fatalf("client %d uplink baseline", i)
		}
		if BaselineDownlinkRate(s, i) <= 0 {
			t.Fatalf("client %d downlink baseline", i)
		}
	}
	if BaselineTDMARate(s, true) <= 0 || BaselineTDMARate(s, false) <= 0 {
		t.Fatal("TDMA baselines")
	}
	if BaselineTDMARate(Scenario{}, true) != 0 {
		t.Fatal("empty scenario baseline")
	}
}

func TestRunUplinkSlotThreePackets(t *testing.T) {
	s := scenario(t, 6, 2, 2)
	rng := rand.New(rand.NewSource(2))
	out, err := RunUplinkSlot(s, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.NumPackets() != 3 {
		t.Fatalf("packets %d", out.Plan.NumPackets())
	}
	if out.SumRate <= 0 {
		t.Fatal("sum rate")
	}
	// Role 0 owns two packets; both clients have rate attribution.
	if len(out.PerClient) != 2 {
		t.Fatalf("per-client attribution %v", out.PerClient)
	}
	var total float64
	for _, r := range out.PerClient {
		total += r
	}
	if diff := total - out.SumRate; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("attribution %v != sum %v", total, out.SumRate)
	}
	// Role out of range.
	if _, err := RunUplinkSlot(s, 5, rng); err == nil {
		t.Fatal("bad role accepted")
	}
}

func TestRunUplinkSlotFourPackets(t *testing.T) {
	s := scenario(t, 7, 3, 3)
	rng := rand.New(rand.NewSource(3))
	out, err := RunUplinkSlot(s, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.NumPackets() != 4 {
		t.Fatalf("packets %d", out.Plan.NumPackets())
	}
	// The two-packet role belongs to scenario client 1.
	if out.PerClient[1] <= 0 {
		t.Fatalf("role client rate %v", out.PerClient)
	}
}

// TestRunUplinkSlotNAPChain drives the generalized chain through the
// slot runner: with more than three APs the plan still carries 2M
// packets, and the decode schedule spreads over min(N, M+2) APs.
func TestRunUplinkSlotNAPChain(t *testing.T) {
	for _, na := range []int{4, 5} {
		s := scenario(t, 11+int64(na), 3, na)
		rng := rand.New(rand.NewSource(6 + int64(na)))
		out, err := RunUplinkSlot(s, 0, rng)
		if err != nil {
			t.Fatalf("%d APs: %v", na, err)
		}
		if out.Plan.NumPackets() != 4 { // M=2 testbed: 2M = 4
			t.Fatalf("%d APs: packets %d want 4", na, out.Plan.NumPackets())
		}
		wantSteps := na
		if wantSteps > 4 { // M+2 for the 2-antenna testbed
			wantSteps = 4
		}
		if len(out.Plan.Schedule) != wantSteps {
			t.Fatalf("%d APs: %d decode steps want %d", na, len(out.Plan.Schedule), wantSteps)
		}
		if out.SumRate <= 0 {
			t.Fatalf("%d APs: sum rate %v", na, out.SumRate)
		}
		if len(out.PerClient) != 3 {
			t.Fatalf("%d APs: attribution %v", na, out.PerClient)
		}
	}
}

func TestRunUplinkSlotUnsupportedShape(t *testing.T) {
	s := scenario(t, 8, 4, 2)
	rng := rand.New(rand.NewSource(4))
	if _, err := RunUplinkSlot(s, 0, rng); err == nil {
		t.Fatal("unsupported shape accepted")
	}
}

func TestRunDownlinkSlotTriangle(t *testing.T) {
	s := scenario(t, 9, 3, 3)
	rng := rand.New(rand.NewSource(5))
	out, err := RunDownlinkSlot(s, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.NumPackets() != 3 {
		t.Fatalf("packets %d", out.Plan.NumPackets())
	}
	if len(out.PerClient) != 3 {
		t.Fatalf("attribution %v", out.PerClient)
	}
}

func TestRunDownlinkSlotDiversity(t *testing.T) {
	s := scenario(t, 10, 1, 2)
	rng := rand.New(rand.NewSource(6))
	out, err := RunDownlinkSlot(s, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Plan.NumPackets() != 2 {
		t.Fatalf("packets %d", out.Plan.NumPackets())
	}
	if out.PerClient[0] != out.SumRate {
		t.Fatal("single client should own all rate")
	}
}

func TestAverageUplinkIAC(t *testing.T) {
	s := scenario(t, 11, 2, 2)
	rng := rand.New(rand.NewSource(7))
	avg, err := AverageUplinkIAC(s, rng)
	if err != nil {
		t.Fatal(err)
	}
	if avg <= 0 {
		t.Fatal("average rate")
	}
}

func TestIACGainOverBaselineOnAverage(t *testing.T) {
	// The core claim: across random scenarios, IAC's uplink rate beats
	// the TDMA 802.11-MIMO baseline on average (paper: 1.5x for 2x2).
	w := channel.DefaultTestbed(12)
	rng := rand.New(rand.NewSource(8))
	var iacSum, baseSum float64
	n := 0
	for trial := 0; trial < 15; trial++ {
		s := PickScenario(w, 2, 2)
		iacRate, err := AverageUplinkIAC(s, rng)
		if err != nil {
			continue
		}
		iacSum += iacRate
		baseSum += BaselineTDMARate(s, true)
		n++
	}
	if n < 10 {
		t.Fatalf("too many failed trials: %d ok", n)
	}
	gain := iacSum / baseSum
	if gain < 1.1 {
		t.Fatalf("IAC gain %v, expected comfortably above 1", gain)
	}
}
