package core

import (
	"math/rand"
	"reflect"
	"testing"

	"iaclan/internal/cmplxmat"
)

// TestEvaluateOptsDefaultsMatchEvaluate pins the heap convenience:
// EvaluateWS with only power and noise set is the same computation as
// Evaluate, bit for bit.
func TestEvaluateOptsDefaultsMatchEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cs := RandomChannelSet(rng, 2, 2, 2, 100)
	est := RandomChannelSet(rng, 2, 2, 2, 100) // any estimate set works
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := plan.Evaluate(cs, est, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ws := cmplxmat.NewWorkspace()
	opts, err := plan.EvaluateWS(ws, cs, est, EvalOptions{NodePower: 1.0, Noise: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(legacy.SINR, opts.SINR) || !reflect.DeepEqual(legacy.PacketRate, opts.PacketRate) || legacy.SumRate != opts.SumRate {
		t.Fatal("default EvalOptions diverged from the legacy Evaluate")
	}
}

// TestResidualCancelOnlyHurtsCancelledPackets checks the model's shape
// on an uplink chain: the first decoded packets see no residual (nothing
// cancelled yet, identical SINR bitwise), while at least one later
// packet pays.
func TestResidualCancelOnlyHurtsCancelledPackets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cs := RandomChannelSet(rng, 2, 2, 2, 100)
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := plan.Evaluate(cs, cs, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ws := cmplxmat.NewWorkspace()
	resid, err := plan.EvaluateWS(ws, cs, cs, EvalOptions{NodePower: 1.0, Noise: 1.0, ResidualCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	// Step 1's packets decode before anything is cancelled: untouched.
	first := plan.Schedule[0]
	for _, pkt := range first.Packets {
		if resid.SINR[pkt] != exact.SINR[pkt] {
			t.Fatalf("packet %d decoded before any cancellation changed SINR: %v != %v",
				pkt, resid.SINR[pkt], exact.SINR[pkt])
		}
	}
	// Later steps cancel and must pay: the total never improves, and
	// with perfect channel knowledge (est == true) the only degradation
	// source is the residual model, so somebody must pay strictly.
	if resid.SumRate >= exact.SumRate {
		t.Fatalf("residual model did not cost the chain: %v >= %v", resid.SumRate, exact.SumRate)
	}
	for pkt := range plan.Owner {
		if resid.SINR[pkt] > exact.SINR[pkt] {
			t.Fatalf("packet %d improved under residual cancellation", pkt)
		}
	}
}

// TestResidualCancelNoOpWithoutWire: downlink plans never cancel, so
// the flag must be a bitwise no-op there.
func TestResidualCancelNoOpWithoutWire(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cs := RandomChannelSet(rng, 3, 3, 2, 100)
	plan, err := SolveDownlinkTriangle(cs)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := plan.Evaluate(cs, cs, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ws := cmplxmat.NewWorkspace()
	resid, err := plan.EvaluateWS(ws, cs, cs, EvalOptions{NodePower: 1.0, Noise: 1.0, ResidualCancel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact.SINR, resid.SINR) {
		t.Fatal("residual flag touched an unwired plan")
	}
}

// TestUndecodedPacketIsNotCancelled: when the Decodes hook fails a
// packet, wired plans must keep it as full-power interference in later
// steps — a receiver cannot re-modulate and subtract bits it never got.
func TestUndecodedPacketIsNotCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cs := RandomChannelSet(rng, 2, 2, 2, 100)
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	first := plan.Schedule[0].Packets
	inFirst := map[int]bool{}
	for _, pkt := range first {
		inFirst[pkt] = true
	}
	ws := cmplxmat.NewWorkspace()
	all, err := plan.EvaluateWS(ws, cs, cs, EvalOptions{NodePower: 1.0, Noise: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	ws2 := cmplxmat.NewWorkspace()
	failed, err := plan.EvaluateWS(ws2, cs, cs, EvalOptions{
		NodePower: 1.0, Noise: 1.0,
		Decodes: func(pkt int, _ float64) bool { return !inFirst[pkt] },
	})
	if err != nil {
		t.Fatal(err)
	}
	// First-step packets are measured before any cancellation: equal.
	for _, pkt := range first {
		if failed.SINR[pkt] != all.SINR[pkt] {
			t.Fatalf("first-step packet %d SINR moved: %v != %v", pkt, failed.SINR[pkt], all.SINR[pkt])
		}
	}
	// Someone downstream must pay full-power interference for the
	// uncancelled packets, and nobody may improve.
	worse := false
	for pkt := range plan.Owner {
		if inFirst[pkt] {
			continue
		}
		if failed.SINR[pkt] > all.SINR[pkt] {
			t.Fatalf("packet %d improved when cancellation was denied", pkt)
		}
		if failed.SINR[pkt] < all.SINR[pkt] {
			worse = true
		}
	}
	if !worse {
		t.Fatal("denying cancellation cost nothing; the chain is not using it")
	}
}

// TestEvalOptionsRateHook: a custom rate function replaces Shannon in
// PacketRate and SumRate but leaves SINRs alone.
func TestEvalOptionsRateHook(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cs := RandomChannelSet(rng, 2, 2, 2, 100)
	plan, err := SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	ws := cmplxmat.NewWorkspace()
	ev, err := plan.EvaluateWS(ws, cs, cs, EvalOptions{NodePower: 1.0, Noise: 1.0, Rate: func(float64) float64 { return 2 }})
	if err != nil {
		t.Fatal(err)
	}
	for pkt, r := range ev.PacketRate {
		if r != 2 {
			t.Fatalf("packet %d rate %v, want the hook's 2", pkt, r)
		}
		if ev.SINR[pkt] <= 0 {
			t.Fatalf("packet %d SINR %v", pkt, ev.SINR[pkt])
		}
	}
	if ev.SumRate != float64(2*plan.NumPackets()) {
		t.Fatalf("sum rate %v, want %v", ev.SumRate, 2*plan.NumPackets())
	}
}
