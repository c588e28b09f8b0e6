package mac

// Edge cases at the seam between ChargeSlots (pure-overhead airtime:
// re-training rounds) and the Tracer's latency accounting: charges
// landing exactly on cycle boundaries must shift born stamps and
// latencies coherently, and a retry must keep its original born slot
// across a mid-flight retrain charge so the charged airtime counts
// toward its delivered latency.

import "testing"

// okRunner delivers every group member at rate 1.
func okRunner(group []ClientID) SlotResult {
	res := SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
	for i := range res.Rate {
		res.Rate[i] = 1.0
	}
	return res
}

func TestChargeSlotsAtCycleBoundaryCountsTowardLatency(t *testing.T) {
	sim := countBeacons(NewSimulator(Config{GroupSize: 1, CPSlots: 1}, FIFOPicker{}, constRate, okRunner))
	tr := &recordingTracer{}
	sim.SetTracer(tr)

	// Packet arrives at airtime 0; a 4-slot training round is charged at
	// the cycle boundary before its CFP runs.
	sim.EnqueueBorn(3, 0)
	sim.ChargeSlots(4)
	sim.RunCFP()
	if len(tr.events) != 1 {
		t.Fatalf("events %+v", tr.events)
	}
	ev := tr.events[0]
	if ev.born != 0 {
		t.Fatalf("born %d, want 0", ev.born)
	}
	// Served in the first CFP slot after the charge: airtime 4 + 1.
	if got := ev.now - ev.born; got != 5 {
		t.Fatalf("latency %d slots, want 5 (4 charged + 1 service)", got)
	}
	if sim.Beacons() != 1 {
		t.Fatalf("beacons %d; charges must not mint beacons", sim.Beacons())
	}

	// A packet enqueued with Enqueue (not EnqueueBorn) after a charge is
	// born at the post-charge clock: training airtime that elapsed before
	// arrival never counts toward its latency.
	sim.ChargeSlots(10)
	sim.Enqueue(3)
	sim.RunCFP()
	ev = tr.events[len(tr.events)-1]
	if ev.born != 16 { // 4 charged + 1 CFP + 1 CP + 10 charged
		t.Fatalf("born %d, want 16", ev.born)
	}
	if got := ev.now - ev.born; got != 1 {
		t.Fatalf("latency %d slots, want 1 (service slot only)", got)
	}
}

func TestRetryKeepsBornAcrossRetrainCharge(t *testing.T) {
	loseFirst := 1
	runner := func(group []ClientID) SlotResult {
		res := SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
		for i := range group {
			if loseFirst > 0 {
				loseFirst--
				res.Lost[i] = true
				continue
			}
			res.Rate[i] = 2.0
		}
		return res
	}
	sim := NewSimulator(Config{GroupSize: 1, CPSlots: 2, MaxRetries: 1}, FIFOPicker{}, constRate, runner)
	tr := &recordingTracer{}
	sim.SetTracer(tr)

	sim.EnqueueBorn(7, 0)
	sim.RunCFP() // slot 1: lost, requeued with born 0
	if len(tr.events) != 0 {
		t.Fatalf("loss with retries left must not trace: %+v", tr.events)
	}
	// Re-training round between the loss and the retry.
	sim.ChargeSlots(6)
	sim.RunCFP() // retry delivered
	if len(tr.events) != 1 {
		t.Fatalf("events %+v", tr.events)
	}
	ev := tr.events[0]
	if ev.dropped || ev.client != 7 {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.born != 0 {
		t.Fatalf("retry lost its born slot across the charge: born %d", ev.born)
	}
	// 1 CFP slot + 2 CP + 6 charged + 1 retry slot.
	if got := ev.now - ev.born; got != 10 {
		t.Fatalf("latency %d slots, want 10 (charged retrain counts)", got)
	}
}

// TestTransportRetransmitKeepsBornAcrossRetrainCharge covers the
// transport layer's retry path: with the MAC's own retry budget
// exhausted (MaxRetries 0) the loss surfaces as PacketDropped, and the
// transport re-injects the packet later — after its RTO, here with a
// re-training round charged in between — via EnqueueBorn with the
// original born slot. The delivered latency must span the first
// attempt, the backoff wait, and the charged retrain airtime.
func TestTransportRetransmitKeepsBornAcrossRetrainCharge(t *testing.T) {
	loseFirst := 1
	runner := func(group []ClientID) SlotResult {
		res := SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
		for i := range group {
			if loseFirst > 0 {
				loseFirst--
				res.Lost[i] = true
				continue
			}
			res.Rate[i] = 2.0
		}
		return res
	}
	sim := NewSimulator(Config{GroupSize: 1, CPSlots: 2, MaxRetries: 0}, FIFOPicker{}, constRate, runner)
	tr := &recordingTracer{}
	sim.SetTracer(tr)

	sim.EnqueueBorn(9, 0)
	sim.RunCFP() // slot 1: lost; MaxRetries 0 makes it a final MAC drop
	if len(tr.events) != 1 || !tr.events[0].dropped {
		t.Fatalf("want one drop event, got %+v", tr.events)
	}
	if tr.events[0].born != 0 || tr.events[0].now != 1 {
		t.Fatalf("drop event %+v, want born 0 now 1", tr.events[0])
	}

	// The transport's RTO elapses while a re-training round is charged;
	// the retransmit re-enters the MAC deque with its original born.
	sim.ChargeSlots(6)
	sim.EnqueueBorn(9, 0)
	sim.RunCFP()
	if len(tr.events) != 2 {
		t.Fatalf("events %+v", tr.events)
	}
	ev := tr.events[1]
	if ev.dropped || ev.client != 9 {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.born != 0 {
		t.Fatalf("retransmit lost its born slot across the charge: born %d", ev.born)
	}
	// 1 CFP slot + 2 CP + 6 charged retrain + 1 retry service slot.
	if got := ev.now - ev.born; got != 10 {
		t.Fatalf("latency %d slots, want 10 (charged retrain counts)", got)
	}
}

func TestChargeSlotsZeroIsNoOp(t *testing.T) {
	sim := NewSimulator(Config{GroupSize: 1, CPSlots: 1}, FIFOPicker{}, constRate, okRunner)
	sim.ChargeSlots(0)
	if sim.Slots() != 0 {
		t.Fatalf("slots %d after zero charge", sim.Slots())
	}
	// Zero is the no-dynamics default; it must stay legal between any
	// two cycles.
	sim.Enqueue(1)
	sim.RunCFP()
	sim.ChargeSlots(0)
	if sim.Slots() != 2 {
		t.Fatalf("slots %d, want 2", sim.Slots())
	}
}
