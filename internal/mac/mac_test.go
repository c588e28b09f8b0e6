package mac

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"iaclan/internal/cmplxmat"
)

func TestPollFrameRoundTrip(t *testing.T) {
	p := PollFrame{
		Type:   FrameDataPoll,
		Fid:    1234,
		NumAPs: 3,
		Entries: []VectorEntry{
			{Client: 7, Encoding: cmplxmat.Vector{1 + 2i, 3}, Decoding: cmplxmat.Vector{0, 1i}},
			{Client: 9, Encoding: cmplxmat.Vector{-1, 0.5i}, Decoding: cmplxmat.Vector{2, 2}},
		},
	}
	raw, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPollFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fid != p.Fid || got.NumAPs != p.NumAPs || len(got.Entries) != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i, e := range got.Entries {
		if e.Client != p.Entries[i].Client {
			t.Fatalf("entry %d client", i)
		}
		for d := range e.Encoding {
			if e.Encoding[d] != p.Entries[i].Encoding[d] || e.Decoding[d] != p.Entries[i].Decoding[d] {
				t.Fatalf("entry %d vectors", i)
			}
		}
	}
}

func TestPollFrameEmptyEntries(t *testing.T) {
	p := PollFrame{Type: FrameGrant, Fid: 1, NumAPs: 1}
	raw, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPollFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != FrameGrant || len(got.Entries) != 0 {
		t.Fatalf("%+v", got)
	}
}

func TestPollFrameChecksumDetectsCorruption(t *testing.T) {
	p := PollFrame{Type: FrameDataPoll, NumAPs: 1, Entries: []VectorEntry{
		{Client: 1, Encoding: cmplxmat.Vector{1, 0}, Decoding: cmplxmat.Vector{0, 1}},
	}}
	raw, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	raw[5] ^= 0xff
	if _, err := UnmarshalPollFrame(raw); err == nil {
		t.Fatal("corruption not detected")
	}
	if _, err := UnmarshalPollFrame(raw[:4]); err == nil {
		t.Fatal("truncation not detected")
	}
}

func TestPollFrameValidation(t *testing.T) {
	// Wrong type.
	if _, err := (PollFrame{Type: FrameBeacon}).Marshal(); err == nil {
		t.Fatal("beacon as poll frame not rejected")
	}
	// Inconsistent dims.
	p := PollFrame{Type: FrameDataPoll, NumAPs: 1, Entries: []VectorEntry{
		{Client: 1, Encoding: cmplxmat.Vector{1, 0}, Decoding: cmplxmat.Vector{0}},
	}}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("ragged vectors not rejected")
	}
	// Frames the decoder rejects must not be written: a zero AP count,
	// and a dimension past the one-byte field (256 used to wrap to 0).
	if _, err := (PollFrame{Type: FrameGrant, Fid: 1}).Marshal(); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("zero-AP frame: err %v, want ErrBadFrame", err)
	}
	for _, dim := range []int{255, 256, 300} {
		v := make(cmplxmat.Vector, dim)
		p := PollFrame{Type: FrameGrant, NumAPs: 2, Entries: []VectorEntry{{Client: 1, Encoding: v, Decoding: v}}}
		raw, err := p.Marshal()
		if dim > 255 {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("dim %d: err %v, want ErrBadFrame", dim, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if got, err := UnmarshalPollFrame(raw); err != nil || got.Entries[0].Encoding.Dim() != dim {
			t.Fatalf("dim %d did not round-trip: %v", dim, err)
		}
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	b := Beacon{CFPDurationSlots: 17, AckMap: []byte{0b10110001, 0x01}}
	raw, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBeacon(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.CFPDurationSlots != 17 || len(got.AckMap) != 2 || got.AckMap[0] != 0b10110001 {
		t.Fatalf("%+v", got)
	}
	// Empty ack map.
	rawEmpty, err := (Beacon{}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBeacon(rawEmpty); err != nil {
		t.Fatal(err)
	}
	// Corruption.
	raw[1] ^= 0x80
	if _, err := UnmarshalBeacon(raw); err == nil {
		t.Fatal("beacon corruption not detected")
	}
	if _, err := UnmarshalBeacon([]byte{1, 2}); err == nil {
		t.Fatal("short beacon not detected")
	}
	// An ack map beyond the 2-byte length field must error, not truncate.
	huge := Beacon{AckMap: make([]byte, math.MaxUint16+1)}
	if _, err := huge.Marshal(); err == nil {
		t.Fatal("oversized ack map not rejected")
	}
}

func TestQuickBeaconRoundTrip(t *testing.T) {
	f := func(dur uint16, ack []byte) bool {
		if len(ack) > 60000 {
			ack = ack[:60000]
		}
		raw, err := Beacon{CFPDurationSlots: dur, AckMap: ack}.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalBeacon(raw)
		if err != nil || got.CFPDurationSlots != dur || len(got.AckMap) != len(ack) {
			return false
		}
		for i := range ack {
			if got.AckMap[i] != ack[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAckBits(t *testing.T) {
	var m []byte
	m = SetAckBit(m, 0)
	m = SetAckBit(m, 9)
	if !AckBit(m, 0) || !AckBit(m, 9) {
		t.Fatal("set bits not readable")
	}
	if AckBit(m, 1) || AckBit(m, 100) || AckBit(m, -1) {
		t.Fatal("unset bits read as set")
	}
	if len(m) != 2 {
		t.Fatalf("map length %d", len(m))
	}
}

func TestMetadataOverheadMatchesPaper(t *testing.T) {
	// Section 7.1(e): with 1440-byte packets the metadata overhead is
	// small, a few percent. Our vectors are uncompressed complex128
	// pairs, so allow up to 5%; the shape claim is that overhead is far
	// below IAC's 1.5-2x rate gain.
	oh := MetadataOverhead(3, 2, 1440)
	if oh <= 0 || oh > 0.06 {
		t.Fatalf("metadata overhead %v out of expected range", oh)
	}
	// Per-pair metadata dominates, so the fraction is nearly flat in the
	// group size (the fixed header even amortizes slightly).
	oh6 := MetadataOverhead(6, 2, 1440)
	if oh6 <= 0 || oh6 > 0.06 {
		t.Fatalf("overhead at 6 pairs %v", oh6)
	}
	if MetadataOverhead(3, 2, 100) < oh {
		t.Fatal("smaller payloads should raise relative overhead")
	}
}

func constRate(group []ClientID) float64 { return float64(len(group)) }

func TestFIFOPicker(t *testing.T) {
	p := FIFOPicker{}
	q := []ClientID{3, 1, 3, 2, 4}
	g := p.PickGroup(q, 3, constRate)
	want := []ClientID{3, 1, 2}
	if len(g) != 3 {
		t.Fatalf("group %v", g)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("group %v want %v", g, want)
		}
	}
	if g := p.PickGroup(nil, 3, constRate); g != nil {
		t.Fatalf("empty queue gave %v", g)
	}
	// Fewer distinct clients than size.
	if g := p.PickGroup([]ClientID{5, 5}, 3, constRate); len(g) != 1 || g[0] != 5 {
		t.Fatalf("dup queue gave %v", g)
	}
}

func TestBruteForcePickerMaximizes(t *testing.T) {
	// Rate function rewards including client 9.
	est := func(group []ClientID) float64 {
		r := 0.0
		for _, c := range group {
			if c == 9 {
				r += 100
			}
			r++
		}
		return r
	}
	p := BruteForcePicker{}
	q := []ClientID{1, 2, 3, 4, 9, 5}
	g := p.PickGroup(q, 3, est)
	if g[0] != 1 {
		t.Fatalf("head not pinned: %v", g)
	}
	found := false
	for _, c := range g {
		if c == 9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("brute force missed the best client: %v", g)
	}
	// Size 1: just the head.
	if g := p.PickGroup(q, 1, est); len(g) != 1 || g[0] != 1 {
		t.Fatalf("size-1 group %v", g)
	}
	if g := p.PickGroup(nil, 2, est); g != nil {
		t.Fatal("empty queue")
	}
}

func TestBruteForceEnumeratesAllPairs(t *testing.T) {
	// With head pinned and 4 others, there are C(4,2)=6 groups; craft an
	// estimator where only one specific pair wins.
	est := func(group []ClientID) float64 {
		has := map[ClientID]bool{}
		for _, c := range group {
			has[c] = true
		}
		if has[4] && has[5] {
			return 10
		}
		return 1
	}
	g := BruteForcePicker{}.PickGroup([]ClientID{0, 2, 3, 4, 5}, 3, est)
	if !(g[0] == 0 && ((g[1] == 4 && g[2] == 5) || (g[1] == 5 && g[2] == 4))) {
		t.Fatalf("missed winning pair: %v", g)
	}
}

func TestBestOfTwoPickerBasics(t *testing.T) {
	p := NewBestOfTwoPicker(1, 8)
	if p.Name() != "best-of-two" {
		t.Fatal("name")
	}
	q := []ClientID{1, 2, 3, 4, 5}
	g := p.PickGroup(q, 3, constRate)
	if len(g) != 3 || g[0] != 1 {
		t.Fatalf("group %v", g)
	}
	// Members distinct.
	seen := map[ClientID]bool{}
	for _, c := range g {
		if seen[c] {
			t.Fatalf("duplicate member: %v", g)
		}
		seen[c] = true
	}
	if g := p.PickGroup(nil, 3, constRate); g != nil {
		t.Fatal("empty queue")
	}
	if g := p.PickGroup([]ClientID{7}, 3, constRate); len(g) != 1 || g[0] != 7 {
		t.Fatalf("singleton queue: %v", g)
	}
}

func TestBestOfTwoCreditForcesStarvedClient(t *testing.T) {
	// Client 99 has terrible rate and would never be picked on merit.
	est := func(group []ClientID) float64 {
		r := 0.0
		for _, c := range group {
			if c == 99 {
				r -= 100
			}
			r++
		}
		return r
	}
	p := NewBestOfTwoPicker(2, 5)
	q := []ClientID{1, 2, 3, 99, 4, 5, 6}
	forcedSeen := false
	for round := 0; round < 200 && !forcedSeen; round++ {
		g := p.PickGroup(q, 3, est)
		for _, c := range g {
			if c == 99 {
				forcedSeen = true
			}
		}
	}
	if !forcedSeen {
		t.Fatal("credit counter never forced the starved client in")
	}
}

func TestBestOfTwoCreditResetsOnPick(t *testing.T) {
	p := NewBestOfTwoPicker(3, 2)
	est := constRate
	q := []ClientID{1, 2, 3}
	for round := 0; round < 50; round++ {
		g := p.PickGroup(q, 2, est)
		for _, c := range g {
			if p.Credits(c) != 0 {
				t.Fatalf("picked client %d kept credit %d", c, p.Credits(c))
			}
		}
	}
}

func TestSimulatorDeliversAllTraffic(t *testing.T) {
	runner := func(group []ClientID) SlotResult {
		res := SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
		for i := range group {
			res.Rate[i] = 2.0
		}
		return res
	}
	sim := countBeacons(NewSimulator(Config{GroupSize: 3, CPSlots: 2, MaxRetries: 2}, FIFOPicker{}, constRate, runner))
	tr := newCountingTracer(6)
	sim.SetTracer(tr)
	for c := ClientID(0); c < 6; c++ {
		sim.Enqueue(c)
		sim.Enqueue(c)
	}
	if sim.QueueLen() != 12 {
		t.Fatalf("queue %d", sim.QueueLen())
	}
	// Each CFP serves each client once -> 2 CFPs drain the queue.
	sim.RunCFP()
	sim.RunCFP()
	if sim.QueueLen() != 0 {
		t.Fatalf("queue not drained: %d", sim.QueueLen())
	}
	if sim.Beacons() != 2 {
		t.Fatalf("beacons %d", sim.Beacons())
	}
	total := 0
	for c, n := range tr.delivered {
		total += n
		if tr.dropped[c] != 0 {
			t.Fatal("unexpected loss")
		}
		if mean := tr.rateSum[c] / float64(n); math.Abs(mean-2.0) > 1e-12 {
			t.Fatalf("mean rate %v", mean)
		}
	}
	if total != 12 {
		t.Fatalf("delivered %d", total)
	}
	// Slots: 6 clients / groups of 3 = 2 slots per CFP, + 2 CP slots.
	if sim.Slots() != 2*(2+2) {
		t.Fatalf("slots %d", sim.Slots())
	}
}

func TestSimulatorAckMapReflectsPreviousCFP(t *testing.T) {
	fail := true
	runner := func(group []ClientID) SlotResult {
		res := SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
		for i := range group {
			res.Lost[i] = fail
		}
		return res
	}
	sim := NewSimulator(Config{GroupSize: 2, MaxRetries: 0}, FIFOPicker{}, constRate, runner)
	sim.Enqueue(0)
	sim.Enqueue(1)
	// A beacon's ack map is valid until the next RunCFP: copy it to keep
	// it across cycles.
	runCFP := func() Beacon {
		b := sim.RunCFP()
		b.AckMap = slices.Clone(b.AckMap)
		return b
	}
	b1 := runCFP() // first beacon: no previous CFP, empty map
	fail = false
	sim.Enqueue(0)
	sim.Enqueue(1)
	b2 := runCFP() // acks for CFP 1 (all lost -> zero bits)
	sim.Enqueue(0)
	b3 := runCFP()
	b4 := runCFP() // acks for CFP 3 (client 0 delivered)
	if len(b1.AckMap) != 0 {
		t.Fatalf("first beacon ack map %v", b1.AckMap)
	}
	if AckBit(b2.AckMap, 0) || AckBit(b2.AckMap, 1) {
		t.Fatal("lost packets acked")
	}
	if !AckBit(b3.AckMap, 0) || !AckBit(b3.AckMap, 1) {
		t.Fatal("delivered packets not acked")
	}
	if !AckBit(b4.AckMap, 0) || AckBit(b4.AckMap, 1) || len(b4.AckMap) != 1 {
		t.Fatalf("ack map %v rebuilt in place should ack client 0 only", b4.AckMap)
	}
}

func TestSimulatorRetransmission(t *testing.T) {
	attempts, lost := 0, 0
	runner := func(group []ClientID) SlotResult {
		attempts++
		res := SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
		res.Lost[0] = attempts == 1 // first attempt fails
		res.Rate[0] = 1
		if res.Lost[0] {
			lost++
		}
		return res
	}
	sim := NewSimulator(Config{GroupSize: 1, MaxRetries: 3}, FIFOPicker{}, constRate, runner)
	tr := newCountingTracer(6)
	sim.SetTracer(tr)
	sim.Enqueue(5)
	sim.RunCFP() // loss, requeued
	if sim.QueueLen() != 1 {
		t.Fatalf("queue after loss: %d", sim.QueueLen())
	}
	sim.RunCFP() // success
	if sim.QueueLen() != 0 {
		t.Fatalf("queue after retry: %d", sim.QueueLen())
	}
	if tr.delivered[5] != 1 || lost != 1 {
		t.Fatalf("client 5: %d delivered, %d lost", tr.delivered[5], lost)
	}
}

func TestSimulatorRetriesBounded(t *testing.T) {
	lost := 0
	runner := func(group []ClientID) SlotResult {
		res := SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
		for i := range res.Lost {
			res.Lost[i] = true // never succeeds
			lost++
		}
		return res
	}
	sim := NewSimulator(Config{GroupSize: 1, MaxRetries: 2}, FIFOPicker{}, constRate, runner)
	sim.Enqueue(1)
	for i := 0; i < 10; i++ {
		sim.RunCFP()
	}
	if sim.QueueLen() != 0 {
		t.Fatal("retries not bounded")
	}
	if lost != 3 { // initial + 2 retries
		t.Fatalf("loss count %d", lost)
	}
}

func TestSimulatorValidation(t *testing.T) {
	runner := func(group []ClientID) SlotResult {
		return SlotResult{} // wrong result sizes
	}
	sim := NewSimulator(Config{GroupSize: 1}, FIFOPicker{}, constRate, runner)
	sim.Enqueue(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on bad SlotResult")
			}
		}()
		sim.RunCFP()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on bad config")
			}
		}()
		NewSimulator(Config{GroupSize: 0}, FIFOPicker{}, constRate, runner)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on nil runner")
			}
		}()
		NewSimulator(Config{GroupSize: 1}, FIFOPicker{}, constRate, nil)
	}()
}

func TestPickerNames(t *testing.T) {
	if (FIFOPicker{}).Name() != "fifo" || (BruteForcePicker{}).Name() != "brute-force" {
		t.Fatal("names")
	}
}

type traceEvent struct {
	client    ClientID
	born, now int
	rate      float64
	dropped   bool
}

type recordingTracer struct{ events []traceEvent }

// countingTracer tallies each client's delivered packets, their summed
// rates and its dropped packets, indexed by ClientID.
type countingTracer struct {
	delivered, dropped []int
	rateSum            []float64
}

func newCountingTracer(clients int) *countingTracer {
	return &countingTracer{make([]int, clients), make([]int, clients), make([]float64, clients)}
}

func (r *countingTracer) PacketDelivered(c ClientID, _, _ int, rate float64) {
	r.delivered[c]++
	r.rateSum[c] += rate
}

func (r *countingTracer) PacketDropped(c ClientID, _, _ int) { r.dropped[c]++ }

func (r *recordingTracer) PacketDelivered(c ClientID, born, now int, rate float64) {
	r.events = append(r.events, traceEvent{client: c, born: born, now: now, rate: rate})
}

func (r *recordingTracer) PacketDropped(c ClientID, born, now int) {
	r.events = append(r.events, traceEvent{client: c, born: born, now: now, dropped: true})
}

func TestTracerReportsLatencyAndRetries(t *testing.T) {
	failures := map[ClientID]int{1: 1} // client 1 loses its first attempt
	runner := func(group []ClientID) SlotResult {
		res := SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
		for i, c := range group {
			if failures[c] > 0 {
				failures[c]--
				res.Lost[i] = true
				continue
			}
			res.Rate[i] = 3.0
		}
		return res
	}
	sim := NewSimulator(Config{GroupSize: 1, CPSlots: 2, MaxRetries: 1}, FIFOPicker{}, constRate, runner)
	tr := &recordingTracer{}
	sim.SetTracer(tr)

	sim.EnqueueBorn(1, 0)
	sim.RunCFP() // slot 1: client 1 loses, requeues
	sim.RunCFP() // retry delivered
	if len(tr.events) != 1 {
		t.Fatalf("events %+v", tr.events)
	}
	ev := tr.events[0]
	if ev.dropped || ev.client != 1 || ev.rate != 3.0 {
		t.Fatalf("unexpected event %+v", ev)
	}
	if ev.born != 0 {
		t.Fatalf("retry lost the original born slot: %+v", ev)
	}
	// CFP 1 = 1 slot + 2 CP slots; the retry lands in CFP 2's first slot
	// at airtime 4, so the delivered latency includes the loss.
	if got := ev.now - ev.born; got != 4 {
		t.Fatalf("latency %d slots, want 4", got)
	}

	// A second loss exhausts MaxRetries and surfaces as a drop.
	failures[2] = 2
	sim.EnqueueBorn(2, sim.Slots())
	sim.RunCFP()
	sim.RunCFP()
	last := tr.events[len(tr.events)-1]
	if !last.dropped || last.client != 2 {
		t.Fatalf("expected drop for client 2, got %+v", last)
	}
	if last.now <= last.born {
		t.Fatalf("drop time %d not after born %d", last.now, last.born)
	}
}

func TestEnqueueBornStampsArrival(t *testing.T) {
	runner := func(group []ClientID) SlotResult {
		res := SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
		for i := range group {
			res.Rate[i] = 1.0
		}
		return res
	}
	sim := NewSimulator(Config{GroupSize: 1, CPSlots: 1}, FIFOPicker{}, constRate, runner)
	tr := &recordingTracer{}
	sim.SetTracer(tr)
	sim.RunCFP()          // idle cycle: airtime advances to 1
	sim.RunCFP()          // airtime 2
	sim.EnqueueBorn(4, 1) // arrived mid-air during the first CP
	sim.RunCFP()
	if len(tr.events) != 1 || tr.events[0].born != 1 {
		t.Fatalf("events %+v", tr.events)
	}
	if lat := tr.events[0].now - tr.events[0].born; lat != 2 {
		t.Fatalf("latency %d, want 2 (one queued cycle + service slot)", lat)
	}
}

func TestChargeSlotsAdvancesAirtimeOnly(t *testing.T) {
	runner := func(group []ClientID) SlotResult {
		return SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
	}
	sim := countBeacons(NewSimulator(Config{GroupSize: 1, CPSlots: 2}, FIFOPicker{}, constRate, runner))
	sim.ChargeSlots(3)
	if sim.Slots() != 3 {
		t.Fatalf("slots %d after charging 3", sim.Slots())
	}
	if sim.Beacons() != 0 || sim.QueueLen() != 0 {
		t.Fatal("ChargeSlots must not touch traffic state")
	}
	sim.Enqueue(0)
	sim.RunCFP()
	// 1 CFP slot + 2 CP slots on top of the 3 charged training slots.
	if sim.Slots() != 3+1+2 {
		t.Fatalf("slots %d", sim.Slots())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge accepted")
		}
	}()
	sim.ChargeSlots(-1)
}

// TestFirstSeenClientAllocs pins the MAC's flat per-client tables:
// over N clients never seen before, enqueueing their first packets and
// running the CFPs that serve them cost O(log N) allocations in all
// (per-client table, deque-run slab and picker table growth), not one
// per client.
func TestFirstSeenClientAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const rounds = 1 << 10
	rate, lost := []float64{1, 1, 1}, []bool{false, false, false}
	served := make([]int, 3*rounds)
	sim := NewSimulator(Config{GroupSize: 3}, NewBestOfTwoPicker(1, 8), constRate,
		func(g []ClientID) SlotResult {
			for _, c := range g {
				served[c]++
			}
			return SlotResult{Rate: rate[:len(g)], Lost: lost[:len(g)]}
		})
	var cfp, enqueue uint64
	var m0, m1 runtime.MemStats
	for i := range rounds {
		runtime.ReadMemStats(&m0)
		for j := range 3 {
			sim.Enqueue(ClientID(3*i + j))
		}
		runtime.ReadMemStats(&m1)
		enqueue += m1.Mallocs - m0.Mallocs
		sim.RunCFP()
		runtime.ReadMemStats(&m0)
		cfp += m0.Mallocs - m1.Mallocs
	}
	bound := uint64(16 * bits.Len(3*rounds))
	if cfp > bound || enqueue > bound {
		t.Fatalf("%d first-seen clients: %d allocations enqueueing, %d in CFPs; want at most %d each", 3*rounds, enqueue, cfp, bound)
	}
	for c, n := range served {
		if n != 1 {
			t.Fatalf("client %d served in %d slots, want 1", c, n)
		}
	}
}

// TestFrameAPCountBounds pins the wire-truncation fix: 255, the last AP
// count the one-byte field holds, survives a round trip, and a zero-AP
// frame is refused on marshal and rejected on parse.
func TestFrameAPCountBounds(t *testing.T) {
	raw, err := PollFrame{Type: FrameGrant, Fid: 1, NumAPs: 255}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := UnmarshalPollFrame(raw); err != nil || got.NumAPs != 255 {
		t.Fatalf("NumAPs %d (%v) want 255", got.NumAPs, err)
	}
	// Marshal refuses a zero-AP frame, and one forged on the wire (AP
	// count patched to 0, checksum recomputed) is treated as corruption.
	if _, err := (PollFrame{Type: FrameGrant, Fid: 1}).Marshal(); err == nil {
		t.Fatal("zero-AP grant marshalled")
	}
	rawZero, err := PollFrame{Type: FrameGrant, Fid: 1, NumAPs: 1}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rawZero[5] = 0
	binary.BigEndian.PutUint32(rawZero[len(rawZero)-4:], crc32.ChecksumIEEE(rawZero[:len(rawZero)-4]))
	if _, err := UnmarshalPollFrame(rawZero); err == nil {
		t.Fatal("zero-AP grant parsed")
	}
}
