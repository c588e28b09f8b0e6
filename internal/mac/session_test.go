package mac

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"iaclan/internal/core"
)

func solvedUplink(t *testing.T) (*core.Plan, core.Evaluation) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	cs := core.RandomChannelSet(rng, 2, 2, 2, 1000)
	plan, err := core.SolveUplinkThree(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := plan.Evaluate(cs, cs, 1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	return plan, ev
}

func TestGrantFrameRoundTripThroughAir(t *testing.T) {
	plan, ev := solvedUplink(t)
	clientIDs := []ClientID{17, 42}
	frame, err := BuildGrantFrame(7, plan, ev, clientIDs, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := frame.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Client 17 owns packets 0 and 1 (plan owner 0).
	a17, err := ExtractAssignment(raw, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !a17.Participates() || len(a17.Encoding) != 2 {
		t.Fatalf("client 17 assignment: %+v", a17)
	}
	if a17.Fid != 7 || a17.NumAPs != 2 {
		t.Fatalf("metadata: %+v", a17)
	}
	// The extracted vectors are exactly the plan's.
	for i, v := range a17.Encoding {
		want := plan.Encoding[i] // packets 0,1 in frame order
		for d := range v {
			if v[d] != want[d] {
				t.Fatalf("client 17 vector %d mismatch", i)
			}
		}
	}

	// Client 42 owns one packet.
	a42, err := ExtractAssignment(raw, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a42.Encoding) != 1 {
		t.Fatalf("client 42 assignment: %+v", a42)
	}

	// A bystander client is not addressed but parses cleanly.
	a99, err := ExtractAssignment(raw, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a99.Participates() {
		t.Fatal("bystander got packets")
	}
}

func TestExtractAssignmentRejectsCorruption(t *testing.T) {
	plan, ev := solvedUplink(t)
	frame, err := BuildGrantFrame(1, plan, ev, []ClientID{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := frame.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	raw[10] ^= 0x40
	if _, err := ExtractAssignment(raw, 1); err == nil {
		t.Fatal("corrupted broadcast accepted — client would transmit garbage")
	}
}

func TestBuildDataPollFrameAddressesDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cs := core.RandomChannelSet(rng, 3, 3, 2, 1000)
	plan, err := core.SolveDownlinkTriangle(cs)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := plan.Evaluate(cs, cs, 1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	ids := []ClientID{5, 6, 7}
	frame, err := BuildDataPollFrame(3, plan, ev, ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := frame.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Each client receives exactly one packet and learns its decoding
	// vector (which it needs: downlink clients decode themselves).
	for i, id := range ids {
		a, err := ExtractAssignment(raw, id)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Decoding) != 1 {
			t.Fatalf("client %d got %d packets", id, len(a.Decoding))
		}
		want := ev.Decoding[i] // packet i goes to client i in the triangle
		for d := range want {
			if a.Decoding[0][d] != want[d] {
				t.Fatalf("client %d decoding vector mismatch", id)
			}
		}
	}
}

func TestBuildFrameValidation(t *testing.T) {
	plan, ev := solvedUplink(t)
	// Too few client ids.
	if _, err := BuildGrantFrame(1, plan, ev, []ClientID{9}, 2); err == nil {
		t.Fatal("missing client id accepted")
	}
	// Mismatched evaluation.
	if _, err := BuildGrantFrame(1, plan, core.Evaluation{}, []ClientID{1, 2}, 2); err == nil {
		t.Fatal("empty evaluation accepted")
	}
	if _, err := BuildDataPollFrame(1, plan, core.Evaluation{}, []ClientID{1, 2}, 2); err == nil {
		t.Fatal("empty evaluation accepted for data poll")
	}
	// Invalid plan.
	bad := *plan
	bad.Schedule = nil
	if _, err := BuildGrantFrame(1, &bad, ev, []ClientID{1, 2}, 2); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

// TestFrameAPCountBounds pins the wire-truncation fix: AP counts that do
// not fit the one-byte field (or a zero count) error at build time
// instead of silently truncating, and a zero-AP frame is rejected on
// parse.
func TestFrameAPCountBounds(t *testing.T) {
	plan, ev := solvedUplink(t)
	ids := []ClientID{1, 2}
	for _, n := range []int{0, -1, 256, 1000} {
		if _, err := BuildGrantFrame(1, plan, ev, ids, n); err == nil {
			t.Fatalf("grant with %d APs accepted", n)
		}
		if _, err := BuildDataPollFrame(1, plan, ev, ids, n); err == nil {
			t.Fatalf("data poll with %d APs accepted", n)
		}
	}
	// 255 is the last representable count and must survive a round trip.
	frame, err := BuildGrantFrame(1, plan, ev, ids, 255)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := frame.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ExtractAssignment(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAPs != 255 {
		t.Fatalf("NumAPs %d want 255", a.NumAPs)
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

// TestGrantFrameCarriesNAPChainPlan round-trips a generalized N-AP
// chain plan (4 APs, M=2, 2M packets) through the Grant broadcast: the
// frame carries one entry per packet and every owner recovers exactly
// its own vectors.
func TestGrantFrameCarriesNAPChainPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cs := core.RandomChannelSet(rng, 3, 4, 2, 1000)
	plan, err := core.SolveUplinkChain(cs, rng)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := plan.Evaluate(cs, cs, 1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	ids := []ClientID{21, 22, 23}
	frame, err := BuildGrantFrame(11, plan, ev, ids, 4)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := frame.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(frame.Entries) != plan.NumPackets() {
		t.Fatalf("%d entries for %d packets", len(frame.Entries), plan.NumPackets())
	}
	// Client 21 (owner 0) transmits two packets; 22 and 23 one each.
	for i, want := range []int{2, 1, 1} {
		a, err := ExtractAssignment(raw, ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Encoding) != want {
			t.Fatalf("client %d got %d packets want %d", ids[i], len(a.Encoding), want)
		}
		if a.NumAPs != 4 {
			t.Fatalf("client %d sees %d APs", ids[i], a.NumAPs)
		}
	}
}
