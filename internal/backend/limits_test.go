package backend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

func TestWireLenMatchesMarshal(t *testing.T) {
	for _, m := range []Message{
		{},
		{Type: MsgLossReport, From: 2, Seq: 9},
		{Type: MsgAckMap, Payload: []byte{0xff, 0x01}},
		{Type: MsgDecodedPacket, From: 1, Seq: 1 << 31, Payload: make([]byte, 1440)},
	} {
		if got, want := m.WireLen(), len(m.Marshal()); got != want {
			t.Fatalf("WireLen %d, len(Marshal) %d for %+v", got, want, m)
		}
	}
}

// oversizeHeader is a frame header whose length field claims plen bytes.
func oversizeHeader(plen uint32) []byte {
	hdr := make([]byte, headerLen)
	hdr[0] = byte(MsgDecodedPacket)
	binary.BigEndian.PutUint32(hdr[9:13], plen)
	return hdr
}

func TestUnmarshalRejectsOversizePayload(t *testing.T) {
	for _, plen := range []uint32{MaxPayload + 1, 0xFFFFFFFF} {
		// The header alone is enough to refuse: the decoder must not wait
		// for (or size anything by) the claimed payload.
		if _, _, err := UnmarshalMessage(oversizeHeader(plen)); !errors.Is(err, ErrPayloadTooLarge) {
			t.Fatalf("plen %d: want ErrPayloadTooLarge, got %v", plen, err)
		}
	}
	// Exactly MaxPayload is legal.
	m := Message{Type: MsgDecodedPacket, Payload: make([]byte, MaxPayload)}
	got, n, err := UnmarshalMessage(m.Marshal())
	if err != nil || n != m.WireLen() || len(got.Payload) != MaxPayload {
		t.Fatalf("MaxPayload frame: n %d, payload %d, err %v", n, len(got.Payload), err)
	}
}

func TestPublishRejectsOversizePayload(t *testing.T) {
	big := Message{Type: MsgDecodedPacket, Payload: make([]byte, MaxPayload+1)}
	mh := NewMemHub(2)
	if err := mh.Publish(0, big); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("MemHub: want ErrPayloadTooLarge, got %v", err)
	}
	if mh.BytesOnWire() != 0 || len(mh.Drain(1)) != 0 {
		t.Fatal("MemHub: refused message was counted or queued")
	}

	th, err := NewTCPHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	for p := 0; p < 2; p++ {
		if err := th.ConnectPort(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Publish(0, big); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("TCPHub: want ErrPayloadTooLarge, got %v", err)
	}
}

// TestTCPHubDropsOversizeFrame writes a raw header claiming 4 GiB of
// payload to one port. The hub must drop that port without allocating
// the claimed frame, and the other ports must keep working.
func TestTCPHubDropsOversizeFrame(t *testing.T) {
	h, err := NewTCPHub(3)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for p := 0; p < 3; p++ {
		if err := h.ConnectPort(p); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	bad := h.ports[1].conn
	if _, err := bad.Write(oversizeHeader(0xFFFFFFFF)); err != nil {
		t.Fatal(err)
	}
	// The hub never writes to a port's client side, so the next read
	// ends only when the hub closes its end of the dropped port.
	if err := bad.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = bad.Read(make([]byte, 1))
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("hub kept the port open after an oversize header (read err %v)", err)
	}
	runtime.ReadMemStats(&m1)
	if grown := m1.TotalAlloc - m0.TotalAlloc; grown > 16<<20 {
		t.Fatalf("hub allocated %d bytes for a 4 GiB length claim", grown)
	}

	msg := Message{Type: MsgDecodedPacket, Seq: 5, Payload: []byte("still here")}
	if err := h.Publish(0, msg); err != nil {
		t.Fatal(err)
	}
	got := h.DrainWait(2, 1, 2*time.Second)
	if len(got) != 1 || got[0].Seq != 5 || !bytes.Equal(got[0].Payload, msg.Payload) {
		t.Fatalf("port 2 after the drop: %+v", got)
	}
	if err := h.Publish(2, Message{Type: MsgLossReport, Seq: 6}); err != nil {
		t.Fatal(err)
	}
	if got := h.DrainWait(0, 1, 2*time.Second); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("port 0 after the drop: %+v", got)
	}
	if want := int64(msg.WireLen() + headerLen); h.BytesOnWire() != want {
		t.Fatalf("bytes %d, want %d (the dropped frame must not count)", h.BytesOnWire(), want)
	}
}

// TestMemHubPublishDiscardZeroAlloc pins the wired-plane accounting loop
// the simulator runs every cycle: publishing shares, loss reports and
// an ack map, then discarding the queues, allocates nothing once the
// queues have grown to the cycle's size.
func TestMemHubPublishDiscardZeroAlloc(t *testing.T) {
	h := NewMemHub(4)
	payload := make([]byte, 1440)
	ack := []byte{0x5a}
	var seq uint32
	cycle := func() {
		for i := 0; i < 3; i++ {
			seq++
			_ = h.Publish(0, Message{Type: MsgDecodedPacket, Seq: seq, Payload: payload})
		}
		seq++
		_ = h.Publish(0, Message{Type: MsgLossReport, Seq: seq})
		seq++
		_ = h.Publish(0, Message{Type: MsgAckMap, Seq: seq, Payload: ack})
		h.DiscardAll()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("publish+discard cycle: %v allocs, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call to its 100 runs.
	perCycle := int64(5*headerLen + 3*len(payload) + len(ack))
	if want := 102 * perCycle; h.BytesOnWire() != want {
		t.Fatalf("bytes %d, want %d", h.BytesOnWire(), want)
	}
}

// FuzzUnmarshalMessage feeds arbitrary bytes to the frame decoder: it
// must never panic, a successful decode must re-marshal to exactly the
// bytes it consumed, and WireLen must agree with Marshal.
func FuzzUnmarshalMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(Message{Type: MsgDecodedPacket, From: 2, Seq: 77, Payload: []byte("packet body")}.Marshal())
	f.Add(Message{Type: MsgLossReport, From: 1, Seq: 3}.Marshal())
	f.Add(append(Message{Type: MsgAckMap, Payload: []byte{1}}.Marshal(), 0xde, 0xad))
	f.Add(oversizeHeader(0xFFFFFFFF))
	f.Add(oversizeHeader(MaxPayload + 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, n, err := UnmarshalMessage(b)
		if err != nil {
			if n != 0 {
				t.Fatalf("error %v with %d bytes consumed", err, n)
			}
			return
		}
		if n < headerLen || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		enc := m.Marshal()
		if !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-marshal %x, consumed prefix %x", enc, b[:n])
		}
		if m.WireLen() != len(enc) {
			t.Fatalf("WireLen %d, len(Marshal) %d", m.WireLen(), len(enc))
		}
	})
}
