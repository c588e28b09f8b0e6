package sim

import (
	"testing"

	"iaclan/internal/backend"
	"iaclan/internal/mac"
	"iaclan/internal/phy"
)

// TestWirePayloadsFitFrame pins the bound that lets the engine count
// the wired plane's bytes without a hub: no message it sends can exceed
// backend.MaxPayload, so a hub would accept, and count, every one. The
// largest payloads are a decoded-packet share at the largest
// PacketBytes Validate admits and the ack map of a cell whose every
// 16-bit ClientID was served in one CFP.
func TestWirePayloadsFitFrame(t *testing.T) {
	cfg := Default()
	cfg.PacketBytes = backend.MaxPayload
	if err := cfg.Validate(); err != nil {
		t.Fatalf("largest frame payload rejected: %v", err)
	}
	cfg.PacketBytes++
	if err := cfg.Validate(); err == nil {
		t.Fatal("PacketBytes above backend.MaxPayload accepted")
	}

	// A beacon's ack map holds one bit per packet the previous CFP
	// served, and a CFP serves each client at most once, so a full cell
	// needs maxClients bits. A small cell, every client served and
	// acknowledged, shows the MAC building its map at one bit a client.
	const cell = 100
	sim := mac.NewSimulator(mac.Config{GroupSize: 1}, mac.FIFOPicker{},
		func([]mac.ClientID) float64 { return 1 },
		func([]mac.ClientID) mac.SlotResult {
			return mac.SlotResult{Rate: []float64{1}, Lost: []bool{false}}
		})
	for c := range cell {
		sim.EnqueueBorn(mac.ClientID(c), 0)
	}
	sim.RunCFP()
	if got, want := len(sim.RunCFP().AckMap), (cell+7)/8; got != want {
		t.Fatalf("%d-client ack map is %d bytes, want %d", cell, got, want)
	}
	ackMap := mac.SetAckBit(nil, maxClients-1)
	if want := maxClients / 8; len(ackMap) != want {
		t.Fatalf("full-cell ack map is %d bytes, want %d", len(ackMap), want)
	}
	hub := backend.NewMemHub(2)
	for _, m := range []backend.Message{
		{Type: backend.MsgDecodedPacket, Payload: make([]byte, backend.MaxPayload)},
		{Type: backend.MsgAckMap, Payload: ackMap},
	} {
		if err := hub.Publish(0, m); err != nil {
			t.Fatalf("hub refused a %d-byte payload: %v", len(m.Payload), err)
		}
	}
}

// TestWireBytesMatchHub pins the engine's wired-plane count to the
// bytes backend.MemHub counts for the same broadcasts: every message
// kind the engine sends, with and without payloads, whatever the
// sender and sequence number.
func TestWireBytesMatchHub(t *testing.T) {
	cfg, err := Default().prepare()
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer phy.PutWorkspace(e.ws)
	msgs := []backend.Message{
		{Type: backend.MsgDecodedPacket, From: 2, Seq: 7, Payload: e.payload},
		{Type: backend.MsgLossReport, From: 1, Seq: 8},
		{Type: backend.MsgAckMap, Seq: 9, Payload: []byte{0xff, 0x01}},
		{Type: backend.MsgDecodedPacket, From: 3, Seq: 10, Payload: e.payload},
		{Type: backend.MsgLossReport},
	}
	hub := backend.NewMemHub(cfg.APs)
	for i, m := range msgs {
		e.publish(m.Type, m.Payload)
		if err := hub.Publish(m.From%cfg.APs, m); err != nil {
			t.Fatal(err)
		}
		if e.wireBytes != hub.BytesOnWire() {
			t.Fatalf("after message %d: engine counts %d bytes, hub %d", i, e.wireBytes, hub.BytesOnWire())
		}
	}
	if e.wireBytes == 0 {
		t.Fatal("nothing counted")
	}
}
