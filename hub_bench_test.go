package iaclan

import (
	"math/rand"
	"testing"
	"time"

	"iaclan/internal/backend"
	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/phy"
	"iaclan/internal/radio"
)

// benchHubIface adapts the two backend transports to one shape for the
// hub benchmarks in bench_test.go.
type benchHubIface struct {
	pub   func(payload []byte, seq uint32) error
	drain func(min int)
	close func()
}

func (h *benchHubIface) PublishPacket(payload []byte, seq uint32) error {
	return h.pub(payload, seq)
}

func (h *benchHubIface) DrainAll(min int) { h.drain(min) }

func (h *benchHubIface) Close() {
	if h.close != nil {
		h.close()
	}
}

func newMemHubForBench() *benchHubIface {
	h := backend.NewMemHub(3)
	return &benchHubIface{
		pub: func(payload []byte, seq uint32) error {
			return h.Publish(0, backend.Message{Type: backend.MsgDecodedPacket, Seq: seq, Payload: payload})
		},
		drain: func(min int) {
			h.Drain(1)
			h.Drain(2)
		},
	}
}

// BenchmarkHubPacketCancel times the per-packet cost an AP pays for
// every packet the hub ships to it (reconstruct-and-subtract, Section
// 7.1d): phy.CancelWithJitterSearch with the start known exactly
// (maxJitter 0), the canceller the sample plane links.
func BenchmarkHubPacketCancel(b *testing.B) {
	w := channel.NewWorld(channel.DefaultParams(), 8)
	tx := w.AddNode(0, 0)
	rcv := w.AddNode(4, 0)
	m := radio.NewMedium(w, 1e6, 0.001, 9)
	est := phy.EstimateLink(m, tx, rcv, 4)
	rng := rand.New(rand.NewSource(10))
	payload := make([]byte, 1500)
	rng.Read(payload)
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	burst := radio.Burst{From: tx, Start: 0, Samples: phy.PrecodeFrame(payload, v, 1)}
	rx := m.Receive(rcv, burst.Len(), []radio.Burst{burst})
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phy.CancelWithJitterSearch(rx, payload, v, 1, est.H, est.CFO, 1e6, 0, 0)
	}
}

func newTCPHubForBench() (*benchHubIface, error) {
	h, err := backend.NewTCPHub(3)
	if err != nil {
		return nil, err
	}
	for p := 0; p < 3; p++ {
		if err := h.ConnectPort(p); err != nil {
			h.Close()
			return nil, err
		}
	}
	return &benchHubIface{
		pub: func(payload []byte, seq uint32) error {
			return h.Publish(0, backend.Message{Type: backend.MsgDecodedPacket, Seq: seq, Payload: payload})
		},
		drain: func(min int) {
			h.DrainWait(1, min, 5*time.Second)
			h.DrainWait(2, min, 5*time.Second)
		},
		close: func() { h.Close() },
	}, nil
}
