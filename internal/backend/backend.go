// Package backend implements the wired coordination plane IAC delegates
// to the APs: a broadcast hub carrying decoded packets, channel-estimate
// annotations, and loss reports between the APs and the leader
// (paper Sections 7.1c-d).
//
// Two hubs are provided behind one interface: an in-memory hub for
// deterministic simulation, and a real TCP loopback hub (length-prefixed
// frames over net.Conn) demonstrating that the coordination traffic runs
// over an ordinary LAN stack. Both count bytes, because IAC's key
// backend property is that "the Ethernet traffic remains comparable to
// the wireless throughput" — unlike virtual MIMO, which must ship raw
// signal samples (Section 2a).
package backend

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// MsgType distinguishes the coordination messages of Section 7.1.
type MsgType uint8

const (
	// MsgDecodedPacket carries a decoded packet from one AP to the rest
	// for interference cancellation.
	MsgDecodedPacket MsgType = iota + 1
	// MsgChannelUpdate tells the leader a channel estimate changed by
	// more than the threshold.
	MsgChannelUpdate
	// MsgLossReport tells the leader a packet was lost and needs a
	// retransmission slot.
	MsgLossReport
	// MsgAckMap is the leader's combined ack bitmap for the next beacon.
	MsgAckMap
)

// Message is one coordination frame on the AP backend.
type Message struct {
	Type MsgType
	// From is the sending AP's identifier.
	From int
	// Seq identifies the wireless packet the message concerns.
	Seq uint32
	// Payload is the decoded packet body or annotation bytes.
	Payload []byte
}

// wire format: type(1) from(4) seq(4) payloadLen(4) payload.
const headerLen = 13

// MaxPayload bounds a message payload in bytes. The 4-byte length field
// could claim up to 4 GiB; a hub trusting it would allocate whatever a
// corrupt or hostile frame header asks for. 64 KiB sits far above the
// 1500-byte packets the APs share (and above an 802.11n A-MPDU's 65535
// bytes). Decoders reject longer frames and Publish refuses to send them.
const MaxPayload = 64 << 10

// ErrPayloadTooLarge is returned for a message whose payload exceeds
// MaxPayload, on decode and on Publish.
var ErrPayloadTooLarge = fmt.Errorf("backend: payload exceeds %d bytes", MaxPayload)

// WireLen returns the message's encoded size on the wire, by definition
// len(m.Marshal()), without building the frame.
func (m Message) WireLen() int { return headerLen + len(m.Payload) }

// Marshal encodes the message in the hub wire format.
func (m Message) Marshal() []byte {
	buf := make([]byte, m.WireLen())
	buf[0] = byte(m.Type)
	binary.BigEndian.PutUint32(buf[1:5], uint32(m.From))
	binary.BigEndian.PutUint32(buf[5:9], m.Seq)
	binary.BigEndian.PutUint32(buf[9:13], uint32(len(m.Payload)))
	copy(buf[headerLen:], m.Payload)
	return buf
}

// ErrShortMessage is returned when unmarshalling truncated bytes.
var ErrShortMessage = errors.New("backend: short message")

// UnmarshalMessage decodes one message and returns it along with the
// number of bytes consumed. A header claiming more than MaxPayload bytes
// is rejected with ErrPayloadTooLarge.
func UnmarshalMessage(b []byte) (Message, int, error) {
	if len(b) < headerLen {
		return Message{}, 0, ErrShortMessage
	}
	plen, err := payloadLen(b[:headerLen])
	if err != nil {
		return Message{}, 0, err
	}
	if len(b) < headerLen+plen {
		return Message{}, 0, ErrShortMessage
	}
	m := Message{
		Type: MsgType(b[0]),
		From: int(binary.BigEndian.Uint32(b[1:5])),
		Seq:  binary.BigEndian.Uint32(b[5:9]),
	}
	if plen > 0 {
		m.Payload = append([]byte(nil), b[headerLen:headerLen+plen]...)
	}
	return m, headerLen + plen, nil
}

// payloadLen reads the payload length from a frame header, rejecting
// lengths above MaxPayload before anyone sizes a buffer by them.
func payloadLen(hdr []byte) (int, error) {
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > MaxPayload {
		return 0, ErrPayloadTooLarge
	}
	return int(n), nil
}

// Hub is the AP coordination plane: every published message is delivered
// to every other port exactly once (hub semantics: one broadcast per
// packet, Section 7.1d).
type Hub interface {
	// Publish broadcasts a message from the given port.
	Publish(port int, msg Message) error
	// Drain returns and clears the messages queued for the given port,
	// in publication order.
	Drain(port int) []Message
	// BytesOnWire returns the cumulative bytes broadcast (each message
	// counted once, per hub semantics).
	BytesOnWire() int64
}

// MemHub is a deterministic in-memory Hub.
type MemHub struct {
	mu     sync.Mutex
	queues [][]Message
	bytes  int64
}

// NewMemHub creates a hub with the given number of ports (APs).
func NewMemHub(ports int) *MemHub {
	if ports <= 0 {
		panic("backend: hub needs at least one port")
	}
	return &MemHub{queues: make([][]Message, ports)}
}

// Publish implements Hub. It counts the message's wire size without
// encoding it and appends to queues that DiscardAll keeps warm, so a
// steady publish/discard loop does not allocate.
func (h *MemHub) Publish(port int, msg Message) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if port < 0 || port >= len(h.queues) {
		return fmt.Errorf("backend: port %d out of range", port)
	}
	if len(msg.Payload) > MaxPayload {
		return ErrPayloadTooLarge
	}
	h.bytes += int64(msg.WireLen())
	for p := range h.queues {
		if p == port {
			continue
		}
		h.queues[p] = append(h.queues[p], msg)
	}
	return nil
}

// Drain implements Hub. The returned slice belongs to the caller: the
// port starts a fresh queue.
func (h *MemHub) Drain(port int) []Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	if port < 0 || port >= len(h.queues) {
		return nil
	}
	out := h.queues[port]
	h.queues[port] = nil
	return out
}

// DiscardAll drops every port's queued messages without returning them.
// Long-running simulations that use the hub for wired-plane byte
// accounting only (nobody consumes the broadcasts) call it once per CFP
// cycle so queues stay bounded. Each queue keeps its capacity (the
// dropped entries are zeroed so their payloads can be collected), so
// the next cycle's publishes append without growing anything.
func (h *MemHub) DiscardAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for p, q := range h.queues {
		clear(q)
		h.queues[p] = q[:0]
	}
}

// BytesOnWire implements Hub.
func (h *MemHub) BytesOnWire() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}
