// Package mac implements IAC's medium access control (paper Section 7):
// an 802.11 PCF extension where a leader AP arbitrates the medium for
// transmission groups of concurrent clients, plus the concurrency
// algorithms (brute force, FIFO, best-of-two with credit counters) that
// decide which clients transmit together.
package mac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"iaclan/internal/cmplxmat"
)

// ClientID identifies an associated client; ids are "given to the clients
// upon association" (Section 7.1).
type ClientID uint16

// FrameType tags the control frames of the PCF extension (Fig. 9).
type FrameType uint8

const (
	// FrameBeacon starts a contention-free period and carries the ack
	// bitmap for the previous CFP's uplink packets.
	FrameBeacon FrameType = iota + 1
	// FrameDataPoll precedes a downlink transmission group: the leader
	// broadcasts client ids and encoding/decoding vectors (Fig. 10).
	FrameDataPoll
	// FrameGrant precedes an uplink transmission group.
	FrameGrant
	// FrameCFEnd closes the contention-free period.
	FrameCFEnd
)

// VectorEntry carries one client-AP pair's encoding and decoding vectors
// inside DATA+Poll / Grant metadata.
type VectorEntry struct {
	Client   ClientID
	Encoding cmplxmat.Vector
	Decoding cmplxmat.Vector
}

// PollFrame is the metadata broadcast of Fig. 10: frame id, AP count, and
// per-client vector entries, protected by a checksum so "the clients and
// APs can use the checksum to test whether they received the correct
// information".
type PollFrame struct {
	Type    FrameType // FrameDataPoll or FrameGrant
	Fid     uint32
	NumAPs  uint8
	Entries []VectorEntry
}

// Beacon announces a CFP and acknowledges the previous CFP's uplink
// packets as a bitmap indexed by poll order (Section 7.1 b.2).
type Beacon struct {
	CFPDurationSlots uint16
	AckMap           []byte
}

var (
	// ErrBadFrame is returned for malformed or checksum-failing frames.
	ErrBadFrame = errors.New("mac: bad frame")
)

func putComplex(b []byte, c complex128) {
	binary.BigEndian.PutUint64(b, math.Float64bits(real(c)))
	binary.BigEndian.PutUint64(b[8:], math.Float64bits(imag(c)))
}

// Marshal encodes the poll frame:
// type(1) fid(4) numAPs(1) dim(1) numEntries(2)
// entries[client(2) enc(16*dim) dec(16*dim)] crc32(4).
// It refuses every frame UnmarshalPollFrame would reject instead of
// writing it: a zero AP count, and a vector dimension or entry count
// past its field.
func (p PollFrame) Marshal() ([]byte, error) {
	if p.Type != FrameDataPoll && p.Type != FrameGrant {
		return nil, fmt.Errorf("%w: type %d is not a poll frame", ErrBadFrame, p.Type)
	}
	if p.NumAPs == 0 {
		return nil, fmt.Errorf("%w: zero AP count", ErrBadFrame)
	}
	dim := 0
	if len(p.Entries) > 0 {
		dim = p.Entries[0].Encoding.Dim()
	}
	if dim > math.MaxUint8 {
		return nil, fmt.Errorf("%w: %d-dimensional vectors exceed the 1-byte dimension field", ErrBadFrame, dim)
	}
	for _, e := range p.Entries {
		if e.Encoding.Dim() != dim || e.Decoding.Dim() != dim {
			return nil, fmt.Errorf("%w: inconsistent vector dimensions", ErrBadFrame)
		}
	}
	if len(p.Entries) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d entries exceed the 2-byte count field", ErrBadFrame, len(p.Entries))
	}
	size := 1 + 4 + 1 + 1 + 2 + len(p.Entries)*(2+32*dim) + 4
	buf := make([]byte, 0, size)
	buf = append(buf, byte(p.Type))
	buf = binary.BigEndian.AppendUint32(buf, p.Fid)
	buf = append(buf, p.NumAPs, byte(dim))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Entries)))
	scratch := make([]byte, 16)
	for _, e := range p.Entries {
		buf = binary.BigEndian.AppendUint16(buf, uint16(e.Client))
		for _, v := range []cmplxmat.Vector{e.Encoding, e.Decoding} {
			for _, c := range v {
				putComplex(scratch, c)
				buf = append(buf, scratch...)
			}
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// ClampCFPDuration saturates a CFP length in slots into the beacon's
// 16-bit duration field: values outside [0, 65535] clamp to the nearest
// bound instead of silently truncating (65536 slots must not announce
// as 0 on the wire). The 65536-client-per-cell cap means a GroupSize-1
// CFP can legally hit 65536 slots — one past the field's range — so the
// clamp is reachable.
func ClampCFPDuration(slots int) uint16 {
	if slots < 0 {
		return 0
	}
	if slots > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(slots)
}

// SetAckBit sets client i's bit, growing the map as needed, and returns
// the (possibly reallocated) map.
func SetAckBit(ackMap []byte, i int) []byte {
	for i/8 >= len(ackMap) {
		ackMap = append(ackMap, 0)
	}
	ackMap[i/8] |= 1 << uint(i%8)
	return ackMap
}

// MetadataOverhead returns the fraction of airtime the poll metadata
// costs for a transmission group, the Section 7.1(e) accounting:
// metadata bytes / (metadata + group's data payload bytes). The paper
// quotes 1-2% for 1440-byte packets and a few bytes per client-AP pair.
// numPairs beyond the wire format's entry capacity (65535) returns 0;
// the one-byte NumAPs field does not change the frame size, so it is
// pinned to a legal value instead of truncating the pair count into it.
func MetadataOverhead(numPairs, antennas, payloadBytes int) float64 {
	if numPairs < 1 || numPairs > math.MaxUint16 {
		return 0
	}
	p := PollFrame{Type: FrameDataPoll, NumAPs: 1}
	for i := 0; i < numPairs; i++ {
		v := make(cmplxmat.Vector, antennas)
		p.Entries = append(p.Entries, VectorEntry{Client: ClientID(i), Encoding: v, Decoding: v})
	}
	raw, err := p.Marshal()
	if err != nil {
		panic(err) // construction above is always well formed
	}
	meta := float64(len(raw))
	data := float64(numPairs * payloadBytes)
	return meta / (meta + data)
}
