package mac

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"iaclan/internal/cmplxmat"
)

// Test-only parts of the MAC: the frame decoders and the beacon encoder
// the wire-format fuzzers round-trip through, and the accessors the
// tests read the simulator and the picker with. No binary calls them:
// only MetadataOverhead encodes a poll frame, to size it, and nothing
// decodes one.

func getComplex(b []byte) complex128 {
	return complex(
		math.Float64frombits(binary.BigEndian.Uint64(b)),
		math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
	)
}

// UnmarshalPollFrame decodes and checksum-verifies a poll frame.
func UnmarshalPollFrame(b []byte) (PollFrame, error) {
	if len(b) < 13 {
		return PollFrame{}, fmt.Errorf("%w: truncated poll frame", ErrBadFrame)
	}
	body, sum := b[:len(b)-4], binary.BigEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return PollFrame{}, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	p := PollFrame{Type: FrameType(body[0])}
	if p.Type != FrameDataPoll && p.Type != FrameGrant {
		return PollFrame{}, fmt.Errorf("%w: type %d", ErrBadFrame, body[0])
	}
	p.Fid = binary.BigEndian.Uint32(body[1:5])
	p.NumAPs = body[5]
	if p.NumAPs == 0 {
		// A grant or poll for zero APs cannot schedule anything; treat it
		// as corruption rather than letting clients act on it.
		return PollFrame{}, fmt.Errorf("%w: zero AP count", ErrBadFrame)
	}
	dim := int(body[6])
	n := int(binary.BigEndian.Uint16(body[7:9]))
	want := 9 + n*(2+32*dim)
	if len(body) != want {
		return PollFrame{}, fmt.Errorf("%w: length %d want %d", ErrBadFrame, len(body), want)
	}
	off := 9
	for i := 0; i < n; i++ {
		e := VectorEntry{Client: ClientID(binary.BigEndian.Uint16(body[off:]))}
		off += 2
		e.Encoding = make(cmplxmat.Vector, dim)
		for d := 0; d < dim; d++ {
			e.Encoding[d] = getComplex(body[off:])
			off += 16
		}
		e.Decoding = make(cmplxmat.Vector, dim)
		for d := 0; d < dim; d++ {
			e.Decoding[d] = getComplex(body[off:])
			off += 16
		}
		p.Entries = append(p.Entries, e)
	}
	return p, nil
}

// Marshal encodes a beacon: type(1) dur(2) ackLen(2) ackMap crc(4).
// The ack map must fit the 2-byte length field; longer maps error
// instead of truncating into a frame that misparses. (The remaining
// narrowing casts in this file are audited: PollFrame.Marshal guards its
// entry count and vector dimension explicitly, and ClientID is already
// a uint16.)
func (b Beacon) Marshal() ([]byte, error) {
	if len(b.AckMap) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: %d-byte ack map exceeds the 2-byte length field", ErrBadFrame, len(b.AckMap))
	}
	buf := make([]byte, 0, 9+len(b.AckMap))
	buf = append(buf, byte(FrameBeacon))
	buf = binary.BigEndian.AppendUint16(buf, b.CFPDurationSlots)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(b.AckMap)))
	buf = append(buf, b.AckMap...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// UnmarshalBeacon decodes and verifies a beacon frame.
func UnmarshalBeacon(raw []byte) (Beacon, error) {
	if len(raw) < 9 {
		return Beacon{}, fmt.Errorf("%w: truncated beacon", ErrBadFrame)
	}
	body, sum := raw[:len(raw)-4], binary.BigEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return Beacon{}, fmt.Errorf("%w: beacon checksum", ErrBadFrame)
	}
	if FrameType(body[0]) != FrameBeacon {
		return Beacon{}, fmt.Errorf("%w: not a beacon", ErrBadFrame)
	}
	n := int(binary.BigEndian.Uint16(body[3:5]))
	if len(body) != 5+n {
		return Beacon{}, fmt.Errorf("%w: beacon length", ErrBadFrame)
	}
	b := Beacon{CFPDurationSlots: binary.BigEndian.Uint16(body[1:3])}
	if n > 0 {
		b.AckMap = append([]byte(nil), body[5:5+n]...)
	}
	return b, nil
}

// AckBit reads client i's bit from an ack map.
func AckBit(ackMap []byte, i int) bool {
	if i < 0 || i/8 >= len(ackMap) {
		return false
	}
	return ackMap[i/8]&(1<<uint(i%8)) != 0
}

// beaconCounter is a Simulator whose RunCFP counts the beacons it
// returns, for the tests that read the counts.
type beaconCounter struct {
	*Simulator
	beacons, wireClamps int
}

// countBeacons wraps s to count its beacons.
func countBeacons(s *Simulator) *beaconCounter { return &beaconCounter{Simulator: s} }

// RunCFP runs s's CFP and counts its beacon, and the beacon as clamped
// when the CFP's true slot count (the airtime it took, less the
// contention period) outran the duration it announces.
func (c *beaconCounter) RunCFP() Beacon {
	before := c.Slots()
	b := c.Simulator.RunCFP()
	c.beacons++
	if c.Slots()-before-c.cfg.CPSlots > int(b.CFPDurationSlots) {
		c.wireClamps++
	}
	return b
}

// Beacons returns how many CFPs have run.
func (c *beaconCounter) Beacons() int { return c.beacons }

// WireClamps returns how many beacons announced a clamped CFP duration
// because the true slot count outran the wire format's 16-bit field
// (see ClampCFPDuration). Zero in any healthy configuration; a nonzero
// count means on-air duration announcements under-report the CFP.
func (c *beaconCounter) WireClamps() int { return c.wireClamps }

// Credits exposes a client's current credit counter (for tests and
// fairness diagnostics).
func (p *BestOfTwoPicker) Credits(c ClientID) int {
	if int(c) >= len(p.clients) {
		return 0
	}
	return p.clients[c].credit
}
