package mac

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"iaclan/internal/cmplxmat"
)

// FuzzBeacon checks the beacon wire format both ways: any byte string
// either fails to decode or decodes to a beacon that re-encodes to the
// same bytes, and a beacon built from fuzzed fields round-trips intact.
// Neither direction may panic.
func FuzzBeacon(f *testing.F) {
	for _, b := range []Beacon{{}, {CFPDurationSlots: 17, AckMap: []byte{0b10110001, 0x01}}, {CFPDurationSlots: math.MaxUint16, AckMap: []byte{0}}} {
		raw, err := b.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, b.CFPDurationSlots, b.AckMap)
	}
	f.Add([]byte{byte(FrameBeacon), 0, 1}, uint16(3), []byte(nil))
	f.Fuzz(func(t *testing.T, raw []byte, dur uint16, ack []byte) {
		if b, err := UnmarshalBeacon(raw); err == nil {
			again, err := b.Marshal()
			if err != nil {
				t.Fatalf("decoded beacon %+v does not re-encode: %v", b, err)
			}
			if !bytes.Equal(again, raw) {
				t.Fatalf("beacon re-encodes to %x, decoded from %x", again, raw)
			}
		}
		b := Beacon{CFPDurationSlots: dur, AckMap: ack}
		enc, err := b.Marshal()
		if err != nil {
			t.Fatalf("beacon with a %d-byte ack map: %v", len(ack), err)
		}
		got, err := UnmarshalBeacon(enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if got.CFPDurationSlots != dur || !bytes.Equal(got.AckMap, ack) {
			t.Fatalf("round trip %+v -> %+v", b, got)
		}
	})
}

// FuzzPollFrame checks the DATA+Poll / Grant wire format both ways: any
// byte string either fails to decode or decodes to a frame that
// re-encodes to the same bytes, and a frame built from fuzzed fields
// either is refused by Marshal with ErrBadFrame or round-trips intact —
// Marshal never writes a frame its own decoder rejects. Neither
// direction may panic.
func FuzzPollFrame(f *testing.F) {
	seed := PollFrame{Type: FrameDataPoll, Fid: 1234, NumAPs: 3, Entries: []VectorEntry{
		{Client: 7, Encoding: cmplxmat.Vector{1 + 2i, 3}, Decoding: cmplxmat.Vector{0, 1i}},
	}}
	raw, err := seed.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw, uint8(FrameDataPoll), uint32(1234), uint8(3), uint16(2), uint8(1), uint16(7))
	f.Add([]byte{byte(FrameGrant)}, uint8(FrameGrant), uint32(0), uint8(0), uint16(2), uint8(1), uint16(0))
	f.Add([]byte(nil), uint8(FrameGrant), uint32(5), uint8(2), uint16(256), uint8(1), uint16(3))
	f.Add([]byte{}, uint8(FrameBeacon), uint32(9), uint8(255), uint16(0), uint8(0), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, typ uint8, fid uint32, numAPs uint8, dim uint16, entries uint8, client uint16) {
		if p, err := UnmarshalPollFrame(raw); err == nil {
			again, err := p.Marshal()
			if err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			if !bytes.Equal(again, raw) {
				t.Fatalf("frame re-encodes to %x, decoded from %x", again, raw)
			}
		}
		// Keep built frames small: dimensions up to 300 cross the
		// one-byte field, entry counts stay at a handful.
		d := int(dim % 301)
		p := PollFrame{Type: FrameType(typ), Fid: fid, NumAPs: numAPs}
		for e := 0; e < int(entries%4); e++ {
			enc, dec := make(cmplxmat.Vector, d), make(cmplxmat.Vector, d)
			for i := range enc {
				enc[i] = complex(float64(e), float64(i))
				dec[i] = complex(float64(i), -float64(e))
			}
			p.Entries = append(p.Entries, VectorEntry{Client: ClientID(client) + ClientID(e), Encoding: enc, Decoding: dec})
		}
		enc, err := p.Marshal()
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("Marshal error %v is not ErrBadFrame", err)
			}
			return
		}
		got, err := UnmarshalPollFrame(enc)
		if err != nil {
			t.Fatalf("Marshal wrote a frame its decoder rejects (type %d, %d APs, dim %d): %v", typ, numAPs, d, err)
		}
		if got.Type != p.Type || got.Fid != fid || got.NumAPs != numAPs || len(got.Entries) != len(p.Entries) {
			t.Fatalf("header round trip %+v -> %+v", p, got)
		}
		for i, e := range p.Entries {
			g := got.Entries[i]
			if g.Client != e.Client || !sameVector(g.Encoding, e.Encoding) || !sameVector(g.Decoding, e.Decoding) {
				t.Fatalf("entry %d round trip %+v -> %+v", i, e, g)
			}
		}
		// A flipped checksum byte must be caught.
		enc[len(enc)-1] ^= 0x01
		if _, err := UnmarshalPollFrame(enc); err == nil {
			t.Fatal("corrupted checksum accepted")
		}
	})
}

// sameVector compares two vectors bit for bit (NaN-safe).
func sameVector(a, b cmplxmat.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) || math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}
