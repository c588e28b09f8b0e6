package sig

import "fmt"

// Modulation is a constellation of the shared MCS table
// (mimo.RateTable), with Gray-coded symbol mapping. IAC sits below
// modulation (paper Sections 4, 6b): alignment happens in the
// antenna-spatial domain, so the same encoding vectors carry BPSK, QPSK
// or QAM symbols unchanged. The sample plane sends BPSK; the square-QAM
// modem that shows the claim is a test oracle (qam_test.go).
type Modulation int

const (
	// BPSK carries 1 bit/symbol (the paper's implementation choice).
	BPSK Modulation = iota
	// QPSK carries 2 bits/symbol.
	QPSK
	// QAM16 carries 4 bits/symbol.
	QAM16
	// QAM64 carries 6 bits/symbol.
	QAM64
)

// BitsPerSymbol returns the constellation's bit load.
func (m Modulation) BitsPerSymbol() int {
	switch m {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		panic(fmt.Sprintf("sig: unknown modulation %d", m))
	}
}

// String names the modulation.
func (m Modulation) String() string {
	switch m {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}
