package sim

import (
	"fmt"
	"math"

	"iaclan/internal/mimo"
	"iaclan/internal/testbed"
)

// Link configures the SNR-aware link plane of a trial — the operating-
// point axis of the paper's Section 8 measurements, where IAC's gain
// over 802.11 MIMO narrows at low SNR and is residual-limited at high
// SNR. The zero value reproduces the legacy link model bit for bit:
// unit receiver noise, exact reconstruct-and-subtract cancellation, and
// continuous Shannon rates with ideal baseline rate adaptation.
type Link struct {
	// NoiseDB raises the receiver noise power by this many dB over the
	// unit-noise convention, lowering every link's SNR by the same
	// amount without redrawing any fading — the per-scenario SNR
	// operating point. Negative values raise the SNR. Zero keeps the
	// legacy operating point.
	NoiseDB float64
	// ResidualCancel models imperfect cancellation: a packet subtracted
	// after decoding at SINR γ leaks 1/(1+γ) of its received power back
	// as interference at every later receiver in the chain, so late
	// packets inherit degraded SINR (Section 8).
	ResidualCancel bool
	// MCS replaces continuous Shannon rates and the baseline's ideal
	// rate adaptation with the shared discrete 802.11-style MCS table
	// for both schemes: modulation is selected from the planner's
	// (estimate-derived) SINRs, and a packet whose realized SINR falls
	// below its selected rung's threshold is lost — the unified
	// rate/outage model that also subsumes the dynamics-only
	// outageFraction rule.
	MCS bool
}

// validate rejects parameters outside the model.
func (l Link) validate() error {
	if err := finite("Link.NoiseDB", l.NoiseDB); err != nil {
		return err
	}
	if l.NoiseDB < -40 || l.NoiseDB > 60 {
		return fmt.Errorf("sim: Link.NoiseDB %v outside [-40, 60]", l.NoiseDB)
	}
	return nil
}

// env translates the Link knobs into the testbed's link environment.
func (l Link) env() testbed.Env {
	e := testbed.Env{ResidualCancel: l.ResidualCancel}
	if l.NoiseDB != 0 {
		e.NoisePower = math.Pow(10, l.NoiseDB/10)
	}
	if l.MCS {
		e.MCS = mimo.DefaultRateTable()
	}
	return e
}
