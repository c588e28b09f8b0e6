package channel

import (
	"math/rand"

	"iaclan/internal/cmplxmat"
)

// Calibration holds the two constant diagonal matrices that relate a
// measured uplink channel to the downlink channel of the same pair
// (paper Eq. 8):
//
//	(Hd)^T = Left * Hu * Right
//
// Left collects the AP-side TX/RX hardware asymmetry and Right the
// client-side asymmetry. The matrices depend only on hardware chains, so
// they are computed once per pair and stay valid as the over-the-air
// channel fades or the client moves — exactly the property the paper's
// Fig. 16 experiment verifies.
type Calibration struct {
	Left  *cmplxmat.Matrix
	Right *cmplxmat.Matrix
}

// MeasureCalibration estimates the calibration the way a real system must:
// from one noisy measurement of the uplink channel (at the AP) and one of
// the downlink channel (at the client). estSigma is the per-entry
// estimation noise; rng drives the noise.
//
// Because the factors are diagonal, each diagonal entry is identifiable
// from the measured matrices up to one shared scale, which is all
// reciprocity-based precoding needs. We solve entrywise:
//
//	(Hd^T)_ij = L_i * Hu_ij * R_j
//
// by fixing L_0 = (Hd^T)_00 / Hu_00 with R_0 = 1, then reading off the
// remaining entries from row 0 and column 0.
func MeasureCalibration(w *World, client, ap *Node, estSigma float64, rng *rand.Rand) (Calibration, error) {
	hu := NoisyEstimate(w.Channel(client, ap), estSigma, rng)
	hd := NoisyEstimate(w.Channel(ap, client), estSigma, rng)
	hdT := hd.T()
	m := hu.Rows()

	l := make([]complex128, m)
	r := make([]complex128, m)
	if hu.At(0, 0) == 0 {
		return Calibration{}, cmplxmat.ErrSingular
	}
	r[0] = 1
	l[0] = hdT.At(0, 0) / hu.At(0, 0)
	for j := 1; j < m; j++ {
		if hu.At(0, j) == 0 || l[0] == 0 {
			return Calibration{}, cmplxmat.ErrSingular
		}
		r[j] = hdT.At(0, j) / (l[0] * hu.At(0, j))
	}
	for i := 1; i < m; i++ {
		if hu.At(i, 0) == 0 {
			return Calibration{}, cmplxmat.ErrSingular
		}
		l[i] = hdT.At(i, 0) / (hu.At(i, 0) * r[0])
	}
	return Calibration{Left: cmplxmat.Diagonal(l...), Right: cmplxmat.Diagonal(r...)}, nil
}

// DownlinkFromUplink applies the calibration to an uplink measurement to
// predict the downlink channel: Hd = (Left * Hu * Right)^T.
func (c Calibration) DownlinkFromUplink(hu *cmplxmat.Matrix) *cmplxmat.Matrix {
	return c.Left.Mul(hu).Mul(c.Right).T()
}

// FractionalError is the paper's Fig. 16 metric:
//
//	Err = ||Hd_true - Hd_reciprocity||_F / ||Hd_true||_F.
func FractionalError(hdTrue, hdReciprocity *cmplxmat.Matrix) float64 {
	denom := hdTrue.FrobeniusNorm()
	if denom == 0 {
		return 0
	}
	return hdTrue.Sub(hdReciprocity).FrobeniusNorm() / denom
}
