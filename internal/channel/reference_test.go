package channel

import "iaclan/internal/cmplxmat"

// Test-only parts of the channel world: accessors the tests drive and
// read the flat-storage world with, the ground-truth calibration that
// pins the paper's reciprocity argument (Eq. 8), and the selectivity
// measure that orders MultipathFrom's delay profiles. No binary calls
// them.

// Propagation returns the physical over-the-air matrix for tx->rx,
// excluding hardware chains. Reciprocity holds exactly at this layer:
// Propagation(a,b) == Propagation(b,a)^T.
func (w *World) Propagation(tx, rx *Node) *cmplxmat.Matrix {
	p := w.physFor(tx, rx)
	if tx.ID < rx.ID {
		return p.Clone()
	}
	return p.T()
}

// Redraw replaces the fading realization of the pair (new multipath
// state), keeping geometry, shadowing and hardware chains fixed.
func (w *World) Redraw(a, b *Node) {
	w.epoch++
	if r, ok := w.index.Get(pairKey(a.ID, b.ID)); ok {
		w.rows.At(int(r)).live &^= physLive
	}
}

// IdealCalibration derives the pair's calibration directly from the
// world's ground-truth hardware chains:
//
//	Hu     = RxAP * P * TxClient
//	(Hd)^T = (RxClient * P^T * TxAP)^T = TxAP * P * RxClient
//	       = (TxAP * RxAP^-1) * Hu * (TxClient^-1 * RxClient)
//
// Diagonal chains make both factors diagonal, as Eq. 8 requires.
// It returns an error only if a hardware chain is singular, which would
// mean a dead RF path.
func IdealCalibration(client, ap *Node) (Calibration, error) {
	rxAPInv, err := ap.rxChain.Inverse()
	if err != nil {
		return Calibration{}, err
	}
	txClientInv, err := client.txChain.Inverse()
	if err != nil {
		return Calibration{}, err
	}
	return Calibration{
		Left:  ap.txChain.Mul(rxAPInv),
		Right: txClientInv.Mul(&client.rxChain),
	}, nil
}

// CoherenceSelectivity quantifies how far the channel is from flat: the
// mean relative Frobenius distance between adjacent subcarriers'
// frequency responses. Zero means perfectly flat; the paper's conjecture
// targets "moderate width channels" where adjacent subcarriers are
// similar (small values).
func (mc MultipathChannel) CoherenceSelectivity(n int) float64 {
	var total float64
	prev := mc.FrequencyResponse(0, n)
	for k := 1; k < n; k++ {
		cur := mc.FrequencyResponse(k, n)
		denom := prev.FrobeniusNorm()
		if denom > 0 {
			total += cur.Sub(prev).FrobeniusNorm() / denom
		}
		prev = cur
	}
	return total / float64(n-1)
}
