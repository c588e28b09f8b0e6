// Package mimo implements the paper's comparison scheme: point-to-point
// 802.11-MIMO with full channel state information at both ends, based on
// QUALCOMM's eigenmode enforcing proposal [2] — the capacity-optimal
// strategy for a single MIMO link (Tse & Viswanath [29]).
//
// The transmitter sends independent streams along the right singular
// vectors of the channel, pours power over the eigenmodes with
// waterfilling, and the receiver separates the streams with the left
// singular vectors. Only one transmitter accesses the medium at a time;
// extra APs provide diversity (best-AP selection), never multiplexing —
// the antennas-per-AP throughput limit IAC removes.
//
// At 2x2, the simulator's common size, the decomposition is closed form
// (cmplxmat's SVD2 and SingularValues2): the squared singular values
// are the eigenvalues of the channel's 2x2 Gram matrix, and the vectors
// come from the 2-vector kernels. The baseline's rate
// (EigenmodeRateWS, per AP in BestAPWS) needs only the values. Other
// sizes, and 2x2 channels the closed form declines (zero, non-finite or
// out of scaling range), run the general Jacobi SVD.
package mimo

import (
	"math"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/stats"
)

// waterfillInto distributes totalPower across parallel channels with the
// given power gains (|singular value|^2 / noise), maximizing
// sum log2(1 + p_i * g_i). powers receives the per-channel allocation,
// which sums to totalPower (channels below the water level get zero),
// and idx is index scratch of the same length (both usually
// workspace-backed). Gains must be nonnegative; channels with zero gain
// never receive power.
func waterfillInto(powers, gains []float64, totalPower float64, idx []int) {
	for i := range powers {
		powers[i] = 0
	}
	if totalPower <= 0 {
		return
	}
	// Collect candidate channels and order them by descending gain
	// (insertion sort: stream counts are the antenna count, <= 8), then
	// find the largest active set whose water level keeps every member
	// positive.
	n := 0
	for i, g := range gains {
		if g > 0 {
			idx[n] = i
			n++
		}
	}
	if n == 0 {
		return
	}
	for i := 1; i < n; i++ {
		j := i
		for j > 0 && gains[idx[j-1]] < gains[idx[j]] {
			idx[j-1], idx[j] = idx[j], idx[j-1]
			j--
		}
	}
	for k := n; k > 0; k-- {
		// Water level mu solves sum_{i<k} (mu - 1/g_i) = totalPower.
		var invSum float64
		for i := 0; i < k; i++ {
			invSum += 1 / gains[idx[i]]
		}
		mu := (totalPower + invSum) / float64(k)
		if p := mu - 1/gains[idx[k-1]]; p > 0 {
			for i := 0; i < k; i++ {
				powers[idx[i]] = mu - 1/gains[idx[i]]
			}
			break
		}
	}
}

// Precoding holds a complete eigenmode transmission plan for one link.
type Precoding struct {
	// TxVectors are the unit-norm per-stream transmit vectors (right
	// singular vectors of the channel).
	TxVectors []cmplxmat.Vector
	// RxVectors are the matching receive projections (left singular
	// vectors).
	RxVectors []cmplxmat.Vector
	// Powers is the waterfilled power per stream; zero-power streams are
	// retained so indices line up with the singular values.
	Powers []float64
	// Gains is |sigma_i|^2/noise per stream.
	Gains []float64
}

// Rate returns the link's achievable sum rate in bit/s/Hz.
func (p Precoding) Rate() float64 {
	var r float64
	for i, pw := range p.Powers {
		r += stats.ShannonRate(pw * p.Gains[i])
	}
	return r
}

// EigenmodeWS computes the optimal point-to-point precoding for the
// channel h under a total transmit power budget and the given receiver
// noise, with the whole plan — singular vectors, waterfilled powers,
// gains — in the workspace arena. The result is valid until the
// workspace is reset; callers that only need the rate should use
// EigenmodeRateWS, which releases its scratch before returning.
func EigenmodeWS(ws *cmplxmat.Workspace, h *cmplxmat.Matrix, totalPower, noise float64) Precoding {
	svd := (*cmplxmat.Matrix).SVDWS
	if h.Rows() == 2 && h.Cols() == 2 {
		svd = (*cmplxmat.Matrix).SVD2
	}
	u, s, v := svd(h, ws)
	p := Precoding{Powers: ws.Floats(len(s)), Gains: ws.Floats(len(s))}
	p.waterfill(s, totalPower, noise, ws.Ints(len(s)))
	tx := ws.Vectors(len(s))
	rx := ws.Vectors(len(s))
	for j := range s {
		tx[j] = v.ColWS(ws, j)
		rx[j] = u.ColWS(ws, j)
	}
	p.TxVectors, p.RxVectors = tx, rx
	return p
}

// waterfill fills p's Gains from the singular values s (sigma^2/noise)
// and pours totalPower over them into p's Powers, with idx as scratch.
func (p Precoding) waterfill(s []float64, totalPower, noise float64, idx []int) {
	if noise <= 0 {
		panic("mimo: noise must be positive")
	}
	for i, sv := range s {
		p.Gains[i] = sv * sv / noise
	}
	waterfillInto(p.Powers, p.Gains, totalPower, idx)
}

// EigenmodeRateWS computes the eigenmode sum rate, EigenmodeWS's Rate,
// releasing any scratch it allocated before returning. A 2x2 channel
// needs only its singular values: it waterfills SingularValues2's gains
// on fixed-size locals, with no arena work, and its rate has the bits
// of EigenmodeWS(...).Rate(), whose SVD2 takes the same values. A
// channel SingularValues2 declines, and any other size, takes
// EigenmodeWS.
func EigenmodeRateWS(ws *cmplxmat.Workspace, h *cmplxmat.Matrix, totalPower, noise float64) float64 {
	if h.Rows() == 2 && h.Cols() == 2 {
		if s0, s1, ok := h.SingularValues2(); ok {
			var powers, gains [2]float64
			var idx [2]int
			p := Precoding{Powers: powers[:], Gains: gains[:]}
			p.waterfill([]float64{s0, s1}, totalPower, noise, idx[:])
			return p.Rate()
		}
	}
	mark := ws.Mark()
	defer ws.Release(mark)
	return EigenmodeWS(ws, h, totalPower, noise).Rate()
}

// BestAPWS picks the AP index with the highest eigenmode rate among the
// candidate channels, modeling the diversity use of extra APs the paper
// grants 802.11-MIMO in every comparison (Section 10e): "each
// 802.11-MIMO client communicates with the AP to which it has the best
// SNR". It returns the winning index and its rate, and releases the
// workspace scratch it allocated before returning. channels must be
// non-empty.
func BestAPWS(ws *cmplxmat.Workspace, channels []*cmplxmat.Matrix, totalPower, noise float64) (int, float64) {
	if len(channels) == 0 {
		panic("mimo: BestAP with no channels")
	}
	bestIdx, bestRate := 0, math.Inf(-1)
	for i, h := range channels {
		if r := EigenmodeRateWS(ws, h, totalPower, noise); r > bestRate {
			bestIdx, bestRate = i, r
		}
	}
	return bestIdx, bestRate
}
