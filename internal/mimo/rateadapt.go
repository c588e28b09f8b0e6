package mimo

import (
	"math"
	"slices"
	"sync"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/sig"
	"iaclan/internal/stats"
)

// This file adds the rate adaptation the paper's GNU-Radio platform
// lacked (Section 10f): real 802.11 hardware exploits higher SNR by
// switching to denser modulation and coding. The paper therefore
// compares schemes by the Shannon rate log2(1+SNR); this module maps the
// same per-packet SNRs onto a discrete 802.11-style MCS ladder, giving
// the throughput an actual product would see and letting experiments
// check that IAC's SNR advantage survives quantization to real rates.

// MCS is one rung of the rate ladder: a constellation and a coding rate.
type MCS struct {
	Mod        sig.Modulation
	CodingRate float64 // e.g. 0.5 or 0.75
	// MinSNRdB is the SNR needed for a near-zero post-FEC error rate.
	MinSNRdB float64
}

// BitsPerSymbol returns the information bits one symbol carries.
func (m MCS) BitsPerSymbol() float64 {
	return float64(m.Mod.BitsPerSymbol()) * m.CodingRate
}

// Ladder80211 is an 802.11a/g-style MCS ladder (rates normalized to
// bits/symbol/stream; thresholds follow the standard's sensitivity
// spacing).
func Ladder80211() []MCS {
	return []MCS{
		{Mod: sig.BPSK, CodingRate: 0.5, MinSNRdB: 4},
		{Mod: sig.BPSK, CodingRate: 0.75, MinSNRdB: 6},
		{Mod: sig.QPSK, CodingRate: 0.5, MinSNRdB: 8},
		{Mod: sig.QPSK, CodingRate: 0.75, MinSNRdB: 11},
		{Mod: sig.QAM16, CodingRate: 0.5, MinSNRdB: 15},
		{Mod: sig.QAM16, CodingRate: 0.75, MinSNRdB: 18},
		{Mod: sig.QAM64, CodingRate: 2.0 / 3.0, MinSNRdB: 22},
		{Mod: sig.QAM64, CodingRate: 0.75, MinSNRdB: 24},
	}
}

// RateTable is a discrete rate-adaptation table over an MCS ladder,
// shared by IAC and the 802.11-MIMO baseline so both schemes quantize
// to the same rungs (Section 10f): a transmitter selects the fastest
// rung its planned (estimate-derived) SINR supports, and the packet
// decodes only if the realized SINR still clears that rung's threshold.
//
// A table is immutable once built. Its rules are stated in dB (a rung
// is supported when stats.DB(sinr) >= MinSNRdB) but run on linear
// SINRs: each rung's threshold is converted once, so selection costs
// comparisons and no logarithm.
type RateTable struct {
	// ladder is the rungs as given; selection does not need it sorted.
	ladder []MCS
	// minSINR[i] is the smallest float64 x with stats.DB(x) >=
	// ladder[i].MinSNRdB (see linearThreshold), and bits[i] is
	// ladder[i].BitsPerSymbol().
	minSINR, bits []float64
	// steps are the distinct non-NaN thresholds in ascending order.
	// The rungs a SINR supports are those whose threshold is at most
	// the SINR, and choice[j] is the rung selected from the rungs whose
	// threshold is at most steps[j].
	steps  []float64
	choice []int
}

// NewRateTable builds a table over a copy of an MCS ladder. The ladder
// must be non-empty.
func NewRateTable(ladder []MCS) *RateTable {
	if len(ladder) == 0 {
		panic("mimo: empty MCS ladder")
	}
	ladder = slices.Clone(ladder)
	t := &RateTable{ladder: ladder, minSINR: make([]float64, len(ladder)), bits: make([]float64, len(ladder))}
	for i, m := range ladder {
		t.minSINR[i] = linearThreshold(m.MinSNRdB)
		t.bits[i] = m.BitsPerSymbol()
		if !math.IsNaN(t.minSINR[i]) && !slices.Contains(t.steps, t.minSINR[i]) {
			t.steps = append(t.steps, t.minSINR[i])
		}
	}
	slices.Sort(t.steps)
	for _, step := range t.steps {
		// The fastest supported rung; of equally fast rungs the
		// earliest wins.
		best := -1
		for i, thr := range t.minSINR {
			if thr <= step && (best < 0 || t.bits[i] > t.bits[best]) {
				best = i
			}
		}
		t.choice = append(t.choice, best)
	}
	return t
}

// defaultRateTable is built once per process: a table is immutable, so
// every engine can share it.
var defaultRateTable = sync.OnceValue(func() *RateTable { return NewRateTable(Ladder80211()) })

// DefaultRateTable returns the shared 802.11a/g-style table every
// SNR-aware experiment uses. Every call returns the same table.
func DefaultRateTable() *RateTable { return defaultRateTable() }

// linearThreshold returns the smallest float64 x with stats.DB(x) >=
// minDB, found by bisection on the bits of the non-negative floats
// (their order as integers is their order as values). It is 0 when
// every non-negative x qualifies (minDB = -Inf), +Inf when only +Inf
// does, and NaN when none does (minDB = NaN). Then for every x,
// stats.DB(x) >= minDB exactly when x >= the threshold, provided
// stats.DB does not decrease anywhere near it; TestRateTableLinearThresholds
// checks every float within 2^20 ulps of each rung.
func linearThreshold(minDB float64) float64 {
	meets := func(x float64) bool { return stats.DB(x) >= minDB }
	if !meets(math.Inf(1)) {
		return math.NaN()
	}
	if meets(0) {
		return 0
	}
	lo, hi := uint64(0), math.Float64bits(math.Inf(1)) // meets(lo) is false, meets(hi) true
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if meets(math.Float64frombits(mid)) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// pick returns the index of the fastest rung the linear SINR supports,
// or -1 when even the lowest is out of reach.
func (t *RateTable) pick(sinr float64) int {
	for j := len(t.steps) - 1; j >= 0; j-- {
		if sinr >= t.steps[j] {
			return t.choice[j]
		}
	}
	return -1
}

// misses reports stats.DB(sinr) < ladder[i].MinSNRdB on the linear
// threshold: a negative or NaN SINR has a NaN dB value, which misses no
// threshold.
func (t *RateTable) misses(sinr float64, i int) bool {
	return sinr >= 0 && sinr < t.minSINR[i]
}

// Select returns the fastest rung the linear SINR supports, and false
// when even the lowest rung is out of reach.
func (t *RateTable) Select(sinr float64) (MCS, bool) {
	i := t.pick(sinr)
	if i < 0 {
		return MCS{}, false
	}
	return t.ladder[i], true
}

// Rate maps a linear SINR to the selected rung's bit/s/Hz (bits per
// symbol per stream), 0 below the lowest rung — the discrete analogue
// of log2(1+SINR), usable as a core.EvalOptions.Rate.
func (t *RateTable) Rate(sinr float64) float64 {
	i := t.pick(sinr)
	if i < 0 {
		return 0
	}
	return t.bits[i]
}

// Outage reports whether a packet sent at the rung selected from
// plannedSINR fails at realizedSINR: the modulation outran the channel.
// A packet whose planned SINR misses even the lowest rung cannot be
// sent and counts as an outage too.
func (t *RateTable) Outage(plannedSINR, realizedSINR float64) bool {
	i := t.pick(plannedSINR)
	return i < 0 || t.misses(realizedSINR, i)
}

// AchievedRate returns what a packet planned at plannedSINR actually
// delivers at realizedSINR: the planned rung's bits when the realized
// SINR clears its threshold, 0 on outage. Extra realized SNR never
// yields extra bits — the modulation was fixed at planning time.
func (t *RateTable) AchievedRate(plannedSINR, realizedSINR float64) float64 {
	i := t.pick(plannedSINR)
	if i < 0 || t.misses(realizedSINR, i) {
		return 0
	}
	return t.bits[i]
}

// AdaptedLinkWS is the 802.11-MIMO point-to-point link under the
// discrete table: eigenmode precoding and per-stream MCS selection run
// on the estimated channel (the CSI the transmitter actually has), while
// each stream's realized SINR is measured on the true channel with those
// estimated vectors — streams whose selected rung outruns the realized
// SINR deliver nothing. Returns the planned and achieved sum rates in
// bit/s/Hz. With hTrue == hEst (perfect CSI) achieved always equals
// planned. Its scratch lives in ws and is released before returning.
func AdaptedLinkWS(ws *cmplxmat.Workspace, t *RateTable, hTrue, hEst *cmplxmat.Matrix, totalPower, noise float64) (planned, achieved float64) {
	mark := ws.Mark()
	defer ws.Release(mark)
	p := EigenmodeWS(ws, hEst, totalPower, noise)
	// Hoist the true-channel response of each transmitted stream: d_j =
	// Htrue v_j is reused by every receive projection below. Streams
	// below the lowest rung are not sent at all (nil response): a
	// point-to-point transmitter simply omits them — unlike an IAC
	// slot, whose jointly-constructed packets stay on the air even when
	// unsendable (see testbed.Env.planOpts).
	dirs := make([]cmplxmat.Vector, len(p.Powers))
	for j, pj := range p.Powers {
		if pj <= 0 {
			continue
		}
		if t.pick(pj*p.Gains[j]) >= 0 {
			dirs[j] = hTrue.MulVecWS(ws, p.TxVectors[j])
		}
	}
	for i, pw := range p.Powers {
		if pw <= 0 || dirs[i] == nil {
			continue
		}
		rung := t.pick(pw * p.Gains[i]) // dirs[i] != nil implies a rung
		planned += t.bits[rung]
		// Realized per-stream SINR: the receiver projects the true
		// channel's output onto the estimated left singular vector, so
		// estimate error both attenuates the signal and leaks the other
		// streams' power in as inter-stream interference.
		sig := cmplxAbs2(p.RxVectors[i].Dot(dirs[i])) * pw
		interf := 0.0
		for j, pj := range p.Powers {
			if j == i || dirs[j] == nil {
				continue
			}
			interf += cmplxAbs2(p.RxVectors[i].Dot(dirs[j])) * pj
		}
		if sig/(noise+interf) >= t.minSINR[rung] {
			achieved += t.bits[rung]
		}
	}
	return planned, achieved
}

func cmplxAbs2(c complex128) float64 {
	return real(c)*real(c) + imag(c)*imag(c)
}

// AdaptedBestAPWS picks the AP with the highest planned discrete rate —
// the client associates by the CSI it has — and returns that link's
// planned and achieved rates, with its scratch in ws. trueChans and
// estChans must be parallel non-empty slices.
func AdaptedBestAPWS(ws *cmplxmat.Workspace, t *RateTable, trueChans, estChans []*cmplxmat.Matrix, totalPower, noise float64) (planned, achieved float64) {
	if len(trueChans) == 0 || len(trueChans) != len(estChans) {
		panic("mimo: AdaptedBestAPWS channel slices empty or mismatched")
	}
	best := -1.0
	for i := range estChans {
		p, a := AdaptedLinkWS(ws, t, trueChans[i], estChans[i], totalPower, noise)
		if p > best {
			best, planned, achieved = p, p, a
		}
	}
	return planned, achieved
}
