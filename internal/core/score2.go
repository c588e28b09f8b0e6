package core

import (
	"fmt"
	"math"

	"iaclan/internal/cmplxmat"
)

// score2Max bounds the plans score2WS runs on its fixed-size arrays: up
// to four packets in up to four decode steps, which covers every M = 2
// plan the solvers build (the chain's 2M = 4 packets over at most
// M + 2 = 4 APs, the two-AP three-packet uplink, the downlink triangle
// and the diversity plans). Larger plans take evaluateWS.
const score2Max = 4

// score2WS is ScoreWS at M = 2, and EvaluateWS with one set as both:
// evaluateWS on cs as both the true and the estimate set (the
// collapsed direction table), with the table, the amplitudes, the rate
// bounds, the residual list and the interferers in fixed-size local
// arrays, and the zero-forcing step on scalars (zf2).
// It runs evaluateWS's operations in evaluateWS's order:
//   - each direction through MulVecInto's kernel (Apply2), and each
//     interferer weighted by its amplitude as ScaleInto does;
//   - the same rate bounds and prune decisions, the same Rate and
//     Decodes calls in the same order;
//   - zfDecodingVectorWS's decoder, which zf2 computes in closed form
//     where zfDecodingVectorWS would, and takes from zfDecodingVectorWS
//     itself otherwise;
//   - each |w·d|^2 from the same products, and the (exactly zero)
//     cancellation leakage of a collapsed table added as evaluateWS adds
//     it, so a NaN or Inf power or decoder propagates alike.
//
// So it returns evaluateWS's bits, Products, Pruned flag and errors. The
// directions are pure functions of their channel and encoding, so it
// computes a table row only when a step first reads it, after the prune
// test of the step's first packet: a pruned evaluation skips the rows
// it never reaches (Products still counts the whole table, as
// evaluateWS's does). Only the returned rates and decoders live in the
// arena. cs must be checked and p validated against it, as ScoreWS
// does.
func (p *Plan) score2WS(ws *cmplxmat.Workspace, cs ChannelSet, opts EvalOptions) (Evaluation, error) {
	k := p.NumPackets()
	if k > score2Max || len(p.Schedule) > score2Max {
		return p.evaluateWS(ws, cs, cs, true, opts)
	}
	var powers [score2Max]float64
	p.packetPowersInto(powers[:k], opts.NodePower)
	var amps [score2Max]complex128
	for pkt, pw := range powers[:k] {
		amps[pkt] = complex(math.Sqrt(pw), 0)
	}

	// Table rows: the visited receivers in order of first visit; step i
	// reads row stepRow[i], and packet pkt is decoded at row pktRow[pkt].
	var rowRx, stepRow, pktRow [score2Max]int
	nrx := 0
	for i, step := range p.Schedule {
		r := 0
		for r < nrx && rowRx[r] != step.Rx {
			r++
		}
		if r == nrx {
			rowRx[r] = step.Rx
			nrx++
		}
		stepRow[i] = r
		for _, pkt := range step.Packets {
			pktRow[pkt] = r
		}
	}
	products := nrx * k

	// dir[r][pkt] is the packet's direction at row r's receiver.
	var dir [score2Max][score2Max][2]complex128
	direction := func(r, pkt int) {
		enc := p.Encoding[pkt]
		dir[r][pkt][0], dir[r][pkt][1] = cs[p.Owner[pkt]][rowRx[r]].Apply2(enc[0], enc[1])
	}

	noise := opts.Noise
	// bound[i] bounds the rate of the i-th packet in schedule order, from
	// the packet's direction at its own row.
	var bound [score2Max]float64
	prune := opts.Prune && noise > 0 && opts.NodePower > 0
	if prune {
		i := 0
		for si, step := range p.Schedule {
			for _, pkt := range step.Packets {
				direction(stepRow[si], pkt)
				d := &dir[stepRow[si]][pkt]
				bound[i] = opts.rateBound(powers[pkt], cmplxmat.Abs2(d[0])+cmplxmat.Abs2(d[1]), noise)
				i++
			}
		}
	}

	var filled, decoded [score2Max]bool
	var sinr, rate [score2Max]float64
	var dec [score2Max][2]complex128
	var residual [score2Max]int
	var ix, iy [score2Max]complex128 // the interferers' entries
	sum := 0.0
	pos := 0 // schedule position of the packet being decoded
	for si, step := range p.Schedule {
		r := stepRow[si]
		row := &dir[r]
		// Residual packets at this receiver: everything not cancelled.
		nRes := 0
		for pkt := range k {
			if p.Wired && decoded[pkt] {
				continue
			}
			residual[nRes] = pkt
			nRes++
		}
		for _, pkt := range step.Packets {
			if prune {
				ub := sum
				for _, b := range bound[pos:k] {
					ub += b
				}
				if ub <= opts.PruneAt {
					return Evaluation{Products: products, Pruned: true}, nil
				}
			}
			pos++
			if !filled[r] {
				// The rest of the row: with pruning on, the bounds
				// computed the row's own packets.
				for q := range k {
					if !prune || pktRow[q] != r {
						direction(r, q)
					}
				}
				filled[r] = true
			}
			nInt := 0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				a := &row[q]
				ix[nInt], iy[nInt] = cmplxmat.Mul(amps[q], a[0]), cmplxmat.Mul(amps[q], a[1])
				nInt++
			}
			s := &row[pkt]
			w0, w1, null, ok := zf2(s[0], s[1], ix[:nInt], iy[:nInt])
			if !ok {
				w0, w1, null = zf2General(ws, s[0], s[1], ix[:nInt], iy[:nInt])
			}
			if null {
				return Evaluation{Products: products}, fmt.Errorf("%w: no decoding vector for packet %d at rx %d", ErrInfeasible, pkt, step.Rx)
			}
			dec[pkt] = [2]complex128{w0, w1}

			sig := float64(power2(w0, w1, row[pkt]) * powers[pkt])
			interf := 0.0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				interf += float64(power2(w0, w1, row[q]) * powers[q])
			}
			if p.Wired {
				// The collapsed table's leakage direction is zero; its
				// gain is the same for every cancelled packet.
				leak := power2(w0, w1, [2]complex128{})
				for q := range k {
					if !decoded[q] {
						continue
					}
					interf += float64(leak * powers[q])
					if opts.ResidualCancel {
						interf += float64(power2(w0, w1, row[q])*powers[q]) / (1 + sinr[q])
					}
				}
			}
			sinr[pkt] = sig / (noise + interf)
			rate[pkt] = opts.rate(sinr[pkt])
			sum += rate[pkt]
		}
		for _, pkt := range step.Packets {
			if opts.Decodes == nil || opts.Decodes(pkt, sinr[pkt]) {
				decoded[pkt] = true
			}
		}
	}

	return evaluation2(ws, sum, products, sinr[:k], rate[:k], dec[:k]), nil
}

// measure2WS is EvaluateWS at M = 2 with distinct true and estimate
// sets, the winner's measurement, on fixed-size local arrays as
// score2WS scores: decoders from the estimates, signal and interference
// powers from the true channels, and the cancellation leakage from
// (true - est) v. It runs evaluateWS's operations in evaluateWS's
// order, as score2WS does (see there), with its three direction kinds:
// each est and true direction through Apply2, each leakage direction
// through SubApply2, which forms and applies the (true - est) matrix
// as SubInto and MulVecInto do, and the rate bound from the true
// direction. A measurement reads every table row, so the rows fill as
// the schedule first visits their receiver. So it returns evaluateWS's
// bits, Products (three per packet and visited receiver), Pruned flag
// and errors; a plan of more than four packets or decode steps takes
// evaluateWS. The sets and p must be checked against each other, as
// EvaluateWS does.
func (p *Plan) measure2WS(ws *cmplxmat.Workspace, trueCS, estCS ChannelSet, opts EvalOptions) (Evaluation, error) {
	k := p.NumPackets()
	if k > score2Max || len(p.Schedule) > score2Max {
		return p.evaluateWS(ws, trueCS, estCS, false, opts)
	}
	var powers [score2Max]float64
	p.packetPowersInto(powers[:k], opts.NodePower)
	var amps [score2Max]complex128
	for pkt, pw := range powers[:k] {
		amps[pkt] = complex(math.Sqrt(pw), 0)
	}

	// est, tru and leak[r][pkt] are the packet's est, true and leakage
	// directions at rowRx[r], the receivers in order of first visit;
	// step i reads row stepRow[i].
	var rowRx, stepRow [score2Max]int
	var est, tru, leak [score2Max][score2Max][2]complex128
	nrx := 0
	for i, step := range p.Schedule {
		r := 0
		for r < nrx && rowRx[r] != step.Rx {
			r++
		}
		if r == nrx {
			rowRx[r] = step.Rx
			for pkt, o := range p.Owner {
				e, t, enc := estCS[o][step.Rx], trueCS[o][step.Rx], p.Encoding[pkt]
				est[r][pkt][0], est[r][pkt][1] = e.Apply2(enc[0], enc[1])
				tru[r][pkt][0], tru[r][pkt][1] = t.Apply2(enc[0], enc[1])
				leak[r][pkt][0], leak[r][pkt][1] = t.SubApply2(e, enc[0], enc[1])
			}
			nrx++
		}
		stepRow[i] = r
	}
	products := nrx * k * numKinds

	noise := opts.Noise
	var bound [score2Max]float64
	prune := opts.Prune && noise > 0 && opts.NodePower > 0
	if prune {
		i := 0
		for si, step := range p.Schedule {
			for _, pkt := range step.Packets {
				d := &tru[stepRow[si]][pkt]
				bound[i] = opts.rateBound(powers[pkt], cmplxmat.Abs2(d[0])+cmplxmat.Abs2(d[1]), noise)
				i++
			}
		}
	}

	var decoded [score2Max]bool
	var sinr, rate [score2Max]float64
	var dec [score2Max][2]complex128
	var residual [score2Max]int
	var ix, iy [score2Max]complex128 // the interferers' entries
	sum := 0.0
	pos := 0 // schedule position of the packet being decoded
	for si, step := range p.Schedule {
		r := stepRow[si]
		nRes := 0
		for pkt := range k {
			if p.Wired && decoded[pkt] {
				continue
			}
			residual[nRes] = pkt
			nRes++
		}
		for _, pkt := range step.Packets {
			if prune {
				ub := sum
				for _, b := range bound[pos:k] {
					ub += b
				}
				if ub <= opts.PruneAt {
					return Evaluation{Products: products, Pruned: true}, nil
				}
			}
			pos++
			nInt := 0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				a := &est[r][q]
				ix[nInt], iy[nInt] = cmplxmat.Mul(amps[q], a[0]), cmplxmat.Mul(amps[q], a[1])
				nInt++
			}
			s := &est[r][pkt]
			w0, w1, null, ok := zf2(s[0], s[1], ix[:nInt], iy[:nInt])
			if !ok {
				w0, w1, null = zf2General(ws, s[0], s[1], ix[:nInt], iy[:nInt])
			}
			if null {
				return Evaluation{Products: products}, fmt.Errorf("%w: no decoding vector for packet %d at rx %d", ErrInfeasible, pkt, step.Rx)
			}
			dec[pkt] = [2]complex128{w0, w1}

			sig := float64(power2(w0, w1, tru[r][pkt]) * powers[pkt])
			interf := 0.0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				interf += float64(power2(w0, w1, tru[r][q]) * powers[q])
			}
			if p.Wired {
				for q := range k {
					if !decoded[q] {
						continue
					}
					interf += float64(power2(w0, w1, leak[r][q]) * powers[q])
					if opts.ResidualCancel {
						interf += float64(power2(w0, w1, tru[r][q])*powers[q]) / (1 + sinr[q])
					}
				}
			}
			sinr[pkt] = sig / (noise + interf)
			rate[pkt] = opts.rate(sinr[pkt])
			sum += rate[pkt]
		}
		for _, pkt := range step.Packets {
			if opts.Decodes == nil || opts.Decodes(pkt, sinr[pkt]) {
				decoded[pkt] = true
			}
		}
	}
	return evaluation2(ws, sum, products, sinr[:k], rate[:k], dec[:k]), nil
}

// evaluation2 returns an M = 2 evaluation with its SINRs, rates and
// decoders copied into the arena.
func evaluation2(ws *cmplxmat.Workspace, sum float64, products int, sinr, rate []float64, dec [][2]complex128) Evaluation {
	k := len(sinr)
	f := ws.Floats(2 * k)
	ev := Evaluation{
		SINR:       f[:k:k],
		PacketRate: f[k:],
		SumRate:    sum,
		Decoding:   ws.Vectors(k),
		Products:   products,
	}
	copy(ev.SINR, sinr)
	copy(ev.PacketRate, rate)
	w := ws.Complexes(2 * k)
	for pkt, d := range dec {
		v := cmplxmat.Vector(w[2*pkt : 2*pkt+2 : 2*pkt+2])
		v[0], v[1] = d[0], d[1]
		ev.Decoding[pkt] = v
	}
	return ev
}

// power2 is cmplxAbs2(w.Dot(d)) for 2-vectors, every product rounded.
// Vector.Dot starts its sum from zero, which can change only the sign of
// a zero part, and the square does not see that.
func power2(w0, w1 complex128, d [2]complex128) float64 {
	return cmplxmat.Abs2(cmplxmat.Inner2(w0, w1, d[0], d[1]))
}

// zf2 is zfDecodingVectorWS at M = 2 on scalars, for the signal
// direction s and the interferers with first entries ix and second
// entries iy: the matched filter for none, cmplxmat.ZeroForce2 against
// the one interferer or, unless the signal's squared norm is zero,
// against the leading vector of two or more (cmplxmat.Leading2). null
// reports that there is no decoder. ok is
// false, and the caller must run zfDecodingVectorWS (zf2General), when
// zfDecodingVectorWS would not take these closed forms.
func zf2(s0, s1 complex128, ix, iy []complex128) (w0, w1 complex128, null, ok bool) {
	switch len(ix) {
	case 0:
		// Vector.NormalizeWS: the norm's squares rounded and summed in
		// order, and the entries scaled by its reciprocal.
		n := math.Sqrt(cmplxmat.Abs2(s0) + cmplxmat.Abs2(s1))
		if n == 0 {
			return 0, 0, true, true
		}
		inv := complex(1/n, 0)
		return cmplxmat.Mul(inv, s0), cmplxmat.Mul(inv, s1), false, true
	case 1:
		return cmplxmat.ZeroForce2(ix[0], iy[0], s0, s1, 1e-9)
	}
	if cmplxmat.Abs2(s0)+cmplxmat.Abs2(s1) == 0 {
		// zfDecodingVectorWS's zero-norm test, which comes before the
		// leading vector: a signal whose squares underflow has none.
		return 0, 0, true, true
	}
	a0, a1, ok := cmplxmat.Leading2(ix, iy, 1e-12)
	if !ok {
		return 0, 0, false, false
	}
	return cmplxmat.ZeroForce2(a0, a1, s0, s1, 1e-9)
}

// zf2General runs zfDecodingVectorWS on the arena for an input zf2
// declines; null reports a nil decoder.
func zf2General(ws *cmplxmat.Workspace, s0, s1 complex128, ix, iy []complex128) (w0, w1 complex128, null bool) {
	sig := ws.Vector(2)
	sig[0], sig[1] = s0, s1
	interf := ws.Vectors(len(ix))
	for j := range interf {
		interf[j] = ws.Vector(2)
		interf[j][0], interf[j][1] = ix[j], iy[j]
	}
	w := zfDecodingVectorWS(ws, sig, interf, 2)
	if w == nil {
		return 0, 0, true
	}
	return w[0], w[1], false
}
