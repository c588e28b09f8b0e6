package testbed

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/phy"
	"iaclan/internal/radio"
	"iaclan/internal/sig"
	"iaclan/internal/stats"
)

// The sample plane as the slot evaluator's test oracle. The evaluator
// (core.Plan.EvaluateWS) predicts each packet's SINR algebraically. The
// paper's mechanism is a chain of samples: precode, transmit through the
// channels with carrier offsets and receiver noise, project on the
// decoding vector, decode, ship the decoded packet over the wire, then
// reconstruct and subtract it at the next AP. These tests run that chain
// on slots the planner (planSlot) produced, with the plan's encoders,
// decoders and schedule, and compare each packet's SINR, measured from
// the known transmitted symbols, with the evaluator's exact-cancellation
// prediction.

const (
	oracleRate = 1e6 // sample rate, Hz
	// oraclePayload is each packet's payload in bytes, an Ethernet MTU:
	// 12,064-sample frames, of which about 12,000 samples fall in the
	// window every packet of the slot is on the air (airSlot.window).
	oraclePayload = 1500
	// oracleTolDB bounds |measured - predicted| per packet. The
	// measurement's own spread is far inside it: the interference-plus-
	// noise power is a mean over n ≈ 12,000 samples, so its relative
	// standard deviation is 1/sqrt(n) ≈ 0.9%, 0.04 dB, and the fitted
	// signal gain adds a bias of order 1/n. A packet decoded after
	// cancellations may fall further short, by the canceller's
	// sample-count term (fitSlackDB).
	oracleTolDB = 0.5
	// fitTail is how many times its mean the canceller's fit residue may
	// reach. The fit error of a least-squares scale is complex Gaussian,
	// so its power is exponential and exceeds fitTail times its mean with
	// probability e^-5 < 1%.
	fitTail = 5
)

// oracleSlot is one slot planSlot planned, with the nodes and channel
// sets in the plan's own transmitter and receiver order: plan
// transmitter i is node tx[i], receiver j is node rx[j].
type oracleSlot struct {
	s             Scenario
	plan          *core.Plan
	tx, rx        []*channel.Node
	trueCS, estCS core.ChannelSet
	powers        []float64       // per-packet transmit power
	predict       core.Evaluation // the evaluator's exact-cancellation prediction
}

// planOracleSlot plans one slot through planSlot on a fresh survey and
// recovers the role assignment the planner chose: the uplink client
// order is fixed by role, and the receiver (uplink) or transmitter
// (downlink) permutation is the one under which the evaluator reproduces
// the slot's sum rate bit for bit.
func planOracleSlot(t *testing.T, s Scenario, downlink bool, role int, seed int64) oracleSlot {
	t.Helper()
	ws := phy.NewWorkspace()
	cache := NewSlotCache(s)
	rng := rand.New(rand.NewSource(seed))
	var out SlotOutcome
	var err error
	if downlink {
		out, err = RunDownlinkSlotWS(ws, cache, s, rng)
	} else {
		out, err = RunUplinkSlotWS(ws, cache, s, role, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	plan := out.Plan.Clone()
	txBase, rxBase, perms := s.APs, s.Clients, permutations(len(s.APs))
	if !downlink {
		txBase = []*channel.Node{s.Clients[role]}
		for i, c := range s.Clients {
			if i != role {
				txBase = append(txBase, c)
			}
		}
		rxBase, perms = s.APs, rxOrders(len(s.APs))
	}
	for _, perm := range perms {
		tx, rx := txBase, rxBase
		if downlink {
			tx = permuteNodes(txBase, perm)
		} else {
			rx = permuteNodes(rxBase, perm)
		}
		trueCS := core.NewChannelSet(len(tx), len(rx))
		estCS := core.NewChannelSet(len(tx), len(rx))
		for i, a := range tx {
			for j, b := range rx {
				trueCS[i][j] = s.World.Channel(a, b)
				// A cache hit: the survey's estimate, drawing nothing.
				estCS[i][j] = cache.Estimated(a, b, rng).Clone()
			}
		}
		ev, err := plan.Evaluate(trueCS, estCS, NodePower, s.Env.Noise())
		if err != nil || ev.SumRate != out.SumRate {
			continue
		}
		powers := make([]float64, plan.NumPackets())
		for pkt, o := range plan.Owner {
			n := 0
			for _, q := range plan.Owner {
				if q == o {
					n++
				}
			}
			powers[pkt] = NodePower / float64(n)
		}
		return oracleSlot{s: s, plan: plan, tx: tx, rx: rx, trueCS: trueCS, estCS: estCS, powers: powers, predict: ev}
	}
	t.Fatal("no role assignment reproduces the planned slot's sum rate")
	return oracleSlot{}
}

func permuteNodes(nodes []*channel.Node, perm []int) []*channel.Node {
	out := make([]*channel.Node, len(perm))
	for i, p := range perm {
		out[i] = nodes[p]
	}
	return out
}

// airSlot is one transmission of a slot: random payloads, the
// transmitters' unsynchronized start samples, and what every receiver
// observed.
type airSlot struct {
	payload [][]byte
	start   []int            // per transmitter
	rx      [][][]complex128 // per receiver [antenna][sample]
}

// transmit puts the slot on the air: each transmitter sends the sum of
// its packets' frames, each precoded along its encoding vector at its
// share of the node's power, keying up five samples after the one
// before it. Every receiver observes the superposition through the
// world's channels and carrier offsets, plus the scenario's noise.
func (o *oracleSlot) transmit(seed int64) airSlot {
	rng := rand.New(rand.NewSource(seed))
	plan := o.plan
	air := airSlot{payload: make([][]byte, plan.NumPackets()), start: make([]int, len(o.tx))}
	frameLen := sig.FrameLenBits(oraclePayload)
	var bursts []radio.Burst
	dur := 0
	for i, node := range o.tx {
		air.start[i] = 8 + 5*i
		x := make([][]complex128, node.Antennas)
		for a := range x {
			x[a] = make([]complex128, frameLen)
		}
		for pkt, owner := range plan.Owner {
			if owner != i {
				continue
			}
			air.payload[pkt] = make([]byte, oraclePayload)
			rng.Read(air.payload[pkt])
			f := phy.PrecodeFrame(air.payload[pkt], plan.Encoding[pkt], math.Sqrt(o.powers[pkt]))
			for a := range x {
				for t := range x[a] {
					x[a][t] += f[a][t]
				}
			}
		}
		bursts = append(bursts, radio.Burst{From: node, Start: air.start[i], Samples: x})
		dur = max(dur, air.start[i]+frameLen+8)
	}
	m := radio.NewMedium(o.s.World, oracleRate, o.s.Env.Noise(), seed)
	air.rx = make([][][]complex128, len(o.rx))
	for j, node := range o.rx {
		air.rx[j] = m.Receive(node, dur, bursts)
	}
	return air
}

// window is the sample range in which every packet's payload and CRC
// are on the air together: the interference the evaluator assumes.
func (a *airSlot) window() (lo, hi int) {
	return slices.Max(a.start) + sig.PreambleBits, slices.Min(a.start) + sig.FrameLenBits(oraclePayload)
}

// packetResult is one packet through the sample plane.
type packetResult struct {
	pkt                 int
	predicted, measured float64 // linear SINR
	// fitSlackDB is how much further than oracleTolDB the measurement
	// may fall short of the prediction (see fitTerm).
	fitSlackDB float64
	decoded    bool // DecodeProjected returned the sent payload
}

// cancellation is one reconstruct-and-subtract at a receiver: the
// packet, and what the canceller removed from the receiver's samples.
type cancellation struct {
	pkt, rx int
	removed [][]complex128
}

// receive runs the plan's decode schedule on the received samples with
// the given decoding vectors. On a wired plan each receiver first
// subtracts every packet decoded at an earlier step through
// phy.CancelWithJitterSearch, reconstructing it from the payload that
// came over the wire, its encoding vector and power, the receiver's
// channel estimate and the pair's carrier offset. A packet that failed
// its CRC is shipped as sent: the exact-cancellation prediction cancels
// every earlier packet, and the decode check reports the failure.
func (o *oracleSlot) receive(air airSlot, decoders []cmplxmat.Vector) ([]packetResult, []cancellation) {
	plan := o.plan
	lo, hi := air.window()
	wire := make([][]byte, plan.NumPackets())
	var done []int
	var out []packetResult
	var cancels []cancellation
	for _, step := range plan.Schedule {
		y := air.rx[step.Rx]
		var fits []fitTerm
		if plan.Wired {
			for _, q := range done {
				owner := plan.Owner[q]
				amp := math.Sqrt(o.powers[q])
				hEst := o.estCS[owner][step.Rx]
				res, _ := phy.CancelWithJitterSearch(y, wire[q], plan.Encoding[q], amp,
					hEst, o.s.World.CFO(o.tx[owner], o.rx[step.Rx]), oracleRate, air.start[owner], 0)
				removed := make([][]complex128, len(y))
				for a := range y {
					removed[a] = make([]complex128, len(y[a]))
					for t := range y[a] {
						removed[a][t] = y[a][t] - res[a][t]
					}
				}
				cancels = append(cancels, cancellation{pkt: q, rx: step.Rx, removed: removed})
				fits = append(fits, newFitTerm(res, hEst.MulVec(plan.Encoding[q]).Scale(complex(amp, 0)), air.start[owner]))
				y = res
			}
		}
		for _, pkt := range step.Packets {
			owner := plan.Owner[pkt]
			w := decoders[pkt]
			z := phy.Project(y, w)
			cfo := o.s.World.CFO(o.tx[owner], o.rx[step.Rx])
			measured := measureSINR(z, sig.FrameSamples(air.payload[pkt]), air.start[owner], cfo, lo, hi)
			amp := complex(math.Sqrt(o.powers[pkt]), 0)
			gEst := w.Dot(o.estCS[owner][step.Rx].MulVec(plan.Encoding[pkt])) * amp
			dec, err := phy.DecodeProjected(z, gEst, oraclePayload, oracleRate, 0.5)
			ok := err == nil && bytes.Equal(dec.Payload, air.payload[pkt])
			wire[pkt] = air.payload[pkt]
			if ok {
				wire[pkt] = dec.Payload
			}
			// The predicted interference plus noise is S / SINR, with S
			// the true received signal power on w.
			sigPow := abs2(w.Dot(o.trueCS[owner][step.Rx].MulVec(plan.Encoding[pkt]))) * o.powers[pkt]
			out = append(out, packetResult{
				pkt:        pkt,
				predicted:  o.predict.SINR[pkt],
				measured:   measured,
				fitSlackDB: fitSlackDB(fits, w, sigPow/o.predict.SINR[pkt]),
				decoded:    ok,
			})
		}
		done = append(done, step.Packets...)
	}
	return out, cancels
}

// fitTerm is the sample-count term of one cancellation. The canceller
// subtracts alpha times its reconstruction r[t] = rbar s[t], with alpha
// the least-squares fit over the frame's n samples, in which the rest
// of the slot (every packet still on the air, and the noise) is the
// fit's noise. The fit's error then has variance
//
//	sum_a |rbar_a|^2 E_a / (n |rbar|^2)^2,
//
// with E_a the rest's energy on antenna a over the frame, read from the
// residual, and leaves |w^H rbar|^2 times that variance of power, on
// average, on a later decoding vector w. The evaluator subtracts the
// reconstruction at alpha = 1 and charges nothing for it.
type fitTerm struct {
	rbar     cmplxmat.Vector
	variance float64
}

func newFitTerm(res [][]complex128, rbar cmplxmat.Vector, start int) fitTerm {
	n := sig.FrameLenBits(oraclePayload)
	var num float64
	for a := range res {
		var e float64
		for t := start; t < start+n; t++ {
			e += abs2(res[a][t])
		}
		num += abs2(rbar[a]) * e
	}
	d := float64(n) * abs2(complex(rbar.Norm(), 0))
	return fitTerm{rbar: rbar, variance: num / (d * d)}
}

// fitSlackDB is the extra shortfall a packet decoded on w after the
// given fits may show against a prediction whose interference plus
// noise is ni: fitTail times the fits' mean residue, in dB.
func fitSlackDB(fits []fitTerm, w cmplxmat.Vector, ni float64) float64 {
	var leak float64
	for _, f := range fits {
		leak += abs2(w.Dot(f.rbar)) * f.variance
	}
	return stats.DB(1 + fitTail*leak/ni)
}

// measureSINR measures a packet's SINR in the projected stream z from
// its known frame samples s, sent from sample start and rotated by the
// pair's carrier offset: over [lo, hi) it fits the complex gain g of the
// reference r (least squares) and divides the signal power |g|^2 by the
// mean power of what is left, z - g r: interference, cancellation
// residue and noise.
func measureSINR(z, s []complex128, start int, cfoHz float64, lo, hi int) float64 {
	ref := make([]complex128, hi-lo)
	var num complex128
	var den float64
	for t := lo; t < hi; t++ {
		r := onAir(s, start, cfoHz, t)
		ref[t-lo] = r
		num += cmplx.Conj(r) * z[t]
		den += abs2(r)
	}
	g := num / complex(den, 0)
	var e float64
	for t := lo; t < hi; t++ {
		e += abs2(z[t] - g*ref[t-lo])
	}
	return abs2(g) * den / e
}

// onAir is frame sample s[t-start] at receive sample t, rotated by the
// pair's carrier offset as radio.Medium rotates it.
func onAir(s []complex128, start int, cfoHz float64, t int) complex128 {
	w := 2 * math.Pi * cfoHz / oracleRate
	return s[t-start] * complex(math.Cos(w*float64(t)), math.Sin(w*float64(t)))
}

func abs2(c complex128) float64 { return real(c)*real(c) + imag(c)*imag(c) }

// disagreement returns an error naming every packet whose measured SINR
// is more than oracleTolDB above the prediction, or more than
// oracleTolDB plus its fitSlackDB below it.
func disagreement(res []packetResult) error {
	var bad []string
	for _, r := range res {
		d := stats.DB(r.measured) - stats.DB(r.predicted)
		if d > oracleTolDB || d < -oracleTolDB-r.fitSlackDB {
			bad = append(bad, fmt.Sprintf("packet %d: measured %.2f dB, predicted %.2f dB (slack %.2f dB)",
				r.pkt, stats.DB(r.measured), stats.DB(r.predicted), r.fitSlackDB))
		}
	}
	if bad != nil {
		return fmt.Errorf("%d packets off the prediction: %v", len(bad), bad)
	}
	return nil
}

// bpskThreshold is the SINR above which an uncoded BPSK frame of
// oraclePayload bytes must arrive intact: where its expected bit errors,
// the frame length times Q(sqrt(2 SINR)) = erfc(sqrt(SINR))/2, fall to
// 1e-3, plus 1 dB for the receiver's own estimates (the preamble's
// carrier offset, the phase-tracking loop, the gain from the estimated
// channel).
func bpskThreshold() float64 {
	bits := float64(sig.FrameLenBits(oraclePayload))
	lo, hi := 1.0, 100.0
	for range 60 {
		mid := (lo + hi) / 2
		if bits*math.Erfc(math.Sqrt(mid))/2 > 1e-3 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi * math.Pow(10, 0.1)
}

type oracleCase struct {
	name            string
	m               int
	downlink        bool
	clients, aps    int
	worldSeed, seed int64
}

// oracleCases are the shapes the planner runs: the uplink 2x2 (three
// packets) and the 3x3 chain, and the downlink triangle, at M = 2 and 3.
var oracleCases = []oracleCase{
	{"uplink2x2/M2", 2, false, 2, 2, 31, 1},
	{"uplink3x3/M2", 2, false, 3, 3, 32, 2},
	{"downlink3x3/M2", 2, true, 3, 3, 33, 3},
	{"uplink2x2/M3", 3, false, 2, 2, 34, 4},
	{"uplink3x3/M3", 3, false, 3, 3, 35, 5},
	{"downlink3x3/M3", 3, true, 3, 3, 36, 6},
}

// scenario picks the case's nodes from a 20-node testbed world of M
// antennas per node, at noise power noise (0: the unit convention).
func (c oracleCase) scenario(noise float64) Scenario {
	p := channel.DefaultParams()
	p.Antennas = c.m
	s := PickScenario(channel.NewTestbed(p, c.worldSeed, 20, 12), c.clients, c.aps)
	s.Env.NoisePower = noise
	return s
}

// TestSamplePlaneMatchesEvaluator is the evaluator's differential test:
// every packet of every planned slot lands within the bound of its
// predicted SINR, and every packet predicted above the BPSK threshold
// decodes with its CRC intact. A plan with one decoding vector bent
// toward an interferer must fail the comparison.
func TestSamplePlaneMatchesEvaluator(t *testing.T) {
	threshold := bpskThreshold()
	for _, c := range oracleCases {
		t.Run(c.name, func(t *testing.T) {
			o := planOracleSlot(t, c.scenario(0), c.downlink, 0, c.seed)
			res, _ := o.receive(o.transmit(c.seed+100), o.predict.Decoding)
			if len(res) != o.plan.NumPackets() {
				t.Fatalf("%d packets received, plan has %d", len(res), o.plan.NumPackets())
			}
			above := 0
			for _, r := range res {
				t.Logf("packet %d: predicted %.2f dB, measured %.2f dB, slack %.2f dB, decoded %v",
					r.pkt, stats.DB(r.predicted), stats.DB(r.measured), r.fitSlackDB, r.decoded)
				if r.predicted >= threshold {
					above++
					if !r.decoded {
						t.Errorf("packet %d predicted at %.2f dB, above the %.2f dB BPSK threshold, did not decode intact",
							r.pkt, stats.DB(r.predicted), stats.DB(threshold))
					}
				}
			}
			if above == 0 {
				t.Error("no packet above the BPSK threshold: the decode check is empty")
			}
			if err := disagreement(res); err != nil {
				t.Error(err)
			}
		})
	}

	t.Run("perturbedDecoderFails", func(t *testing.T) {
		c := oracleCases[1]
		o := planOracleSlot(t, c.scenario(0), c.downlink, 0, c.seed)
		// The chain's first receiver decodes packet 0 against every
		// other packet of the slot, aligned. Bend its decoder toward the
		// strongest of them.
		step := o.plan.Schedule[0]
		pkt := step.Packets[0]
		var worst cmplxmat.Vector
		for q, owner := range o.plan.Owner {
			if q == pkt {
				continue
			}
			d := o.estCS[owner][step.Rx].MulVec(o.plan.Encoding[q]).Scale(complex(math.Sqrt(o.powers[q]), 0))
			if worst == nil || d.Norm() > worst.Norm() {
				worst = d
			}
		}
		decoders := slices.Clone(o.predict.Decoding)
		w := decoders[pkt].Clone()
		u := worst.Normalize()
		for i := range w {
			w[i] += 0.3 * u[i]
		}
		decoders[pkt] = w.Normalize()
		res, _ := o.receive(o.transmit(c.seed+100), decoders)
		err := disagreement(res)
		if err == nil {
			t.Fatal("a decoder bent toward an interferer passed the comparison")
		}
		t.Log(err)
	})
}

// TestSamplePlaneCancelResidual reports, without a bound, what the
// sample plane leaves of a packet it cancels with estimated channels,
// across the receiver-noise operating point, next to the 1/(1+γ)
// reconstruction charge of the evaluator's ResidualCancel model (γ the
// cancelled packet's predicted SINR). The leftover is the cancelled
// packet's true received signal minus what the canceller removed, over
// the packet's frame, as a fraction of that signal's energy. Run with
// -v to read the table (DESIGN.md, "The SNR-aware link plane").
func TestSamplePlaneCancelResidual(t *testing.T) {
	for _, noiseDB := range []float64{0, 6, 12, 18} {
		var left, charge []float64
		for _, c := range oracleCases {
			if c.downlink {
				continue
			}
			o := planOracleSlot(t, c.scenario(math.Pow(10, noiseDB/10)), false, 0, c.seed)
			air := o.transmit(c.seed + 100)
			_, cancels := o.receive(air, o.predict.Decoding)
			for _, cn := range cancels {
				owner := o.plan.Owner[cn.pkt]
				hv := o.trueCS[owner][cn.rx].MulVec(o.plan.Encoding[cn.pkt]).Scale(complex(math.Sqrt(o.powers[cn.pkt]), 0))
				cfo := o.s.World.CFO(o.tx[owner], o.rx[cn.rx])
				s := sig.FrameSamples(air.payload[cn.pkt])
				start := air.start[owner]
				var sigE, leftE float64
				for n := start; n < start+len(s); n++ {
					x := onAir(s, start, cfo, n)
					for a := range hv {
						rx := hv[a] * x
						sigE += abs2(rx)
						leftE += abs2(rx - cn.removed[a][n])
					}
				}
				left = append(left, leftE/sigE)
				charge = append(charge, 1/(1+o.predict.SINR[cn.pkt]))
			}
		}
		slices.Sort(left)
		slices.Sort(charge)
		t.Logf("NoiseDB %2.0f: %d cancellations, leftover median %.2f dB (range %.2f to %.2f dB), 1/(1+γ) median %.2f dB (range %.2f to %.2f dB)",
			noiseDB, len(left), stats.DB(left[len(left)/2]), stats.DB(left[0]), stats.DB(left[len(left)-1]),
			stats.DB(charge[len(charge)/2]), stats.DB(charge[0]), stats.DB(charge[len(charge)-1]))
	}
}
