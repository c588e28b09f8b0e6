package iaclan

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md's per-experiment index), plus
// ablation benches for the design choices DESIGN.md calls out. Each
// figure benchmark runs the full experiment and reports the headline
// metric(s) via b.ReportMetric, so `go test -bench=.` regenerates the
// paper's rows next to ns/op. Run cmd/iacbench for the full rendered
// tables and CDFs.

import (
	"math/rand"
	"testing"

	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/exp"
	"iaclan/internal/mac"
	"iaclan/internal/mimo"
	"iaclan/internal/phy"
	"iaclan/internal/radio"
	"iaclan/internal/sig"
	"iaclan/internal/testbed"
)

// benchConfig is sized so a full -bench=. sweep finishes in minutes.
func benchConfig(seed int64) exp.Config {
	return exp.Config{Seed: seed, Trials: 20, Slots: 300, Runs: 1}
}

func runExpBench(b *testing.B, id string, metrics ...string) {
	b.Helper()
	var last exp.Result
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(id, benchConfig(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	for _, m := range metrics {
		if v, ok := last.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// BenchmarkFig12 regenerates the 2-client/2-AP uplink scatter
// (paper Fig. 12, average gain ~1.5x).
func BenchmarkFig12(b *testing.B) {
	runExpBench(b, "fig12", "gain_mean", "rate_iac_mean_bpshz", "rate_80211_mean_bpshz")
}

// BenchmarkFig13a regenerates the 3-client/3-AP uplink scatter
// (paper Fig. 13a, ~1.8x).
func BenchmarkFig13a(b *testing.B) {
	runExpBench(b, "fig13a", "gain_mean")
}

// BenchmarkFig13b regenerates the 3-client/3-AP downlink scatter
// (paper Fig. 13b, ~1.4x).
func BenchmarkFig13b(b *testing.B) {
	runExpBench(b, "fig13b", "gain_mean")
}

// BenchmarkFig14 regenerates the 1-client/2-AP diversity experiment
// (paper Fig. 14, ~1.2x, larger at low SNR).
func BenchmarkFig14(b *testing.B) {
	runExpBench(b, "fig14", "gain_mean", "gain_low_snr_half", "gain_high_snr_half")
}

// BenchmarkFig15a regenerates the uplink client-gain CDFs for the three
// concurrency algorithms (paper Fig. 15a: 2.32/1.90/2.08 means).
func BenchmarkFig15a(b *testing.B) {
	runExpBench(b, "fig15a", "gain_mean_brute_force", "gain_mean_fifo", "gain_mean_best_of_two")
}

// BenchmarkFig15b regenerates the downlink CDFs (paper Fig. 15b:
// 1.58/1.23/1.52 means).
func BenchmarkFig15b(b *testing.B) {
	runExpBench(b, "fig15b", "gain_mean_brute_force", "gain_mean_fifo", "gain_mean_best_of_two")
}

// BenchmarkFig16 regenerates the channel reciprocity error measurement
// (paper Fig. 16: fractional errors ~0.02-0.2).
func BenchmarkFig16(b *testing.B) {
	runExpBench(b, "fig16", "err_mean", "err_max")
}

// BenchmarkLemma51 checks the downlink DoF construction against
// max(2M-2, floor(3M/2)) for M=2..5 (paper Lemma 5.1).
func BenchmarkLemma51(b *testing.B) {
	runExpBench(b, "lemma51", "achieved_M2", "achieved_M3", "achieved_M4", "achieved_M5")
}

// BenchmarkLemma52 checks the uplink DoF construction against 2M for
// M=2..5 (paper Lemma 5.2).
func BenchmarkLemma52(b *testing.B) {
	runExpBench(b, "lemma52", "achieved_M2", "achieved_M3", "achieved_M4", "achieved_M5")
}

// BenchmarkFreqOffset checks Section 6(a) at the sample level: relative
// interference leak through the aligned projection under CFOs up to
// 2 kHz (should be ~0 while the I-Q constellation rotates by radians).
func BenchmarkFreqOffset(b *testing.B) {
	runExpBench(b, "freqoffset", "leak_rel_cfo2000Hz", "iq_rotation_rad_cfo2000Hz")
}

// BenchmarkMACOverhead quantifies the Section 7.1(e) metadata overhead.
func BenchmarkMACOverhead(b *testing.B) {
	runExpBench(b, "overhead", "overhead_3pairs_1440B")
}

// BenchmarkEthernetOverhead quantifies the Section 2(a) backend
// comparison against virtual MIMO.
func BenchmarkEthernetOverhead(b *testing.B) {
	runExpBench(b, "ethernet", "virtual_mimo_gbps", "reduction_factor")
}

// BenchmarkOFDMAlignment runs the Section 6(c) conjecture check:
// per-subcarrier alignment in frequency-selective channels.
func BenchmarkOFDMAlignment(b *testing.B) {
	runExpBench(b, "ofdm", "residual_near_moderate", "residual_far_moderate", "residual_persub_severe")
}

// BenchmarkAdHocClusters runs the conclusion's clustered-mesh scenario
// (Fig. 17): IAC on the inter-cluster bottleneck.
func BenchmarkAdHocClusters(b *testing.B) {
	runExpBench(b, "adhoc", "bottleneck_gain", "end_to_end_gain")
}

// ---------------------------------------------------------------------
// Micro-benchmarks: the primitive operations a production IAC stack runs
// per slot.

// BenchmarkSolveUplinkThree times the Eq. 2 alignment solve.
func BenchmarkSolveUplinkThree(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cs := core.RandomChannelSet(rng, 2, 2, 2, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveUplinkThree(cs, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveUplinkChainM3 times the six-packet Fig. 8 construction.
func BenchmarkSolveUplinkChainM3(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	cs := core.RandomChannelSet(rng, 3, 3, 3, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveUplinkChain(cs, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveDownlinkTriangle times the Eqs. 5-7 closed form.
func BenchmarkSolveDownlinkTriangle(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cs := core.RandomChannelSet(rng, 3, 3, 2, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SolveDownlinkTriangle(cs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEigenmode times the 802.11-MIMO baseline precoder on a warm
// workspace, reset each iteration.
func BenchmarkEigenmode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	h := cmplxmat.RandomGaussian(rng, 2, 2)
	ws := cmplxmat.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		mimo.EigenmodeWS(ws, h, 1, 0.01)
	}
}

// BenchmarkProjectDecode times the signal-level receive chain on a
// 1500-byte packet (projection + detection + CFO + demod + CRC).
func BenchmarkProjectDecode(b *testing.B) {
	p := channel.DefaultParams()
	p.CFOStdHz = 200
	w := channel.NewWorld(p, 5)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	m := radio.NewMedium(w, 1e6, 0.01, 6)
	est := phy.EstimateLink(m, tx, rx, 4)
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 1500)
	rng.Read(payload)
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	burst := radio.Burst{From: tx, Start: 10, Samples: phy.PrecodeFrame(payload, v, 1)}
	y := m.Receive(rx, burst.Len()+30, []radio.Burst{burst})
	dir := est.H.MulVec(v)
	wv := dir.Normalize()
	g := wv.Dot(dir)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := phy.Project(y, wv)
		if _, err := phy.DecodeProjected(z, g, len(payload), 1e6, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCancellation times signal-level reconstruct-and-subtract for
// a 1500-byte packet — the per-packet cost an AP pays per wire-shared
// packet (paper Section 9 notes it is linear and parallelizable).
func BenchmarkCancellation(b *testing.B) {
	w := channel.NewWorld(channel.DefaultParams(), 8)
	tx := w.AddNode(0, 0)
	rx := w.AddNode(4, 0)
	m := radio.NewMedium(w, 1e6, 0.001, 9)
	est := phy.EstimateLink(m, tx, rx, 4)
	rng := rand.New(rand.NewSource(10))
	payload := make([]byte, 1500)
	rng.Read(payload)
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	burst := radio.Burst{From: tx, Start: 0, Samples: phy.PrecodeFrame(payload, v, 1)}
	dur := burst.Len()
	y := m.Receive(rx, dur, []radio.Burst{burst})
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recon := phy.ReconstructAtReceiver(payload, v, 1, est.H, est.CFO, 1e6, 0, dur)
		phy.Cancel(y, recon)
	}
}

// BenchmarkModem times the scalar BPSK framing path.
func BenchmarkModem(b *testing.B) {
	payload := make([]byte, 1500)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		s := sig.FrameSamples(payload)
		bits := sig.DemodulateBPSK(s)
		if _, err := sig.DeframeBits(bits); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md): how much each design choice buys.

// BenchmarkAblationEstimationNoise sweeps channel-estimation quality and
// reports the IAC sum rate at each level — quantifying Section 8(a)'s
// claim that slight inaccuracy costs little.
func BenchmarkAblationEstimationNoise(b *testing.B) {
	for _, train := range []int{4, 16, 64, 256} {
		b.Run(trainName(train), func(b *testing.B) {
			rng := rand.New(rand.NewSource(11))
			sigma := channel.EstimationSigma(train)
			var rate float64
			n := 0
			for i := 0; i < b.N; i++ {
				cs := core.RandomChannelSet(rng, 2, 2, 2, 100)
				est := core.NewChannelSet(2, 2)
				for t := range cs {
					for r := range cs[t] {
						est[t][r] = channel.NoisyEstimate(cs[t][r], sigma, rng)
					}
				}
				plan, err := core.SolveUplinkThree(est, rng)
				if err != nil {
					continue
				}
				ev, err := plan.Evaluate(cs, est, 1, 0.01)
				if err != nil {
					continue
				}
				rate += ev.SumRate
				n++
			}
			if n > 0 {
				b.ReportMetric(rate/float64(n), "sumrate_bpshz")
			}
		})
	}
}

func trainName(n int) string {
	switch n {
	case 4:
		return "train4"
	case 16:
		return "train16"
	case 64:
		return "train64"
	default:
		return "train256"
	}
}

// BenchmarkAblationCandidates sweeps the picker's candidate count per
// slot position (1 = pure random, 2 = the paper's best-of-two, 4 = more
// search) and reports mean estimated group rate.
func BenchmarkAblationCandidates(b *testing.B) {
	world := channel.DefaultTestbed(12)
	scenario := testbed.PickScenario(world, 10, 3)
	rng := rand.New(rand.NewSource(13))
	est := func(group []mac.ClientID) float64 {
		// Synthetic but channel-derived score: sum of clients' best-AP
		// baseline rates (monotone proxy for group quality).
		var r float64
		for _, c := range group {
			r += testbed.BaselineUplinkRate(scenario, int(c))
		}
		return r
	}
	queue := make([]mac.ClientID, 10)
	for i := range queue {
		queue[i] = mac.ClientID(i)
	}
	for _, variant := range []struct {
		name   string
		picker mac.GroupPicker
	}{
		{"fifo_1choice", mac.FIFOPicker{}},
		{"best_of_two", mac.NewBestOfTwoPicker(14, 8)},
		{"brute_force", mac.BruteForcePicker{}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				// Rotate the head so all clients lead sometimes.
				rotated := append(queue[i%10:], queue[:i%10]...)
				g := variant.picker.PickGroup(rotated, 3, est)
				total += est(g)
			}
			b.ReportMetric(total/float64(b.N), "est_group_rate")
			_ = rng
		})
	}
}

// BenchmarkAblationCreditThreshold sweeps the best-of-two credit
// threshold and reports the fairness of the resulting service counts.
func BenchmarkAblationCreditThreshold(b *testing.B) {
	for _, thresh := range []int{2, 8, 32} {
		b.Run(threshName(thresh), func(b *testing.B) {
			// Client 9 is always the worst; count how often it is served.
			est := func(group []mac.ClientID) float64 {
				r := 0.0
				for _, c := range group {
					if c == 9 {
						r -= 5
					}
					r++
				}
				return r
			}
			picker := mac.NewBestOfTwoPicker(15, thresh)
			queue := make([]mac.ClientID, 10)
			for i := range queue {
				queue[i] = mac.ClientID(i)
			}
			served := 0
			rounds := 0
			for i := 0; i < b.N; i++ {
				rotated := append(queue[(i%9)+1:], queue[:(i%9)+1]...) // client 9 never head
				for _, c := range picker.PickGroup(rotated, 3, est) {
					if c == 9 {
						served++
					}
				}
				rounds++
			}
			if rounds > 0 {
				b.ReportMetric(float64(served)/float64(rounds), "worst_client_service_rate")
			}
		})
	}
}

func threshName(n int) string {
	switch n {
	case 2:
		return "credit2"
	case 8:
		return "credit8"
	default:
		return "credit32"
	}
}

// BenchmarkHubMem vs BenchmarkHubTCP compare the two backend transports
// shipping 1500-byte decoded packets between 3 APs.
func BenchmarkHubMem(b *testing.B) {
	benchHub(b, false)
}

// BenchmarkHubTCP measures the real loopback-TCP hub.
func BenchmarkHubTCP(b *testing.B) {
	benchHub(b, true)
}

func benchHub(b *testing.B, tcp bool) {
	b.Helper()
	payload := make([]byte, 1500)
	b.SetBytes(1500)
	b.ReportAllocs()
	if tcp {
		h, err := newTCPHubForBench()
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.PublishPacket(payload, uint32(i)); err != nil {
				b.Fatal(err)
			}
		}
		h.DrainAll(b.N)
		return
	}
	h := newMemHubForBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.PublishPacket(payload, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
	h.DrainAll(b.N)
}
