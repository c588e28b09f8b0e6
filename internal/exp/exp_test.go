package exp

import (
	"strings"
	"testing"
)

// QuickConfig is a scaled-down configuration for unit tests, the sizes
// of `iacbench -trials 8 -slots 120 -runs 1`.
func QuickConfig() Config {
	return Config{Seed: 1, Trials: 8, Slots: 120, Runs: 1}
}

func TestRegistryCoversDesignIndex(t *testing.T) {
	want := []string{
		"fig12", "fig13a", "fig13b", "fig14", "fig15a", "fig15b",
		"fig16", "lemma51", "lemma52", "freqoffset", "overhead", "ethernet",
		"ofdm", "adhoc", "loadsweep", "coherence", "snrsweep", "scaleup",
		"stream",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s want %s", i, reg[i].ID, id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", QuickConfig()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestResultString(t *testing.T) {
	r := Result{ID: "x", Title: "t", PaperClaim: "c", Metrics: map[string]float64{"a": 1}, Notes: "n"}
	s := r.String()
	for _, frag := range []string{"x", "t", "c", "a", "n"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("missing %q in %q", frag, s)
		}
	}
	if r.Metric("a") == "n/a" || r.Metric("zz") != "n/a" {
		t.Fatal("Metric formatting")
	}
}

func TestFig12ShapeHolds(t *testing.T) {
	cfg := QuickConfig()
	cfg.Trials = 20
	r, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Metrics["gain_mean"]
	// Paper: 1.5x. Shape requirement: clearly above 1, below 2.
	if g < 1.1 || g > 2.0 {
		t.Fatalf("fig12 gain %v outside plausible band", g)
	}
	if r.Metrics["trials"] < 10 {
		t.Fatalf("too few successful trials: %v", r.Metrics["trials"])
	}
}

func TestFig13aShapeHolds(t *testing.T) {
	cfg := QuickConfig()
	cfg.Trials = 15
	r, err := Fig13a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Metrics["gain_mean"]
	// Paper: 1.8x; must also exceed the 2x2 system's nominal multiplexing.
	if g < 1.4 || g > 2.6 {
		t.Fatalf("fig13a gain %v outside plausible band", g)
	}
}

func TestFig13bShapeHolds(t *testing.T) {
	cfg := QuickConfig()
	cfg.Trials = 15
	r, err := Fig13b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Metrics["gain_mean"]
	// Paper: 1.4x on the downlink, below the uplink gain.
	if g < 1.15 || g > 2.0 {
		t.Fatalf("fig13b gain %v outside plausible band", g)
	}
}

func TestUplinkGainExceedsDownlink(t *testing.T) {
	cfg := QuickConfig()
	cfg.Trials = 15
	up, err := Fig13a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	down, err := Fig13b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if up.Metrics["gain_mean"] <= down.Metrics["gain_mean"] {
		t.Fatalf("uplink gain %v should exceed downlink %v (cancellation helps only the uplink)",
			up.Metrics["gain_mean"], down.Metrics["gain_mean"])
	}
}

func TestFig14ShapeHolds(t *testing.T) {
	cfg := QuickConfig()
	cfg.Trials = 25
	r, err := Fig14(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Metrics["gain_mean"]
	// Paper: ~1.2x pure diversity gain; selection can never lose much.
	if g < 1.0 || g > 1.6 {
		t.Fatalf("fig14 gain %v outside plausible band", g)
	}
}

func TestFig15aShapeHolds(t *testing.T) {
	cfg := QuickConfig()
	r, err := Fig15a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	brute := r.Metrics["gain_mean_brute_force"]
	fifo := r.Metrics["gain_mean_fifo"]
	best := r.Metrics["gain_mean_best_of_two"]
	// Every algorithm gains over 802.11-MIMO.
	for name, g := range map[string]float64{"brute": brute, "fifo": fifo, "best": best} {
		if g < 1.2 {
			t.Fatalf("%s gain %v too low", name, g)
		}
	}
	// Ordering: brute force highest mean, FIFO lowest.
	if !(brute >= best && best >= fifo*0.95) {
		t.Fatalf("gain ordering violated: brute %v best %v fifo %v", brute, best, fifo)
	}
	// Fairness: brute force leaves clients below 1x; best-of-two and FIFO
	// keep (nearly) everyone above.
	if r.Metrics["frac_below_1_brute_force"] <= 0 {
		t.Fatal("brute force unexpectedly fair")
	}
	if r.Metrics["frac_below_1_best_of_two"] > 0.15 {
		t.Fatalf("best-of-two starved %v of clients", r.Metrics["frac_below_1_best_of_two"])
	}
	if r.Metrics["jain_brute_force"] >= r.Metrics["jain_best_of_two"] {
		t.Fatal("brute force should be less fair than best-of-two")
	}
}

func TestFig15bShapeHolds(t *testing.T) {
	cfg := QuickConfig()
	r, err := Fig15b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"brute_force", "fifo", "best_of_two"} {
		if g := r.Metrics["gain_mean_"+name]; g < 1.0 {
			t.Fatalf("%s downlink gain %v below 1", name, g)
		}
	}
	if r.Metrics["jain_best_of_two"] <= r.Metrics["jain_brute_force"] {
		t.Fatal("fairness ordering violated on downlink")
	}
}

func TestFig16ShapeHolds(t *testing.T) {
	r, err := Fig16(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["pairs"] < 15 {
		t.Fatalf("pairs %v", r.Metrics["pairs"])
	}
	// Paper: small fractional errors despite movement.
	if r.Metrics["err_mean"] > 0.25 {
		t.Fatalf("mean reciprocity error %v too large", r.Metrics["err_mean"])
	}
	if r.Metrics["err_max"] > 0.5 {
		t.Fatalf("max reciprocity error %v too large", r.Metrics["err_max"])
	}
	if r.Metrics["err_mean"] <= 0 {
		t.Fatal("zero error is implausible with estimation noise")
	}
}

func TestLemmasAchieveBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  Runner
	}{{"lemma51", Lemma51}, {"lemma52", Lemma52}} {
		r, err := tc.run(QuickConfig())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for m := 2; m <= 5; m++ {
			a := r.Metrics[metricName("achieved", m)]
			b := r.Metrics[metricName("bound", m)]
			if a != b {
				t.Fatalf("%s M=%d: achieved %v != bound %v", tc.name, m, a, b)
			}
		}
	}
}

func metricName(prefix string, m int) string {
	return prefix + "_M" + string(rune('0'+m))
}

func TestFreqOffsetLeakNegligible(t *testing.T) {
	r, err := FreqOffset(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range r.Metrics {
		if strings.HasPrefix(name, "leak_rel_") && v > 1e-6 {
			t.Fatalf("%s = %v: alignment broke under CFO", name, v)
		}
	}
	// The I-Q constellation does rotate substantially at 800+ Hz over a
	// 1500-byte packet, making the leak result non-trivial.
	if r.Metrics["iq_rotation_rad_cfo2000Hz"] < 1 {
		t.Fatalf("iq rotation %v too small to be a meaningful test", r.Metrics["iq_rotation_rad_cfo2000Hz"])
	}
}

func TestMACOverheadSmall(t *testing.T) {
	r, err := MACOverhead(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if oh := r.Metrics["overhead_3pairs_1440B"]; oh <= 0 || oh > 0.06 {
		t.Fatalf("overhead %v", oh)
	}
}

func TestEthernetOverheadShape(t *testing.T) {
	r, err := EthernetOverhead(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["virtual_mimo_gbps"] < 1 {
		t.Fatalf("virtual MIMO %v Gb/s, expected Gb/s scale", r.Metrics["virtual_mimo_gbps"])
	}
	if r.Metrics["reduction_factor"] < 10 {
		t.Fatalf("reduction %v", r.Metrics["reduction_factor"])
	}
}

func TestOFDMConjectureShape(t *testing.T) {
	r, err := OFDMAlignment(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Per-subcarrier alignment is exact at every selectivity level.
	for _, sel := range []string{"flat", "moderate", "severe"} {
		if v := r.Metrics["residual_persub_"+sel]; v > 1e-6 {
			t.Fatalf("per-subcarrier residual (%s) %v", sel, v)
		}
	}
	// Flat-assumption alignment: exact on a flat channel everywhere.
	if v := r.Metrics["residual_near_flat"] + r.Metrics["residual_far_flat"]; v > 1e-6 {
		t.Fatalf("flat channel flat-assumption residual %v", v)
	}
	// The conjecture: one alignment serves NEARBY subcarriers acceptably
	// on a moderate-width channel, while distant subcarriers drift.
	nearMod := r.Metrics["residual_near_moderate"]
	farMod := r.Metrics["residual_far_moderate"]
	if nearMod > 0.2 {
		t.Fatalf("near-subcarrier residual %v not 'acceptable' on moderate channel", nearMod)
	}
	if farMod <= nearMod {
		t.Fatalf("residual should grow with subcarrier distance: near %v far %v", nearMod, farMod)
	}
	// Severe channels break even nearby reuse more than moderate ones.
	if r.Metrics["residual_near_severe"] <= nearMod {
		t.Fatalf("severe channel should have larger near residual: %v vs %v",
			r.Metrics["residual_near_severe"], nearMod)
	}
	// Rates: per-subcarrier never loses to the flat assumption.
	for _, sel := range []string{"moderate", "severe"} {
		if r.Metrics["rate_persub_"+sel] < r.Metrics["rate_flat_"+sel] {
			t.Fatalf("per-subcarrier rate below flat at %s", sel)
		}
	}
}

func TestAdHocClustersShape(t *testing.T) {
	r, err := AdHocClusters(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["bottleneck_is_intercell"] != 1 {
		t.Fatal("inter-cluster hop is not the bottleneck; scenario broken")
	}
	// IAC lifts the bottleneck, so end-to-end throughput improves.
	if g := r.Metrics["bottleneck_gain"]; g < 1.1 {
		t.Fatalf("bottleneck gain %v", g)
	}
	if g := r.Metrics["end_to_end_gain"]; g < 1.1 {
		t.Fatalf("end-to-end gain %v", g)
	}
	// End-to-end is still capped by some link.
	if r.Metrics["end_to_end_iac_bpshz"] > r.Metrics["intra_cluster_bpshz"]+1e-9 {
		t.Fatal("end-to-end exceeded the intra-cluster rate")
	}
}

func TestLoadSweepShape(t *testing.T) {
	r, err := LoadSweep(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Below everyone's capacity both schemes deliver the offered load...
	if r.Metrics["delivered_iac_load0.03"] < 0.95 || r.Metrics["delivered_tdma_load0.03"] < 0.95 {
		t.Fatalf("low load should be fully delivered: iac %v tdma %v",
			r.Metrics["delivered_iac_load0.03"], r.Metrics["delivered_tdma_load0.03"])
	}
	// ...and IAC's concurrency shows up as lower queueing latency.
	for _, load := range []string{"0.03", "0.06", "0.12", "0.24"} {
		if r.Metrics["lat_iac_load"+load] >= r.Metrics["lat_tdma_load"+load] {
			t.Fatalf("IAC latency %v >= TDMA %v at load %s",
				r.Metrics["lat_iac_load"+load], r.Metrics["lat_tdma_load"+load], load)
		}
	}
	// The throughput gain grows with offered load and approaches the
	// saturated-medium gains past the TDMA knee.
	if r.Metrics["gain_load0.24"] <= r.Metrics["gain_load0.03"] {
		t.Fatalf("gain should grow with load: %v at 0.24 vs %v at 0.03",
			r.Metrics["gain_load0.24"], r.Metrics["gain_load0.03"])
	}
	if g := r.Metrics["gain_load0.24"]; g < 1.5 {
		t.Fatalf("saturated gain %v below 1.5x", g)
	}
	if r.Metrics["delivered_iac_load0.24"] <= r.Metrics["delivered_tdma_load0.24"] {
		t.Fatal("past the knee IAC should deliver a larger fraction than TDMA")
	}
	// The wired plane stays far below one byte per wireless bit.
	for _, load := range []string{"0.03", "0.24"} {
		if v := r.Metrics["backend_bytes_per_bit_load"+load]; v <= 0 || v > 1 {
			t.Fatalf("backend ratio %v at load %s", v, load)
		}
	}
}

func TestCoherenceSweepShape(t *testing.T) {
	r, err := CoherenceSweep(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance shape: at a fixed re-training period, IAC's sum
	// throughput decreases as the channel innovation grows.
	thr := r.Series["thr_iac"]
	eps := r.Series["eps"]
	if len(thr) != 4 || len(eps) != 4 {
		t.Fatalf("eps axis has %d/%d points", len(eps), len(thr))
	}
	if !(thr[0] > thr[2] && thr[2] > thr[3]) {
		t.Fatalf("throughput not decreasing in eps: %v over eps %v", thr, eps)
	}
	// A static channel keeps the saturated IAC gain; fast fading with an
	// 8-cycle-stale survey forfeits it.
	if g := r.Metrics["gain_eps0"]; g < 1.5 {
		t.Fatalf("static-channel gain %v below the saturated floor", g)
	}
	if r.Metrics["gain_eps0.6"] >= r.Metrics["gain_eps0"] {
		t.Fatalf("gain should shrink with eps: %v at 0.6 vs %v at 0",
			r.Metrics["gain_eps0.6"], r.Metrics["gain_eps0"])
	}
	// Outage losses show up as undelivered traffic for IAC, while the
	// ideally-adapting TDMA baseline keeps delivering.
	if r.Metrics["delivered_iac_eps0.6"] >= r.Metrics["delivered_iac_eps0"] {
		t.Fatal("delivered fraction should fall with eps")
	}
	if r.Metrics["delivered_tdma_eps0.6"] < 0.9*r.Metrics["delivered_tdma_eps0"] {
		t.Fatal("baseline delivery should be (nearly) untouched by fading speed")
	}
	// Re-training axis: at eps=0.35, an 8-cycle-stale survey loses to
	// re-training every 2 cycles despite the extra training airtime.
	if r.Metrics["thr_iac_retrain2"] <= r.Metrics["thr_iac_retrain32"] {
		t.Fatalf("frequent re-training should beat a 32-cycle-stale survey: %v vs %v",
			r.Metrics["thr_iac_retrain2"], r.Metrics["thr_iac_retrain32"])
	}
}

func TestScaleUpShape(t *testing.T) {
	r, err := ScaleUp(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The analytic packet ladder is exact and monotone up to the DoF
	// ceiling: 3 packets at 2 APs, 2M = 4 from 3 APs on.
	packets := r.Series["packets"]
	if len(packets) != 4 {
		t.Fatalf("packets series has %d points", len(packets))
	}
	for i, want := range []float64{3, 4, 4, 4} {
		if packets[i] != want {
			t.Fatalf("packets[%d] = %v want %v", i, packets[i], want)
		}
	}
	// Measured gain grows when the third AP unlocks the 2M chain and
	// must not collapse when further APs spread the chain.
	if r.Metrics["gain_aps3"] <= r.Metrics["gain_aps2"] {
		t.Fatalf("third AP did not grow the gain: %v vs %v",
			r.Metrics["gain_aps3"], r.Metrics["gain_aps2"])
	}
	if r.Metrics["gain_aps2"] <= 1 {
		t.Fatalf("2-AP IAC gain %v should beat the MIMO baseline", r.Metrics["gain_aps2"])
	}
	for _, n := range []string{"4", "5"} {
		if g := r.Metrics["gain_aps"+n]; g < 0.85*r.Metrics["gain_aps3"] {
			t.Fatalf("gain collapsed at %s APs: %v vs %v at 3", n, g, r.Metrics["gain_aps3"])
		}
	}
	// Campus axis: throughput grows with cell count; tiling efficiency
	// never exceeds linear.
	thr := r.Series["thr_campus"]
	if len(thr) != 3 {
		t.Fatalf("campus series has %d points", len(thr))
	}
	if !(thr[0] < thr[1] && thr[1] < thr[2]) {
		t.Fatalf("campus throughput not growing with cells: %v", thr)
	}
	for _, c := range []string{"2", "4"} {
		if e := r.Metrics["efficiency_cells"+c]; e <= 0 || e > 1.02 {
			t.Fatalf("tiling efficiency %v at %s cells", e, c)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := QuickConfig()
	a, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics["gain_mean"] != b.Metrics["gain_mean"] {
		t.Fatalf("same seed, different results: %v vs %v", a.Metrics["gain_mean"], b.Metrics["gain_mean"])
	}
	cfg.Seed = 99
	c, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics["gain_mean"] == c.Metrics["gain_mean"] {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}
