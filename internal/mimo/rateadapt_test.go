package mimo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/core"
	"iaclan/internal/sig"
	"iaclan/internal/stats"
)

// PickMCS returns the fastest rung of the ladder the SNR supports, and
// false if even the lowest rung is out of reach (the packet would not
// decode at all). It is the dB form of RateTable's rules, the oracle
// TestRateTableLinearThresholds pins the linear thresholds against.
func PickMCS(ladder []MCS, snrDB float64) (MCS, bool) {
	best := MCS{}
	ok := false
	for _, m := range ladder {
		if snrDB >= m.MinSNRdB && (!ok || m.BitsPerSymbol() > best.BitsPerSymbol()) {
			best = m
			ok = true
		}
	}
	return best, ok
}

// AdaptedThroughput maps a set of per-packet linear SINRs onto ladder
// throughput: the sum of chosen bits/symbol over all packets, the
// discrete analogue of the paper's sum log2(1+SNR) metric. Packets whose
// SINR misses the lowest rung contribute zero.
func AdaptedThroughput(ladder []MCS, sinrs []float64) float64 {
	var total float64
	for _, s := range sinrs {
		if m, ok := PickMCS(ladder, stats.DB(s)); ok {
			total += m.BitsPerSymbol()
		}
	}
	return total
}

// ShannonThroughput is the paper's continuous metric over the same
// SINRs, for comparing against AdaptedThroughput. The ladder throughput
// is always below it (coding/modulation quantization), and the two move
// together: an SNR advantage translates into real rate.
func ShannonThroughput(sinrs []float64) float64 {
	var total float64
	for _, s := range sinrs {
		total += stats.ShannonRate(s)
	}
	return total
}

// tableMismatch compares the table's Select, Rate, Outage and
// AchievedRate at sinr (the two-SINR rules planned at planned) with the
// dB rules of PickMCS, bit for bit, and describes the first difference
// ("" when they agree).
func tableMismatch(tb *RateTable, planned, sinr float64) string {
	wantM, wantOK := PickMCS(tb.ladder, stats.DB(sinr))
	if gotM, gotOK := tb.Select(sinr); gotOK != wantOK || gotOK && gotM.Mod != wantM.Mod ||
		math.Float64bits(gotM.CodingRate) != math.Float64bits(wantM.CodingRate) ||
		math.Float64bits(gotM.MinSNRdB) != math.Float64bits(wantM.MinSNRdB) {
		return fmt.Sprintf("Select(%v = %#x): got %+v %v, dB path %+v %v", sinr, math.Float64bits(sinr), gotM, gotOK, wantM, wantOK)
	}
	wantRate := 0.0
	if wantOK {
		wantRate = wantM.BitsPerSymbol()
	}
	if got := tb.Rate(sinr); math.Float64bits(got) != math.Float64bits(wantRate) {
		return fmt.Sprintf("Rate(%v = %#x) = %v, dB path %v", sinr, math.Float64bits(sinr), got, wantRate)
	}
	pm, pok := PickMCS(tb.ladder, stats.DB(planned))
	wantOutage := !pok || stats.DB(sinr) < pm.MinSNRdB
	if got := tb.Outage(planned, sinr); got != wantOutage {
		return fmt.Sprintf("Outage(%v, %v = %#x) = %v, dB path %v", planned, sinr, math.Float64bits(sinr), got, wantOutage)
	}
	wantAchieved := 0.0
	if !wantOutage {
		wantAchieved = pm.BitsPerSymbol()
	}
	if got := tb.AchievedRate(planned, sinr); math.Float64bits(got) != math.Float64bits(wantAchieved) {
		return fmt.Sprintf("AchievedRate(%v, %v = %#x) = %v, dB path %v", planned, sinr, math.Float64bits(sinr), got, wantAchieved)
	}
	return ""
}

// TestRateTableLinearThresholds pins the table's linear thresholds
// against the dB rules of PickMCS: every float within 2^20 ulps of each
// rung's threshold of the standard ladder (2^12 for the other ladders,
// and for all of them under -short), 10^6 log-normal SINRs, the special
// values, and ladders that are unsorted, tied or carry NaN, infinite
// and out-of-range thresholds.
func TestRateTableLinearThresholds(t *testing.T) {
	window := uint64(1) << 20
	random := 1000000
	if testing.Short() {
		window, random = 1<<12, 20000
	}
	specials := []float64{
		0, math.Copysign(0, -1), -1, -1e-300, -math.MaxFloat64, math.Inf(-1), math.Inf(1), math.NaN(),
		math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1023, math.MaxFloat64, 1,
	}
	shuffled := Ladder80211()
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	odd := []MCS{
		{Mod: sig.QPSK, CodingRate: 0.5, MinSNRdB: 8},
		{Mod: sig.BPSK, CodingRate: 1, MinSNRdB: 3}, // ties the rung above at 1 bit
		{Mod: sig.QAM16, CodingRate: 0.5, MinSNRdB: math.NaN()},
		{Mod: sig.QAM64, CodingRate: 0.75, MinSNRdB: math.Inf(1)},
		{Mod: sig.BPSK, CodingRate: 0.25, MinSNRdB: math.Inf(-1)},
		{Mod: sig.QAM16, CodingRate: 0.75, MinSNRdB: -3100}, // a subnormal threshold
		{Mod: sig.QAM64, CodingRate: 0.5, MinSNRdB: 3100},   // above MaxFloat64's dB: only +Inf qualifies
	}
	ladders := []struct {
		name   string
		ladder []MCS
		window uint64
	}{
		{"80211", Ladder80211(), window},
		{"shuffled", shuffled, min(window, 1<<12)},
		{"odd", odd, min(window, 1<<12)},
	}
	for _, lc := range ladders {
		t.Run(lc.name, func(t *testing.T) {
			tb := NewRateTable(lc.ladder)
			check := func(planned, sinr float64) {
				if msg := tableMismatch(tb, planned, sinr); msg != "" {
					t.Fatal(msg)
				}
			}
			for i, m := range lc.ladder {
				thr := tb.minSINR[i]
				if math.IsNaN(thr) || thr == 0 || math.IsInf(thr, 0) {
					for _, x := range specials {
						check(thr, x)
						check(x, thr)
					}
					continue
				}
				if !(stats.DB(thr) >= m.MinSNRdB) || stats.DB(math.Nextafter(thr, 0)) >= m.MinSNRdB {
					t.Fatalf("rung %d: %v is not the smallest float at or above %v dB", i, thr, m.MinSNRdB)
				}
				bits := math.Float64bits(thr)
				for b := bits - min(bits, lc.window); b <= bits+lc.window; b++ {
					check(thr, math.Float64frombits(b))
				}
			}
			rng := rand.New(rand.NewSource(7))
			for k := 0; k < random; k++ {
				// Log-normal around 13 dB, most of the ladder's span.
				check(math.Exp(rng.NormFloat64()*4+3), math.Exp(rng.NormFloat64()*4+3))
			}
			for _, p := range specials {
				for _, x := range specials {
					check(p, x)
				}
			}
		})
	}
}

func TestDefaultRateTableShared(t *testing.T) {
	if DefaultRateTable() != DefaultRateTable() {
		t.Fatal("DefaultRateTable built a second table")
	}
}

func TestLadderMonotone(t *testing.T) {
	ladder := Ladder80211()
	if len(ladder) < 4 {
		t.Fatalf("ladder size %d", len(ladder))
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].MinSNRdB <= ladder[i-1].MinSNRdB {
			t.Fatalf("thresholds not increasing at rung %d", i)
		}
		if ladder[i].BitsPerSymbol() <= ladder[i-1].BitsPerSymbol() {
			t.Fatalf("rates not increasing at rung %d", i)
		}
	}
}

func TestPickMCS(t *testing.T) {
	ladder := Ladder80211()
	// Below the lowest rung: nothing decodes.
	if _, ok := PickMCS(ladder, 1); ok {
		t.Fatal("1 dB should decode nothing")
	}
	// Mid ladder: QPSK territory.
	m, ok := PickMCS(ladder, 12)
	if !ok || m.Mod != sig.QPSK {
		t.Fatalf("12 dB picked %+v", m)
	}
	// High SNR: the top rung.
	m, ok = PickMCS(ladder, 40)
	if !ok || m.Mod != sig.QAM64 || m.CodingRate != 0.75 {
		t.Fatalf("40 dB picked %+v", m)
	}
	// Empty ladder.
	if _, ok := PickMCS(nil, 40); ok {
		t.Fatal("empty ladder picked something")
	}
}

func TestAdaptedThroughputBelowShannon(t *testing.T) {
	sinrs := []float64{10, 100, 1000}
	adapted := AdaptedThroughput(Ladder80211(), sinrs)
	shannon := ShannonThroughput(sinrs)
	if adapted <= 0 {
		t.Fatal("no throughput")
	}
	if adapted >= shannon {
		t.Fatalf("ladder throughput %v above Shannon %v", adapted, shannon)
	}
	// Dead packets contribute zero.
	if AdaptedThroughput(Ladder80211(), []float64{0.1}) != 0 {
		t.Fatal("sub-threshold packet earned throughput")
	}
}

func TestIACGainSurvivesRateAdaptation(t *testing.T) {
	// The paper's metric is continuous; check the conclusion also holds
	// on a discrete MCS ladder: IAC's three quantized packet rates beat
	// the baseline's two, on average over channel draws.
	rng := rand.New(rand.NewSource(1))
	ladder := Ladder80211()
	var iacSum, baseSum float64
	const trials = 40
	for i := 0; i < trials; i++ {
		cs := core.RandomChannelSet(rng, 2, 2, 2, 100) // 20 dB
		plan, err := core.SolveUplinkThree(cs, rng)
		if err != nil {
			continue
		}
		ev, err := plan.Evaluate(cs, cs, 1, 0.01)
		if err != nil {
			continue
		}
		iacSum += AdaptedThroughput(ladder, ev.SINR)
		// Baseline: each client alone with eigenmode streams; average
		// of the two clients' adapted throughputs.
		for c := 0; c < 2; c++ {
			p := EigenmodeWS(ws, cs[c][0], 1, 0.01)
			var sinrs []float64
			for j, pw := range p.Powers {
				if pw > 0 {
					sinrs = append(sinrs, pw*p.Gains[j])
				}
			}
			baseSum += AdaptedThroughput(ladder, sinrs) / 2
		}
	}
	if iacSum <= baseSum {
		t.Fatalf("IAC ladder throughput %v did not beat baseline %v", iacSum, baseSum)
	}
	// And the gain magnitude is in the multiplexing range, not an artifact.
	gain := iacSum / baseSum
	if gain < 1.05 || gain > 2.5 {
		t.Fatalf("ladder gain %v outside plausible range", gain)
	}
}

func TestAdaptedTracksShannonOrdering(t *testing.T) {
	// Across random SINR sets, if Shannon says A > B by a clear margin,
	// the ladder should rarely disagree — sample and check correlation
	// in sign.
	rng := rand.New(rand.NewSource(2))
	ladder := Ladder80211()
	agree, total := 0, 0
	for i := 0; i < 200; i++ {
		a := []float64{math.Pow(10, rng.Float64()*30/10), math.Pow(10, rng.Float64()*30/10)}
		b := []float64{math.Pow(10, rng.Float64()*30/10), math.Pow(10, rng.Float64()*30/10)}
		sa, sb := ShannonThroughput(a), ShannonThroughput(b)
		if sa == sb {
			continue
		}
		// Only count clear margins (>20%).
		if sa < sb*1.2 && sb < sa*1.2 {
			continue
		}
		total++
		aa, ab := AdaptedThroughput(ladder, a), AdaptedThroughput(ladder, b)
		if (sa > sb) == (aa >= ab) {
			agree++
		}
	}
	if total < 20 {
		t.Fatalf("too few clear-margin samples: %d", total)
	}
	if float64(agree)/float64(total) < 0.85 {
		t.Fatalf("ladder disagreed with Shannon ordering too often: %d/%d", agree, total)
	}
}
