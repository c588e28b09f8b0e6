// Package stats provides the small statistical toolkit the evaluation
// harness needs: means, percentiles, empirical CDFs, fairness indices and
// dB conversions. All functions treat their inputs as immutable.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element; it panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element; it panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between order statistics. It panics on empty input or
// p outside [0,100] (NaN p included).
//
// xs need not be sorted: a copy is sorted internally, so the input is
// never mutated and callers owe no ordering precondition. Any NaN in xs
// makes the result NaN deterministically — sort.Float64s gives NaN an
// implementation-pinned but meaningless position, so instead of letting
// a stray NaN silently shift every order statistic, the poison value is
// propagated to the caller.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if math.IsNaN(p) || p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	for _, x := range xs {
		if math.IsNaN(x) {
			return math.NaN()
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// CDFPoint is one point of an empirical CDF: the fraction of samples <= X.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns the empirical cumulative distribution of xs as a sorted
// sequence of (value, cumulative probability) points, one per sample.
// This matches how the paper plots per-client gain CDFs (Fig. 15).
//
// Empty input returns nil: an empty sample set has no distribution.
// Any NaN in xs poisons the whole curve — every returned point is
// {NaN, NaN}, length preserved — following the same deterministic NaN
// contract as Percentile: sort.Float64s gives NaN an implementation-
// pinned but meaningless position, so rather than emit a curve whose
// order statistics a stray NaN silently shifted, the poison is made
// visible to the caller.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	out := make([]CDFPoint, len(xs))
	for _, x := range xs {
		if math.IsNaN(x) {
			for i := range out {
				out[i] = CDFPoint{X: math.NaN(), P: math.NaN()}
			}
			return out
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	for i, x := range sorted {
		out[i] = CDFPoint{X: x, P: float64(i+1) / n}
	}
	return out
}

// FractionBelow returns the fraction of samples strictly below the
// threshold. The paper uses "fraction of clients with gain < 1" as its
// unfairness signal for the brute-force concurrency algorithm.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	count := 0
	for _, v := range xs {
		if v < threshold {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// JainFairness returns Jain's fairness index (sum x)^2 / (n * sum x^2),
// which is 1 for perfectly equal allocations and 1/n for a single winner.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Normalize by the largest magnitude first: the index is scale
	// invariant and the raw squares overflow for inputs near MaxFloat64.
	var scale float64
	for _, x := range xs {
		if a := math.Abs(x); a > scale {
			scale = a
		}
	}
	if scale == 0 {
		return 0
	}
	var s, s2 float64
	for _, x := range xs {
		v := x / scale
		s += v
		s2 += v * v
	}
	if s2 == 0 {
		return 0
	}
	return s * s / (float64(len(xs)) * s2)
}

// DB converts a linear power ratio to decibels.
func DB(linear float64) float64 { return 10 * math.Log10(linear) }

// ShannonRate returns log2(1+snr), the achievable rate in bit/s/Hz the
// paper uses as its metric (Eq. 9). Negative SNRs clamp to zero rate.
func ShannonRate(snr float64) float64 {
	if snr <= 0 {
		return 0
	}
	return math.Log2(1 + snr)
}

// ASCIICDF renders an empirical CDF as a crude fixed-width terminal plot,
// which the bench harness prints next to the paper's figures.
func ASCIICDF(xs []float64, width, height int, label string) string {
	if len(xs) == 0 || width < 8 || height < 2 {
		return ""
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, pt := range CDF(xs) {
		col := int((pt.X - lo) / (hi - lo) * float64(width-1))
		row := height - 1 - int(pt.P*float64(height-1))
		grid[row][col] = '*'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (x: %.2f..%.2f, y: 0..1)\n", label, lo, hi)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "\n")
	return b.String()
}
