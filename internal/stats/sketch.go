package stats

import (
	"fmt"
	"math"
)

// Sketch bin layout: sketchBins log-spaced buckets covering
// [sketchMinValue, sketchMaxValue), plus an underflow bucket (index 0,
// everything below sketchMinValue including zero and negatives) and an
// overflow bucket (index sketchBins+1). Bucket k >= 1 covers
// [minValue*gamma^(k-1), minValue*gamma^k); its representative value is
// the log-space midpoint minValue*gamma^(k-1/2), so any sample is
// reported within a factor of sqrt(gamma) of its true value — a
// relative quantile error of at most sqrt(gamma)-1 (~1.2% for the
// constants below), comfortably inside the 2% bound the traffic
// engine's latency accounting promises.
const (
	sketchBins     = 1024
	sketchMinValue = 1e-2
	sketchMaxValue = 1e8
)

var (
	sketchGamma       = math.Pow(sketchMaxValue/sketchMinValue, 1.0/sketchBins)
	sketchInvLogGamma = 1 / math.Log(sketchGamma)
	sketchHalfStep    = math.Sqrt(sketchGamma)
)

// sketchInline is how many distinct bins a sparse sketch holds inline
// before it promotes to a dense bin array. Latency per client is the
// sparse case: on a 10^5-client campus (4 cells × 25,000 clients) no
// client's sketch filled more than 4 bins, and over half filled one.
const sketchInline = 4

// sketchBinArray is a dense sketch's bin counts, indexed by bin.
type sketchBinArray = [sketchBins + 2]uint64

// Sketch is a mergeable quantile sketch: a log-spaced histogram over
// (0, 1e8) with ~1.2% worst-case relative value error, plus exact
// count, sum, min and max. Unlike Percentile — which stores and sorts
// every sample — a Sketch records a sample in O(1) and merges with
// another sketch in O(bins): the shape the traffic engine needs to
// account per-client latency at campus scale, and to fold per-cell
// distributions into a campus-wide one without concatenating sample
// slices.
//
// A sketch starts sparse: a ~100-byte value holding up to sketchInline
// (bin, count) pairs inline, in bin order. The sample that would fill
// a fifth distinct bin promotes it to a dense array of every bin's
// count (~8 KiB, allocated once, behind a pointer); Merge promotes the
// same way. Both modes use the same bin function and walk the same
// nonzero bins in the same order, so Count, Sum, Min, Max, Saturated
// and every Quantile are bit-identical whichever mode a sketch is in.
// DenseSketch starts dense, with the bins allocated together with the
// sketch, for sketches certain to fill many bins.
//
// The zero value is an empty sketch ready for use. A dense Sketch must
// not be copied by value: the copy would share its bins. Sketch is not
// safe for concurrent use; each simulation trial owns its sketches and
// the aggregators merge them in deterministic slice order (bin counts
// are integers, so merged quantiles are bit-identical regardless of
// merge order; only the float Sum — hence Mean — is sensitive to merge
// order, by the usual ulp of float addition).
//
// NaN handling follows Percentile's deterministic poison contract: NaN
// samples are counted, and any NaN in the sketch makes every Quantile
// call return NaN rather than silently shifting the order statistics.
// Values below the tracked range (including zero and negatives — the
// engine's latencies are never negative, but the type does not assume)
// land in an underflow bucket reported as the observed minimum;
// values at or above 1e8 land in an overflow bucket reported as the
// observed maximum.
type Sketch struct {
	_      noCopy
	count  uint64
	nonNaN uint64
	nans   uint64
	sum    float64
	min    float64
	max    float64
	// dense holds every bin's count once the sketch is dense; nil while
	// it is sparse.
	dense *sketchBinArray
	// While sparse, bin[:n] are the nonzero bins in ascending order and
	// cnt[:n] their counts; entries from n on are zero, and all of them
	// are zero once the sketch is dense.
	cnt [sketchInline]uint64
	bin [sketchInline]uint16
	n   uint8
}

// noCopy makes go vet's copylocks check flag a Sketch copied by value.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// DenseSketch is a Sketch stored together with its dense bin array, so
// that a DenseSketch allocated, embedded by value or held in a slice
// costs no allocation beyond its own: new(DenseSketch).Sketch() is an
// empty dense sketch in a single allocation. Its zero value is ready
// for use through Sketch. A DenseSketch must not be copied after first
// use.
type DenseSketch struct {
	s    Sketch
	bins sketchBinArray
}

// Sketch returns the sketch, dense from its first use.
func (d *DenseSketch) Sketch() *Sketch {
	if d.s.dense == nil {
		d.s.dense = &d.bins
	}
	return &d.s
}

// Add records one sample. It allocates only when it promotes a sparse
// sketch to dense, at most once in the sketch's life.
//
// The binned domain is [1e-2, 1e8): samples below 1e-2 (zero and
// negatives included) saturate into the underflow bucket and samples at
// or above 1e8 into the overflow bucket. Saturated samples still count
// toward Count/Sum/Min/Max exactly, but their quantile contribution
// collapses to the observed minimum (respectively maximum) — the
// ~1.2% relative-error guarantee holds only inside the domain. Callers
// feeding sub-1e-2 samples (e.g. energy-per-bit metrics) should check
// Saturated to see how much of the distribution was clipped.
func (s *Sketch) Add(x float64) {
	s.count++
	s.sum += x
	if math.IsNaN(x) {
		s.nans++
		return
	}
	if s.nonNaN == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.nonNaN++
	s.addBin(sketchBin(x), 1)
}

// sketchIntBins is how many small non-negative integers sketchBin
// reads from a table instead of taking a logarithm: the engine's
// latencies are whole slots, nearly all below it.
const sketchIntBins = 4096

// sketchIntBin[i] is sketchBinSlow(i), filled by sketchBinSlow itself,
// so a table lookup returns the slow path's bits by construction.
var sketchIntBin = func() (t [sketchIntBins]uint16) {
	for i := range t {
		t[i] = uint16(sketchBinSlow(float64(i)))
	}
	return t
}()

// sketchBin maps a non-NaN sample to its bin index.
func sketchBin(x float64) int {
	if x >= 0 && x < sketchIntBins {
		if i := int(x); float64(i) == x {
			return int(sketchIntBin[i])
		}
	}
	return sketchBinSlow(x)
}

// sketchBinSlow is sketchBin by logarithm, for every input.
func sketchBinSlow(x float64) int {
	switch {
	case x < sketchMinValue:
		return 0
	case x >= sketchMaxValue:
		return sketchBins + 1
	}
	i := 1 + int(math.Log(x/sketchMinValue)*sketchInvLogGamma)
	if i < 1 {
		i = 1
	} else if i > sketchBins {
		i = sketchBins
	}
	return i
}

// addBin adds c samples to bin b, promoting the sketch to dense when
// the inline list has no room for a new bin.
func (s *Sketch) addBin(b int, c uint64) {
	if s.dense != nil {
		s.dense[b] += c
		return
	}
	n := int(s.n)
	k := 0
	for k < n && int(s.bin[k]) < b {
		k++
	}
	if k < n && int(s.bin[k]) == b {
		s.cnt[k] += c
		return
	}
	if n == sketchInline {
		s.promote()
		s.dense[b] += c
		return
	}
	copy(s.bin[k+1:n+1], s.bin[k:n])
	copy(s.cnt[k+1:n+1], s.cnt[k:n])
	s.bin[k], s.cnt[k] = uint16(b), c
	s.n++
}

// promote moves a sparse sketch's inline bins into a new dense array.
func (s *Sketch) promote() {
	d := new(sketchBinArray)
	for k := range int(s.n) {
		d[s.bin[k]] = s.cnt[k]
	}
	s.dense = d
	s.cnt, s.bin, s.n = [sketchInline]uint64{}, [sketchInline]uint16{}, 0
}

// binCount returns bin b's count.
func (s *Sketch) binCount(b int) uint64 {
	if s.dense != nil {
		return s.dense[b]
	}
	for k := range int(s.n) {
		if int(s.bin[k]) == b {
			return s.cnt[k]
		}
	}
	return 0
}

// Merge folds o into s. Merging sketches built from disjoint sample
// sets yields exactly the sketch of the union: bin counts, count, min
// and max are order-independent; Sum (and so Mean) accumulates in call
// order like any float sum. Either operand may be sparse or dense; s
// promotes to dense when o is dense or the union of their bins
// outgrows the inline list. A nil or empty o is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.count == 0 {
		return
	}
	if o.nonNaN > 0 {
		if s.nonNaN == 0 {
			s.min, s.max = o.min, o.max
		} else {
			if o.min < s.min {
				s.min = o.min
			}
			if o.max > s.max {
				s.max = o.max
			}
		}
	}
	s.count += o.count
	s.nonNaN += o.nonNaN
	s.nans += o.nans
	s.sum += o.sum
	if o.dense == nil {
		for k := range int(o.n) {
			s.addBin(int(o.bin[k]), o.cnt[k])
		}
		return
	}
	if s.dense == nil {
		s.promote()
	}
	d := s.dense
	for i, c := range o.dense {
		d[i] += c
	}
}

// Reset empties the sketch in place. A dense sketch stays dense and
// keeps its bin array.
func (s *Sketch) Reset() {
	d := s.dense
	if d != nil {
		*d = sketchBinArray{}
	}
	*s = Sketch{dense: d}
}

// Saturated returns how many samples fell outside the binned
// [1e-2, 1e8) domain: low counts samples below it (the underflow
// bucket — zero and negatives included), high counts samples at or
// above it (the overflow bucket). Saturated samples are summarized by
// the observed min/max instead of a log-spaced bucket, so a nonzero
// count warns a reader that the quantiles near that edge are clipped.
// Merge sums the counts like any other bucket.
func (s *Sketch) Saturated() (low, high uint64) {
	return s.binCount(0), s.binCount(sketchBins + 1)
}

// Count returns the number of recorded samples, NaNs included.
func (s *Sketch) Count() int64 { return int64(s.count) }

// Sum returns the sum of all recorded samples (NaN if any sample was
// NaN).
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean of the recorded samples, 0 for an
// empty sketch (matching Mean on an empty slice), NaN if any sample
// was NaN.
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest non-NaN sample; NaN for a sketch with no
// non-NaN samples.
func (s *Sketch) Min() float64 {
	if s.nonNaN == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest non-NaN sample; NaN for a sketch with no
// non-NaN samples.
func (s *Sketch) Max() float64 {
	if s.nonNaN == 0 {
		return math.NaN()
	}
	return s.max
}

// Quantile returns the p-th percentile (0..100) estimate. It follows
// Percentile's conventions where a binned summary can: p outside
// [0,100] (NaN included) panics; any NaN sample poisons the result to
// NaN. Where Percentile panics on empty input, Quantile returns NaN —
// a zero-traffic cell is an expected state for a live metrics reader,
// not a programming error. Results are clamped to the observed
// [Min, Max], so p=0 and p=100 are exact.
func (s *Sketch) Quantile(p float64) float64 {
	if math.IsNaN(p) || p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: quantile %v out of range", p))
	}
	if s.count == 0 || s.nans > 0 {
		return math.NaN()
	}
	if p == 0 {
		return s.min
	}
	if p == 100 {
		return s.max
	}
	// Same rank convention as Percentile: the p-th percentile of n
	// samples sits at order statistic p/100*(n-1). The bucket holding
	// that rank answers with its representative value.
	rank := p / 100 * float64(s.count-1)
	// The sparse walk visits the same nonzero bins in the same order as
	// the dense one, so both modes return the same bits.
	var cum uint64
	if s.dense == nil {
		for k := range int(s.n) {
			cum += s.cnt[k]
			if float64(cum) > rank {
				return s.clamp(sketchBinValue(int(s.bin[k])))
			}
		}
		return s.max
	}
	for i, c := range s.dense {
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) > rank {
			return s.clamp(sketchBinValue(i))
		}
	}
	return s.max
}

// clamp bounds a bucket representative into the observed value range.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// sketchBinValue is bucket i's representative value before clamping.
func sketchBinValue(i int) float64 {
	switch i {
	case 0:
		// Underflow: -Inf, clamped up to the observed minimum. (A 0
		// representative here would dodge the clamp whenever the
		// observed minimum is negative, reporting a value no sample
		// ever took — the documented observed-minimum contract needs
		// the representative below every possible minimum.)
		return math.Inf(-1)
	case sketchBins + 1:
		return math.Inf(1) // overflow: clamped down to the observed maximum
	}
	return sketchMinValue * math.Pow(sketchGamma, float64(i-1)) * sketchHalfStep
}

// SketchSnapshot is a Sketch frozen into the scalar summary the status
// server publishes. NaN and infinite values (empty or NaN-poisoned
// sketches) are reported as 0 so the snapshot always marshals to JSON.
type SketchSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// SaturatedLow / SaturatedHigh count samples that fell outside the
	// binned [1e-2, 1e8) domain (see Saturated). Nonzero values tell a
	// /status reader that the quantiles near that edge are clipped to
	// the observed min/max rather than resolved to ~1.2%.
	SaturatedLow  uint64 `json:"saturated_low"`
	SaturatedHigh uint64 `json:"saturated_high"`
}

// Snapshot summarizes the sketch for serialization.
func (s *Sketch) Snapshot() SketchSnapshot {
	low, high := s.Saturated()
	return SketchSnapshot{
		Count:         s.Count(),
		Mean:          jsonSafe(s.Mean()),
		Min:           jsonSafe(s.Min()),
		Max:           jsonSafe(s.Max()),
		P50:           jsonSafe(s.Quantile(50)),
		P90:           jsonSafe(s.Quantile(90)),
		P95:           jsonSafe(s.Quantile(95)),
		P99:           jsonSafe(s.Quantile(99)),
		SaturatedLow:  low,
		SaturatedHigh: high,
	}
}

// jsonSafe maps the values encoding/json rejects to 0.
func jsonSafe(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
