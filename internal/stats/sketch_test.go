package stats

import (
	"math"
	"math/rand"
	"testing"
)

// referenceSets are the distributions the sketch's error bound is
// checked against: the shapes latency distributions actually take
// (uniform spread, exponential tail, bimodal fast-path/retry mix). The
// bimodal weights put p50 inside the first mode and p95 inside the
// second, so both quantiles land in populated regions.
func referenceSets(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(42))
	uniform := make([]float64, n)
	exponential := make([]float64, n)
	bimodal := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = rng.Float64()*99 + 1
		exponential[i] = rng.ExpFloat64() * 50
		if rng.Float64() < 0.6 {
			bimodal[i] = math.Abs(20 + 2*rng.NormFloat64())
		} else {
			bimodal[i] = math.Abs(200 + 10*rng.NormFloat64())
		}
	}
	return map[string][]float64{
		"uniform":     uniform,
		"exponential": exponential,
		"bimodal":     bimodal,
	}
}

// TestSketchQuantileErrorBound pins the acceptance bound: sketch p50
// and p95 within 2% of the exact full-sort Percentile on every
// reference distribution.
func TestSketchQuantileErrorBound(t *testing.T) {
	for name, xs := range referenceSets(50000) {
		var s Sketch
		for _, x := range xs {
			s.Add(x)
		}
		for _, p := range []float64{50, 95} {
			exact := Percentile(xs, p)
			got := s.Quantile(p)
			relErr := math.Abs(got-exact) / exact
			if relErr > 0.02 {
				t.Errorf("%s p%.0f: sketch %v vs exact %v (rel err %.4f > 2%%)", name, p, got, exact, relErr)
			}
		}
	}
}

// TestSketchMergeMatchesPooled: merging shard sketches must reproduce
// the single-sketch quantiles exactly — bin counts are integers, so a
// merge is bit-identical to having recorded every sample in one sketch.
func TestSketchMergeMatchesPooled(t *testing.T) {
	xs := referenceSets(20000)["exponential"]
	var pooled Sketch
	for _, x := range xs {
		pooled.Add(x)
	}
	shards := make([]Sketch, 4)
	for i, x := range xs {
		shards[i%4].Add(x)
	}
	var merged Sketch
	for i := range shards {
		merged.Merge(&shards[i])
	}
	if merged.Count() != pooled.Count() {
		t.Fatalf("merged count %d != pooled %d", merged.Count(), pooled.Count())
	}
	for _, p := range []float64{0, 10, 50, 90, 95, 99, 100} {
		if m, w := merged.Quantile(p), pooled.Quantile(p); m != w {
			t.Errorf("p%.0f: merged %v != pooled %v", p, m, w)
		}
	}
	if m, w := merged.Min(), pooled.Min(); m != w {
		t.Errorf("merged min %v != pooled %v", m, w)
	}
	if m, w := merged.Max(), pooled.Max(); m != w {
		t.Errorf("merged max %v != pooled %v", m, w)
	}
	if math.Abs(merged.Mean()-pooled.Mean()) > 1e-9*pooled.Mean() {
		t.Errorf("merged mean %v far from pooled %v", merged.Mean(), pooled.Mean())
	}
}

// TestSketchEmpty: the zero value is a usable empty sketch; quantiles
// answer NaN (not a panic — a zero-traffic cell is an expected state
// for a live reader), Mean matches Mean(nil) == 0.
func TestSketchEmpty(t *testing.T) {
	var s Sketch
	if s.Count() != 0 {
		t.Fatalf("empty count %d", s.Count())
	}
	if !math.IsNaN(s.Quantile(50)) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatal("empty sketch quantile/min/max should be NaN")
	}
	if s.Mean() != 0 {
		t.Fatalf("empty mean %v", s.Mean())
	}
	s.Merge(nil) // nil merge is a no-op
	var o Sketch
	s.Merge(&o)
	if s.Count() != 0 {
		t.Fatal("merging empties changed the count")
	}
}

// TestSketchNaNPoison mirrors Percentile's deterministic NaN contract.
func TestSketchNaNPoison(t *testing.T) {
	var s Sketch
	s.Add(1)
	s.Add(math.NaN())
	s.Add(3)
	if !math.IsNaN(s.Quantile(50)) {
		t.Fatal("NaN sample did not poison Quantile")
	}
	if !math.IsNaN(s.Mean()) {
		t.Fatal("NaN sample did not poison Mean")
	}
	// Min/Max track the non-NaN samples.
	if s.Min() != 1 || s.Max() != 3 {
		t.Fatalf("min/max %v/%v", s.Min(), s.Max())
	}
	// The poison survives a merge in either direction.
	var clean Sketch
	clean.Add(2)
	clean.Merge(&s)
	if !math.IsNaN(clean.Quantile(50)) {
		t.Fatal("merge dropped the NaN poison")
	}
}

func TestSketchQuantilePanicsOutOfRange(t *testing.T) {
	var s Sketch
	s.Add(1)
	for _, p := range []float64{-1, 101, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			s.Quantile(p)
		}()
	}
}

// TestSketchSingleSampleAndClamp: with one sample every quantile is
// that sample exactly (the [min,max] clamp, not the bucket midpoint).
func TestSketchSingleSampleAndClamp(t *testing.T) {
	var s Sketch
	s.Add(7.3)
	for _, p := range []float64{0, 50, 100} {
		if got := s.Quantile(p); got != 7.3 {
			t.Fatalf("p%.0f of single sample: %v", p, got)
		}
	}
	// Out-of-range values are clamped into [min, max] too: zero and a
	// huge value report as themselves at the extremes.
	var o Sketch
	o.Add(0)
	o.Add(5e9)
	if got := o.Quantile(0); got != 0 {
		t.Fatalf("underflow p0 %v", got)
	}
	if got := o.Quantile(100); got != 5e9 {
		t.Fatalf("overflow p100 %v", got)
	}
}

// TestSketchAddZeroAlloc is the allocation-flat guarantee: once a
// sketch is dense, recording a sample or merging never touches the heap,
// at any fill level (TestSketchStaysSparse covers the sparse side and
// the one promotion allocation).
func TestSketchAddZeroAlloc(t *testing.T) {
	s := new(DenseSketch).Sketch()
	x := 1.0
	if allocs := testing.AllocsPerRun(1000, func() {
		s.Add(x)
		x += 0.37
	}); allocs != 0 {
		t.Fatalf("Sketch.Add allocates %.1f per op", allocs)
	}
	var o Sketch
	o.Add(3)
	if allocs := testing.AllocsPerRun(100, func() { s.Merge(&o) }); allocs != 0 {
		t.Fatalf("Sketch.Merge allocates %.1f per op", allocs)
	}
}

// TestSketchBinIntegerTable pins sketchBin's integer table to the
// logarithm path it stands in for: every entry equals sketchBinSlow of
// its index, and inputs at and around the table's edges, which the
// table must not serve or must serve exactly, bin as the slow path does.
func TestSketchBinIntegerTable(t *testing.T) {
	for i, b := range sketchIntBin {
		if want := sketchBinSlow(float64(i)); int(b) != want {
			t.Fatalf("table[%d] = %d, sketchBinSlow = %d", i, b, want)
		}
	}
	edges := []float64{
		math.Copysign(0, -1), 0, 0.5, 1, 1.5, 4095, 4095.5,
		math.Nextafter(sketchIntBins, 0), sketchIntBins, sketchIntBins + 1,
		1e9, -1, -2, -4095, -4096, -1e9, math.Inf(1), math.Inf(-1),
	}
	for _, x := range edges {
		if got, want := sketchBin(x), sketchBinSlow(x); got != want {
			t.Errorf("sketchBin(%v) = %d, sketchBinSlow = %d", x, got, want)
		}
	}
}

// TestSketchSnapshotJSONSafe: snapshots of empty and NaN-poisoned
// sketches carry zeros instead of the NaN/Inf values encoding/json
// rejects.
func TestSketchSnapshotJSONSafe(t *testing.T) {
	var empty Sketch
	snap := empty.Snapshot()
	if snap.Count != 0 || snap.P95 != 0 || snap.Min != 0 {
		t.Fatalf("empty snapshot %+v", snap)
	}
	var poisoned Sketch
	poisoned.Add(math.NaN())
	snap = poisoned.Snapshot()
	if snap.Count != 1 || snap.Mean != 0 || snap.P50 != 0 {
		t.Fatalf("poisoned snapshot %+v", snap)
	}
	var s Sketch
	s.Add(10)
	s.Add(20)
	snap = s.Snapshot()
	if snap.Count != 2 || snap.Min != 10 || snap.Max != 20 || snap.Mean != 15 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestSketchReset: a reset sketch behaves like a fresh zero value.
func TestSketchReset(t *testing.T) {
	var s Sketch
	s.Add(5)
	s.Add(math.NaN())
	s.Reset()
	if s.Count() != 0 || !math.IsNaN(s.Quantile(50)) {
		t.Fatal("Reset left state behind")
	}
	s.Add(2)
	if got := s.Quantile(50); got != 2 {
		t.Fatalf("post-reset quantile %v", got)
	}
}
