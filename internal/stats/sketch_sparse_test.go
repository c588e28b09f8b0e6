package stats

// Sparse/dense equivalence. refSketch is the all-dense sketch exactly as
// it was before the sparse mode existed: the reference the fuzzer holds
// every Sketch against, whatever mix of sparse and dense operands built
// it.

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// refSketch is the all-dense reference: the same fields, bin function,
// merge and rank walk as Sketch, with every bin always materialized.
type refSketch struct {
	count  uint64
	nonNaN uint64
	nans   uint64
	sum    float64
	min    float64
	max    float64
	bins   [sketchBins + 2]uint64
}

func (s *refSketch) add(x float64) {
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
	switch {
	case x < sketchMinValue:
		s.bins[0]++
	case x >= sketchMaxValue:
		s.bins[sketchBins+1]++
	default:
		i := 1 + int(math.Log(x/sketchMinValue)*sketchInvLogGamma)
		if i < 1 {
			i = 1
		} else if i > sketchBins {
			i = sketchBins
		}
		s.bins[i]++
	}
}

func (s *refSketch) merge(o *refSketch) {
	if o.count == 0 {
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
	for i := range s.bins {
		s.bins[i] += o.bins[i]
	}
}

func (s *refSketch) quantile(p float64) float64 {
	if s.count == 0 || s.nans > 0 {
		return math.NaN()
	}
	if p == 0 {
		return s.min
	}
	if p == 100 {
		return s.max
	}
	rank := p / 100 * float64(s.count-1)
	var cum uint64
	for i, c := range s.bins {
		if c == 0 {
			continue
		}
		cum += c
		if float64(cum) > rank {
			v := sketchBinValue(i)
			if v < s.min {
				return s.min
			}
			if v > s.max {
				return s.max
			}
			return v
		}
	}
	return s.max
}

func (s *refSketch) filled() int {
	n := 0
	for _, c := range s.bins {
		if c > 0 {
			n++
		}
	}
	return n
}

// checkAgainstRef fails unless s reports exactly what ref does and its
// storage is well formed: a sparse sketch lists its nonzero bins in
// ascending order with zeros after them, a dense one has no inline
// entries.
func checkAgainstRef(t *testing.T, what string, s *Sketch, ref *refSketch) {
	t.Helper()
	bits := math.Float64bits
	if s.Count() != int64(ref.count) {
		t.Fatalf("%s: count %d, want %d", what, s.Count(), ref.count)
	}
	if bits(s.Sum()) != bits(ref.sum) {
		t.Fatalf("%s: sum %v, want %v", what, s.Sum(), ref.sum)
	}
	if ref.nonNaN > 0 && (bits(s.Min()) != bits(ref.min) || bits(s.Max()) != bits(ref.max)) {
		t.Fatalf("%s: min/max %v/%v, want %v/%v", what, s.Min(), s.Max(), ref.min, ref.max)
	}
	low, high := s.Saturated()
	if low != ref.bins[0] || high != ref.bins[sketchBins+1] {
		t.Fatalf("%s: saturated (%d, %d), want (%d, %d)", what, low, high, ref.bins[0], ref.bins[sketchBins+1])
	}
	for _, p := range []float64{0, 1, 50, 95, 99, 100} {
		if got, want := s.Quantile(p), ref.quantile(p); bits(got) != bits(want) {
			t.Fatalf("%s: p%v %v, want %v", what, p, got, want)
		}
	}
	if s.dense != nil {
		if s.n != 0 || s.bin != [sketchInline]uint16{} || s.cnt != [sketchInline]uint64{} {
			t.Fatalf("%s: dense sketch keeps inline entries", what)
		}
		if *s.dense != ref.bins {
			t.Fatalf("%s: dense bins differ from the reference", what)
		}
		return
	}
	if int(s.n) != ref.filled() {
		t.Fatalf("%s: sparse sketch lists %d bins, reference fills %d", what, s.n, ref.filled())
	}
	for k := range sketchInline {
		if k >= int(s.n) {
			if s.bin[k] != 0 || s.cnt[k] != 0 {
				t.Fatalf("%s: stale inline entry %d", what, k)
			}
			continue
		}
		if (k > 0 && s.bin[k] <= s.bin[k-1]) || s.cnt[k] != ref.bins[s.bin[k]] {
			t.Fatalf("%s: inline entry %d (bin %d, count %d) out of order or wrong", what, k, s.bin[k], s.cnt[k])
		}
	}
}

// fuzzValue draws one sample: mostly from a pool of `distinct` values
// (few distinct values keep a sketch sparse, many promote it), with
// zero, negatives, NaN, infinities and out-of-domain values mixed in.
func fuzzValue(rng *rand.Rand, pool []float64) float64 {
	switch r := rng.Intn(40); {
	case r == 0:
		return 0
	case r == 1:
		return -rng.Float64() * 50
	case r == 2:
		return math.NaN()
	case r == 3:
		return 1e8 * (1 + rng.Float64()*100)
	case r == 4:
		return rng.Float64() * 1e-2
	case r == 5:
		return math.Inf(1 - 2*rng.Intn(2))
	case r < 10:
		return math.Exp(rng.Float64()*25 - 5)
	}
	return pool[rng.Intn(len(pool))]
}

// FuzzSketchSparseDense holds Sketch to the all-dense reference: leaf
// sketches (zero-value sparse ones and DenseSketch ones) take the
// same random Add streams as reference leaves, then a random merge tree
// folds them together, self-merges and empty operands included. Every
// leaf and every merge result must report the reference's count, sum,
// min, max, saturation and quantiles bit for bit.
func FuzzSketchSparseDense(f *testing.F) {
	f.Add(int64(1), uint16(3), uint8(2), uint8(4))
	f.Add(int64(2), uint16(200), uint8(4), uint8(6))
	f.Add(int64(3), uint16(2000), uint8(40), uint8(3))
	f.Add(int64(4), uint16(17), uint8(5), uint8(9))
	f.Add(int64(5), uint16(0), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, samples uint16, distinct, leaves uint8) {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]float64, 1+int(distinct)%64)
		for i := range pool {
			pool[i] = math.Exp(rng.Float64()*14 - 2)
		}
		n := 1 + int(leaves)%12
		sk := make([]*Sketch, n)
		ref := make([]*refSketch, n)
		for i := range sk {
			if rng.Intn(4) == 0 {
				sk[i] = new(DenseSketch).Sketch()
			} else {
				sk[i] = new(Sketch)
			}
			ref[i] = new(refSketch)
			m := int(samples) % 4096
			if i > 0 {
				m = rng.Intn(m + 1)
			}
			for range m {
				x := fuzzValue(rng, pool)
				sk[i].Add(x)
				ref[i].add(x)
			}
			checkAgainstRef(t, "leaf", sk[i], ref[i])
		}
		for len(sk) > 1 {
			i, j := rng.Intn(len(sk)), rng.Intn(len(sk))
			if i == j {
				// Self-merge doubles every count, as it does on the
				// reference.
				sk[i].Merge(sk[i])
				ref[i].merge(ref[i])
				checkAgainstRef(t, "self-merge", sk[i], ref[i])
				continue
			}
			sk[i].Merge(sk[j])
			ref[i].merge(ref[j])
			checkAgainstRef(t, "merge", sk[i], ref[i])
			sk[i].Merge(nil)
			sk[i].Merge(new(Sketch))
			checkAgainstRef(t, "empty merge", sk[i], ref[i])
			sk = append(sk[:j], sk[j+1:]...)
			ref = append(ref[:j], ref[j+1:]...)
		}
	})
}

// TestSketchStaysSparse pins the memory claim: a sketch that fills at
// most sketchInline bins never allocates and stays a ~100-byte value,
// and the first sample into one more bin promotes it with exactly one
// allocation.
func TestSketchStaysSparse(t *testing.T) {
	if size := unsafe.Sizeof(Sketch{}); size > 128 {
		t.Fatalf("Sketch is %d bytes, want <= 128", size)
	}
	var s Sketch
	xs := []float64{1, 10, 100, 1000}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, x := range xs {
			s.Add(x)
		}
	}); allocs != 0 {
		t.Fatalf("sparse Add allocates %.1f per run", allocs)
	}
	if s.dense != nil || s.n != sketchInline {
		t.Fatalf("4 distinct bins: dense %v, %d inline entries", s.dense != nil, s.n)
	}
	promoted := false
	if allocs := testing.AllocsPerRun(10, func() {
		var p Sketch
		for _, x := range xs {
			p.Add(x)
		}
		p.Add(1e4)
		promoted = p.dense != nil
	}); allocs != 1 {
		t.Fatalf("promotion costs %.0f allocations, want 1", allocs)
	}
	if !promoted {
		t.Fatal("a fifth bin did not promote the sketch")
	}
}

// TestDenseSketchSingleAllocation: a dense sketch comes with its
// bins in one allocation, and a DenseSketch embedded by value needs
// none.
func TestDenseSketchSingleAllocation(t *testing.T) {
	var s *Sketch
	if allocs := testing.AllocsPerRun(10, func() {
		s = new(DenseSketch).Sketch()
		for i := range 50 {
			s.Add(float64(i))
		}
	}); allocs != 1 {
		t.Fatalf("new DenseSketch plus 50 adds: %.0f allocations, want 1", allocs)
	}
	var d DenseSketch
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range 50 {
			d.Sketch().Add(float64(i))
		}
	}); allocs != 0 {
		t.Fatalf("embedded DenseSketch allocates %.0f per run", allocs)
	}
}

// TestSketchResetKeepsDenseBins: Reset empties a dense sketch without
// dropping its bin array, so reuse costs no allocation.
func TestSketchResetKeepsDenseBins(t *testing.T) {
	s := new(DenseSketch).Sketch()
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range 50 {
			s.Add(float64(i))
		}
		s.Reset()
	}); allocs != 0 {
		t.Fatalf("dense Add/Reset allocates %.0f per run", allocs)
	}
	if s.dense == nil || s.Count() != 0 || *s.dense != (sketchBinArray{}) {
		t.Fatal("Reset left a dense sketch non-empty or sparse")
	}
}
