package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func feq(t *testing.T, got, want, eps float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Fatalf("%s: got %v want %v", msg, got, want)
	}
}

func TestMean(t *testing.T) {
	feq(t, Mean([]float64{1, 2, 3}), 2, 1e-12, "mean")
	feq(t, Mean(nil), 0, 0, "mean empty")
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	feq(t, Min(xs), -1, 0, "min")
	feq(t, Max(xs), 7, 0, "max")
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	feq(t, Percentile(xs, 0), 1, 1e-12, "p0")
	feq(t, Percentile(xs, 100), 5, 1e-12, "p100")
	feq(t, Percentile(xs, 50), 3, 1e-12, "p50")
	feq(t, Percentile(xs, 25), 2, 1e-12, "p25")
	feq(t, Median([]float64{1, 2}), 1.5, 1e-12, "median interp")
	feq(t, Percentile([]float64{7}, 90), 7, 0, "single")
}

// TestPercentileTable pins the hardened contract: unsorted input is
// handled (a copy is sorted; the argument is never mutated), and any
// NaN sample poisons the result deterministically instead of silently
// corrupting the internal sort.
func TestPercentileTable(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64 // NaN means "must be NaN"
	}{
		{"unsorted median", []float64{5, 1, 4, 2, 3}, 50, 3},
		{"unsorted p25", []float64{4, 1, 3, 2, 5}, 25, 2},
		{"reverse sorted p100", []float64{9, 7, 5}, 100, 9},
		{"duplicates", []float64{2, 2, 2, 2}, 75, 2},
		{"negative values", []float64{-3, -1, -2}, 50, -2},
		{"nan head", []float64{nan, 1, 2}, 50, nan},
		{"nan middle", []float64{1, nan, 2}, 50, nan},
		{"nan tail", []float64{1, 2, nan}, 90, nan},
		{"all nan", []float64{nan, nan}, 50, nan},
		{"inf is ordered", []float64{math.Inf(1), 0, math.Inf(-1)}, 50, 0},
	}
	for _, tc := range cases {
		in := append([]float64(nil), tc.xs...)
		got := Percentile(in, tc.p)
		if math.IsNaN(tc.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: got %v want NaN", tc.name, got)
			}
		} else if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: got %v want %v", tc.name, got, tc.want)
		}
		for i := range in {
			same := in[i] == tc.xs[i] || (math.IsNaN(in[i]) && math.IsNaN(tc.xs[i]))
			if !same {
				t.Errorf("%s: input mutated at %d", tc.name, i)
			}
		}
	}
	if !math.IsNaN(Median([]float64{1, nan})) {
		t.Error("Median must propagate NaN")
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Percentile(nil, 50) },
		func() { Percentile([]float64{1}, -1) },
		func() { Percentile([]float64{1}, 101) },
		func() { Percentile([]float64{1}, math.NaN()) },
		func() { Min(nil) },
		func() { Max(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("cdf len %d", len(pts))
	}
	feq(t, pts[0].X, 1, 0, "sorted x")
	feq(t, pts[0].P, 1.0/3, 1e-12, "p first")
	feq(t, pts[2].P, 1, 1e-12, "p last")
}

func TestFractionBelow(t *testing.T) {
	xs := []float64{0.5, 0.9, 1.0, 1.5, 2.0}
	feq(t, FractionBelow(xs, 1), 0.4, 1e-12, "below 1")
	feq(t, FractionBelow(nil, 1), 0, 0, "empty")
}

func TestJainFairness(t *testing.T) {
	feq(t, JainFairness([]float64{1, 1, 1, 1}), 1, 1e-12, "equal")
	// One winner out of four: 1/n = 0.25.
	feq(t, JainFairness([]float64{4, 0, 0, 0}), 0.25, 1e-12, "winner")
	feq(t, JainFairness(nil), 0, 0, "empty")
	feq(t, JainFairness([]float64{0, 0}), 0, 0, "all zero")
}

func TestDBConversions(t *testing.T) {
	feq(t, DB(100), 20, 1e-12, "db")
}

func TestShannonRate(t *testing.T) {
	feq(t, ShannonRate(1), 1, 1e-12, "snr 1")
	feq(t, ShannonRate(3), 2, 1e-12, "snr 3")
	feq(t, ShannonRate(0), 0, 0, "snr 0")
	feq(t, ShannonRate(-5), 0, 0, "snr negative")
}

func TestASCIICDF(t *testing.T) {
	out := ASCIICDF([]float64{1, 2, 3, 4, 5}, 20, 5, "test")
	if out == "" {
		t.Fatal("empty plot")
	}
	if ASCIICDF(nil, 20, 5, "x") != "" {
		t.Fatal("plot of empty data should be empty")
	}
	// Constant data must not divide by zero.
	if out := ASCIICDF([]float64{2, 2, 2}, 20, 5, "const"); out == "" {
		t.Fatal("constant data plot empty")
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pp := math.Mod(math.Abs(p), 100)
		v := Percentile(xs, pp)
		return v >= Min(xs)-1e-9 && v <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pts := CDF(xs)
		if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X }) &&
			!sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X <= pts[j].X }) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].P < pts[i-1].P {
				return false
			}
		}
		return pts[len(pts)-1].P == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickJainBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, math.Abs(x))
			}
		}
		if len(xs) == 0 {
			return true
		}
		j := JainFairness(xs)
		return j >= 0 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCDFEmptyAndNaNContract pins the documented edge behavior: empty
// input has no distribution (nil), and any NaN sample poisons every
// point deterministically, mirroring Percentile's contract.
func TestCDFEmptyAndNaNContract(t *testing.T) {
	if pts := CDF(nil); pts != nil {
		t.Fatalf("CDF(nil) = %v, want nil", pts)
	}
	if pts := CDF([]float64{}); pts != nil {
		t.Fatalf("CDF(empty) = %v, want nil", pts)
	}
	pts := CDF([]float64{1, math.NaN(), 3})
	if len(pts) != 3 {
		t.Fatalf("poisoned CDF has %d points, want length preserved (3)", len(pts))
	}
	for i, pt := range pts {
		if !math.IsNaN(pt.X) || !math.IsNaN(pt.P) {
			t.Fatalf("point %d = %+v, want {NaN, NaN}", i, pt)
		}
	}
	// The input is never mutated (package contract).
	xs := []float64{3, 1, math.NaN()}
	_ = CDF(xs)
	if xs[0] != 3 || xs[1] != 1 || !math.IsNaN(xs[2]) {
		t.Fatal("CDF mutated its input")
	}
}
