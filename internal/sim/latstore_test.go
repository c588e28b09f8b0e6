package sim

import (
	"runtime/debug"
	"testing"
)

// TestLatStoreLayouts pins the store's two layouts: a small roster's
// sketches are dense from the start, all in the one allocation made
// with the store; a large roster allocates nothing until its first
// sample, then one slice of sparse sketches.
func TestLatStoreLayouts(t *testing.T) {
	// A small-roster store is ~8.6 MB, so a collection falls inside most
	// measured calls, and each collection adds allocations that are not
	// the store's to the count. Count with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var small latStore
	if allocs := testing.AllocsPerRun(5, func() { small = newLatStore(latDenseMax) }); allocs != 1 {
		t.Fatalf("small-roster store: %.0f allocations, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		for i := range latDenseMax {
			for x := range 20 {
				small.forClient(i).Add(float64(x))
			}
		}
	}); allocs != 0 {
		t.Fatalf("small-roster samples allocate %.0f per run", allocs)
	}

	large := newLatStore(latDenseMax + 1)
	if large.get(3) != nil {
		t.Fatal("large-roster store has a sketch before its first sample")
	}
	if allocs := testing.AllocsPerRun(1, func() { large.forClient(3).Add(2) }); allocs != 0 {
		// AllocsPerRun's warm-up call made the one allocation.
		t.Fatalf("large-roster store allocates %.0f per sample after the first", allocs)
	}
	if sk := large.get(3); sk == nil || sk.Count() != 2 {
		t.Fatalf("client 3 sketch %v after two samples", sk)
	}
	if sk := large.get(4); sk == nil || sk.Count() != 0 {
		t.Fatal("an idle client's sketch is missing or not empty")
	}
	for _, x := range []float64{1, 4, 9, 16} {
		large.forClient(7).Add(x)
	}
	if got := large.get(7).Quantile(100); got != 16 {
		t.Fatalf("client 7 p100 %v, want 16", got)
	}
}
