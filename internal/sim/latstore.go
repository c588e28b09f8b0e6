package sim

import (
	"math"

	"iaclan/internal/stats"
)

// latDenseMax is the roster size up to which the latency store keeps
// every client's sketch dense from the start, all of them in one
// allocation (stats.DenseSketch): on a small roster every client sees
// enough packets to outgrow a sparse sketch, and promoting each one
// would cost an allocation per client per trial (the bench gate fails
// on any allocs/op growth). Above the threshold a dense slice would
// cost ~8 KiB × roster (≈ 800 MiB at 10^5 clients), so the store holds
// one sparse sketch (~100 B) per client instead: a mostly-idle campus,
// whose clients see a handful of packets each, never promotes one.
const latDenseMax = 1024

// latStore is the engine's per-client latency accounting: one sketch
// per client, dense or sparse depending on roster size. A large
// roster's sketches are allocated together on the first latency
// sample, so set-up and a cell that delivers nothing pay for none of
// them. Not safe for concurrent use (each engine owns one).
type latStore struct {
	n      int
	dense  []stats.DenseSketch
	sparse []stats.Sketch
}

func newLatStore(n int) latStore {
	if n <= latDenseMax {
		return latStore{n: n, dense: make([]stats.DenseSketch, n)}
	}
	return latStore{n: n}
}

// forClient returns client i's sketch for recording a sample,
// allocating a large roster's sketches on first use. Use get for
// read-only paths that must not allocate.
func (l *latStore) forClient(i int) *stats.Sketch {
	if l.dense == nil && l.sparse == nil {
		l.sparse = make([]stats.Sketch, l.n)
	}
	return l.get(i)
}

// get returns client i's sketch, or nil on a large roster that has not
// recorded a sample yet.
func (l *latStore) get(i int) *stats.Sketch {
	if l.dense != nil {
		return l.dense[i].Sketch()
	}
	if l.sparse == nil {
		return nil
	}
	return &l.sparse[i]
}

// arrivalDeadline converts a generator's next-arrival time (fractional
// slots) into the wheel deadline of the cycle that must process it:
// the first integer slot clock with next <= now, i.e. ceil(next). The
// scan path advances a client when next <= now for the integer now, so
// firing at ceil(next) is the same condition — the equivalence the
// wheel/scan differential tests pin. Times at or below zero are due
// immediately; times beyond the wheel's representable range clamp to a
// deadline past any reachable airtime.
func arrivalDeadline(t float64) uint64 {
	if t <= 0 {
		return 0
	}
	d := math.Ceil(t)
	if d >= math.MaxUint64 {
		return math.MaxUint64
	}
	return uint64(d)
}
