// Package obs is the streaming observability plane: a registry of
// cheap always-on counters, gauges, and quantile-sketch distributions
// that concurrently running simulation workers publish into and
// readers (the status HTTP server, tests, a live CLI) snapshot while
// the simulation runs.
//
// Design rules, in priority order:
//
//  1. Observing must never perturb results. Nothing in this package
//     touches a simulation RNG stream, and the engine only writes
//     scalars into it — attaching or detaching a registry (or a
//     status server) leaves every simulation output bit-identical.
//  2. Publishing is cheap enough to leave on. Counters and gauges are
//     single atomic words; the engine batches its hot-path counts
//     locally and flushes one atomic add per counter per trial.
//  3. Totals are deterministic. Counter adds commute, so the final
//     snapshot after a sweep is the same whatever order the workers
//     finished in; distribution quantiles are integer-bin-derived and
//     equally order-independent. Only a distribution's mean can differ
//     across runs in the last ulp (float sums reorder with worker
//     completion).
//
// A Registry is concurrency-safe on both the publish and snapshot
// sides. Metric handles are get-or-create by name: resolve them once
// at setup (a map lookup under a mutex), then publish lock-free.
package obs

import (
	"math"
	"sync"
	"sync/atomic"

	"iaclan/internal/stats"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-writer-wins float64 level. The zero value reads 0;
// all methods are safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores x.
func (g *Gauge) Set(x float64) { g.bits.Store(math.Float64bits(x)) }

// Add adds d to the gauge (atomic read-modify-write).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Distribution is a quantile sketch behind a mutex: workers Observe
// samples or Merge whole per-trial sketches into it; readers snapshot
// it live. Quantiles of the merged distribution are deterministic
// whatever order workers publish in (integer bins); the mean can move
// by an ulp with merge order.
type Distribution struct {
	mu sync.Mutex
	s  stats.DenseSketch
}

// Observe records one sample.
func (d *Distribution) Observe(x float64) {
	d.mu.Lock()
	d.s.Sketch().Add(x)
	d.mu.Unlock()
}

// Merge folds a finished sketch (e.g. one trial's pooled latency) into
// the distribution.
func (d *Distribution) Merge(s *stats.Sketch) {
	d.mu.Lock()
	d.s.Sketch().Merge(s)
	d.mu.Unlock()
}

// Snapshot freezes the distribution into its scalar summary.
func (d *Distribution) Snapshot() stats.SketchSnapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.s.Sketch().Snapshot()
}

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	dists      map[string]*Distribution
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() float64{},
		dists:      map[string]*Distribution{},
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers (or replaces) a derived gauge evaluated at
// snapshot time — the shape for levels owned elsewhere, like the PHY
// workspace pool's churn counters. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Distribution returns the named distribution, creating it empty on
// first use.
func (r *Registry) Distribution(name string) *Distribution {
	r.mu.RLock()
	d := r.dists[name]
	r.mu.RUnlock()
	if d != nil {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d = r.dists[name]; d == nil {
		d = &Distribution{}
		r.dists[name] = d
	}
	return d
}

// Snapshot is a registry frozen at one instant, in the shape the
// status server serializes. Map keys sort on JSON encoding, so equal
// registry states marshal to identical documents.
type Snapshot struct {
	Counters      map[string]uint64               `json:"counters"`
	Gauges        map[string]float64              `json:"gauges"`
	Distributions map[string]stats.SketchSnapshot `json:"distributions"`
}

// Snapshot freezes every metric. It is safe to call while workers
// publish; each metric is read atomically (the snapshot is per-metric
// consistent, not globally transactional — a live reader's view, not
// an accounting ledger).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := Snapshot{
		Counters:      make(map[string]uint64, len(r.counters)),
		Gauges:        make(map[string]float64, len(r.gauges)+len(r.gaugeFuncs)),
		Distributions: make(map[string]stats.SketchSnapshot, len(r.dists)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, fn := range r.gaugeFuncs {
		snap.Gauges[name] = fn()
	}
	for name, d := range r.dists {
		snap.Distributions[name] = d.Snapshot()
	}
	return snap
}
