package mac

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// mapBestOfTwoPicker is the map-based best-of-two picker the scratch
// version replaced, kept verbatim as the equivalence oracle: a fresh
// distinct view, candidate and group slices per pick, and maps for the
// credits, the considered set and the chosen group.
type mapBestOfTwoPicker struct {
	CreditThreshold int

	rng     *rand.Rand
	credits map[ClientID]int
}

func newMapBestOfTwoPicker(seed int64, creditThreshold int) *mapBestOfTwoPicker {
	return &mapBestOfTwoPicker{
		CreditThreshold: creditThreshold,
		rng:             rand.New(rand.NewSource(seed)),
		credits:         make(map[ClientID]int),
	}
}

func (p *mapBestOfTwoPicker) PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID {
	distinct := distinctAfterHead(queue)
	if len(distinct) == 0 {
		return nil
	}
	if size > len(distinct) {
		size = len(distinct)
	}
	head, rest := distinct[0], distinct[1:]
	if size == 1 || len(rest) == 0 {
		return []ClientID{head}
	}

	forced := make([]ClientID, 0, size-1)
	for _, c := range rest {
		if p.credits[c] >= p.CreditThreshold && len(forced) < size-1 {
			forced = append(forced, c)
		}
	}

	slots := size - 1 - len(forced)
	candidates := make([][2]ClientID, slots)
	considered := map[ClientID]bool{}
	for s := 0; s < slots; s++ {
		a := rest[p.rng.Intn(len(rest))]
		b := rest[p.rng.Intn(len(rest))]
		candidates[s] = [2]ClientID{a, b}
		considered[a] = true
		considered[b] = true
	}

	var best []ClientID
	bestRate := -1.0
	for mask := 0; mask < 1<<uint(slots); mask++ {
		group := make([]ClientID, 0, size)
		group = append(group, head)
		group = append(group, forced...)
		ok := true
		for s := 0; s < slots; s++ {
			c := candidates[s][(mask>>uint(s))&1]
			for _, g := range group {
				if g == c {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
			group = append(group, c)
		}
		if !ok {
			continue
		}
		if r := est(group); r > bestRate {
			bestRate = r
			best = group
		}
	}
	if best == nil {
		best = append([]ClientID{head}, forced...)
		for _, c := range rest {
			if len(best) >= size {
				break
			}
			dup := false
			for _, g := range best {
				if g == c {
					dup = true
					break
				}
			}
			if !dup {
				best = append(best, c)
			}
		}
	}

	inGroup := map[ClientID]bool{}
	for _, c := range best {
		inGroup[c] = true
	}
	//iacvet:allow maprange independent per-key credit increments; no visit-order-dependent state or RNG draws
	for c := range considered {
		if !inGroup[c] {
			p.credits[c]++
		}
	}
	for _, c := range best {
		p.credits[c] = 0
	}
	return best
}

// hashRate is an order-sensitive pseudo-random estimator: distinct
// groups get unrelated rates, a quarter of them at or below -1 (never
// better than the picker's initial bound) so whole rounds can fall back
// to FIFO, and a coarse grid makes ties common.
func hashRate(salt uint64) RateEstimator {
	return func(group []ClientID) float64 {
		h := fnv.New64a()
		var b [8]byte
		for i := range b {
			b[i] = byte(salt >> (8 * i))
		}
		h.Write(b[:])
		for _, c := range group {
			h.Write([]byte{byte(c), byte(c >> 8)})
		}
		return float64(int(h.Sum64()%8)) - 2
	}
}

// TestBestOfTwoMatchesMapOracle drives the scratch picker and the map
// oracle with twin RNGs over randomized queues — duplicates, tiny rest
// sets that take the FIFO fallback, low credit thresholds that force
// clients in, sizes 1–4 — and requires identical groups, estimator call
// counts and credits after every pick.
func TestBestOfTwoMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		seed := rng.Int63()
		thresh := 1 + rng.Intn(4)
		if trial%5 == 0 {
			thresh = 8
		}
		got := NewBestOfTwoPicker(seed, thresh)
		want := newMapBestOfTwoPicker(seed, thresh)
		rate := hashRate(uint64(trial))
		if trial%7 == 0 {
			rate = constRate
		}
		var gotCalls, wantCalls int
		gotEst := func(g []ClientID) float64 { gotCalls++; return rate(g) }
		wantEst := func(g []ClientID) float64 { wantCalls++; return rate(g) }
		ids := 1 + rng.Intn(12)
		if trial%11 == 0 {
			ids = 3000 // sparse, large ids grow the stamp table
		}
		for pick := 0; pick < 60; pick++ {
			queue := make([]ClientID, rng.Intn(9))
			for i := range queue {
				queue[i] = ClientID(rng.Intn(ids))
			}
			size := 1 + rng.Intn(4)
			g := got.PickGroup(queue, size, gotEst)
			w := want.PickGroup(queue, size, wantEst)
			if !slices.Equal(g, w) {
				t.Fatalf("trial %d pick %d: queue %v size %d: got %v, oracle %v", trial, pick, queue, size, g, w)
			}
			if gotCalls != wantCalls {
				t.Fatalf("trial %d pick %d: %d estimator calls, oracle %d", trial, pick, gotCalls, wantCalls)
			}
			for c := 0; c < ids; c++ {
				id := ClientID(c)
				if got.Credits(id) != want.credits[id] {
					t.Fatalf("trial %d pick %d: client %d credit %d, oracle %d", trial, pick, c, got.Credits(id), want.credits[id])
				}
			}
		}
	}
}

// TestBestOfTwoGenerationWrap forces the dedupe stamp through its wrap
// and checks the picker still dedupes correctly afterwards.
func TestBestOfTwoGenerationWrap(t *testing.T) {
	got := NewBestOfTwoPicker(4, 8)
	want := newMapBestOfTwoPicker(4, 8)
	queue := []ClientID{3, 1, 3, 2, 1, 4}
	got.PickGroup(queue, 3, constRate)
	want.PickGroup(queue, 3, constRate)
	got.gen = ^uint32(0) - 1
	for i := 0; i < 4; i++ {
		g := got.PickGroup(queue, 3, constRate)
		w := want.PickGroup(queue, 3, constRate)
		if !slices.Equal(g, w) {
			t.Fatalf("pick %d across the wrap: got %v, oracle %v", i, g, w)
		}
	}
}

// memoRate is a memo-table estimator like the simulator's plan cache on
// a hot channel: a hit costs a map lookup and allocates nothing.
type memoRate map[[3]ClientID]float64

func (m memoRate) estimate(group []ClientID) float64 {
	var k [3]ClientID
	copy(k[:], group)
	if r, ok := m[k]; ok {
		return r
	}
	r := float64((int(k[0])*7919+int(k[1])*104729+int(k[2])*1299709)%1000) / 100
	m[k] = r
	return r
}

func warmPicker(queue []ClientID) (*BestOfTwoPicker, RateEstimator) {
	p := NewBestOfTwoPicker(101, 8)
	est := memoRate{}
	for i := 0; i < 10000; i++ {
		p.PickGroup(queue, 3, est.estimate)
	}
	return p, est.estimate
}

func TestBestOfTwoPickGroupZeroAlloc(t *testing.T) {
	queue := []ClientID{4, 0, 7, 2, 9, 1, 5, 3, 8, 6}
	p, est := warmPicker(queue)
	if allocs := testing.AllocsPerRun(1000, func() { p.PickGroup(queue, 3, est) }); allocs != 0 {
		t.Fatalf("warm PickGroup: %v allocs, want 0", allocs)
	}
}

// BenchmarkPickGroupBestOfTwo times one warm best-of-two pick over a
// 10-client queue (a campus cell's CFP) with a memo-table estimator, so
// the number is the picker's own cost on the plan-cache-hit path.
func BenchmarkPickGroupBestOfTwo(b *testing.B) {
	queue := []ClientID{4, 0, 7, 2, 9, 1, 5, 3, 8, 6}
	p, est := warmPicker(queue)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PickGroup(queue, 3, est)
	}
}
