package mac

import (
	"math/rand"
	"slices"
)

// RateEstimator predicts the sum rate of a candidate transmission group
// without transmitting, the paper's sum log(1 + ||v^T H w||^2) estimate
// (Section 7.2). The testbed wires this to the alignment solver; MAC unit
// tests use synthetic functions.
type RateEstimator func(group []ClientID) float64

// GroupPicker selects which queued clients transmit concurrently.
//
// PickGroup receives the queue as client ids in FIFO arrival order and
// the target group size; it returns the chosen group, always including
// the head-of-queue client first ("to prevent starvation and reduce
// delay"). The Simulator passes its distinct eligible view (one entry
// per client with pending traffic), but pickers still dedupe, so a raw
// per-packet queue with repeated ids is equally valid input. The
// returned slice may be picker-owned scratch: it is valid until the
// next PickGroup call on the same picker, and callers that keep a
// group longer must copy it.
type GroupPicker interface {
	Name() string
	PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID
}

// distinctAfterHead returns the distinct clients in queue order with the
// head client first, for pickers that must not group a client with
// itself (a client contributes one packet per group).
func distinctAfterHead(queue []ClientID) []ClientID {
	seen := map[ClientID]bool{}
	var out []ClientID
	for _, c := range queue {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// FIFOPicker combines packets "according to their arrivals in the FIFO
// queue": simple and fair, but oblivious to channel quality.
type FIFOPicker struct{}

// Name implements GroupPicker.
func (FIFOPicker) Name() string { return "fifo" }

// PickGroup implements GroupPicker.
func (FIFOPicker) PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID {
	distinct := distinctAfterHead(queue)
	if len(distinct) == 0 {
		return nil
	}
	if size > len(distinct) {
		size = len(distinct)
	}
	return append([]ClientID(nil), distinct[:size]...)
}

// BruteForcePicker tries every combination of queued clients (with the
// head pinned) and keeps the rate-maximizing one. Throughput-optimal but
// combinatorial and unfair: clients with poor channels starve.
type BruteForcePicker struct{}

// Name implements GroupPicker.
func (BruteForcePicker) Name() string { return "brute-force" }

// PickGroup implements GroupPicker.
func (BruteForcePicker) PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID {
	distinct := distinctAfterHead(queue)
	if len(distinct) == 0 {
		return nil
	}
	if size > len(distinct) {
		size = len(distinct)
	}
	head, rest := distinct[0], distinct[1:]
	best := append([]ClientID(nil), distinct[:size]...)
	bestRate := est(best)
	// Enumerate subsets of `rest` of size-1 via combination indices.
	k := size - 1
	if k <= 0 {
		return []ClientID{head}
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		group := make([]ClientID, 0, size)
		group = append(group, head)
		for _, i := range idx {
			group = append(group, rest[i])
		}
		if r := est(group); r > bestRate {
			bestRate = r
			best = group
		}
		// Next combination.
		i := k - 1
		for i >= 0 && idx[i] == len(rest)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return best
}

// BestOfTwoPicker is IAC's concurrency algorithm (Section 7.2a): the head
// of queue is pinned; each remaining position gets two random candidates;
// the best of the resulting candidate groups by estimated rate wins.
// Credit counters guarantee that a client passed over often enough is
// eventually forced into a group, bounding unfairness.
//
// The picker owns all of its per-pick scratch, so a warm PickGroup does
// not allocate; the group it returns aliases that scratch and is valid
// until the next call.
type BestOfTwoPicker struct {
	// CreditThreshold forces a client into the group once its counter
	// crosses this value. The paper does not publish its constant; 8
	// keeps forced picks rare while bounding starvation.
	CreditThreshold int

	rng *rand.Rand
	// clients is indexed by ClientID (grown on demand): each client's
	// credit counter and the pick generation that last saw it in the
	// queue, which dedupes the queue in one pass without a map.
	clients []pickerClient
	gen     uint32

	// Per-pick scratch, reused across calls.
	distinct   []ClientID
	forced     []ClientID
	candidates [][2]ClientID
	considered []ClientID
	group      []ClientID
	best       []ClientID
}

type pickerClient struct {
	seen   uint32
	credit int
}

// NewBestOfTwoPicker creates the picker with deterministic randomness.
func NewBestOfTwoPicker(seed int64, creditThreshold int) *BestOfTwoPicker {
	return &BestOfTwoPicker{
		CreditThreshold: creditThreshold,
		rng:             rand.New(rand.NewSource(seed)),
	}
}

// Name implements GroupPicker.
func (*BestOfTwoPicker) Name() string { return "best-of-two" }

// dedupe fills the distinct scratch with the queue's clients in first-
// occurrence order. A fresh generation stamp per call marks clients
// already taken, so the pass is O(len(queue)) with no clearing.
func (p *BestOfTwoPicker) dedupe(queue []ClientID) []ClientID {
	p.gen++
	if p.gen == 0 {
		// The stamp wrapped: forget every old mark.
		for i := range p.clients {
			p.clients[i].seen = 0
		}
		p.gen = 1
	}
	distinct := p.distinct[:0]
	for _, c := range queue {
		if int(c) >= len(p.clients) {
			p.clients = append(p.clients, make([]pickerClient, int(c)+1-len(p.clients))...)
		}
		if pc := &p.clients[c]; pc.seen != p.gen {
			pc.seen = p.gen
			distinct = append(distinct, c)
		}
	}
	p.distinct = distinct
	return distinct
}

// PickGroup implements GroupPicker. The returned group is picker-owned
// scratch, valid until the next call.
func (p *BestOfTwoPicker) PickGroup(queue []ClientID, size int, est RateEstimator) []ClientID {
	distinct := p.dedupe(queue)
	if len(distinct) == 0 {
		return nil
	}
	if size > len(distinct) {
		size = len(distinct)
	}
	head, rest := distinct[0], distinct[1:]
	if size == 1 || len(rest) == 0 {
		p.best = append(p.best[:0], head)
		return p.best
	}

	// Clients whose credit crossed the threshold are forced in first.
	forced := p.forced[:0]
	for _, c := range rest {
		if len(forced) == size-1 {
			break
		}
		if p.clients[c].credit >= p.CreditThreshold {
			forced = append(forced, c)
		}
	}
	p.forced = forced

	// Two random candidates per remaining position.
	slots := size - 1 - len(forced)
	candidates := p.candidates[:0]
	considered := p.considered[:0]
	for s := 0; s < slots; s++ {
		a := rest[p.rng.Intn(len(rest))]
		b := rest[p.rng.Intn(len(rest))]
		candidates = append(candidates, [2]ClientID{a, b})
		for _, c := range [2]ClientID{a, b} {
			if !slices.Contains(considered, c) {
				considered = append(considered, c)
			}
		}
	}
	p.candidates, p.considered = candidates, considered

	// Evaluate the 2^slots combinations (4 for the paper's 3-client
	// groups) and keep the best by estimated rate, skipping combinations
	// with duplicate members.
	best := p.best[:0]
	found := false
	bestRate := -1.0
	for mask := 0; mask < 1<<uint(slots); mask++ {
		group := append(p.group[:0], head)
		group = append(group, forced...)
		ok := true
		for s := 0; s < slots; s++ {
			c := candidates[s][(mask>>uint(s))&1]
			if slices.Contains(group, c) {
				ok = false
				break
			}
			group = append(group, c)
		}
		p.group = group
		if !ok {
			continue
		}
		if r := est(group); r > bestRate {
			bestRate = r
			best = append(best[:0], group...)
			found = true
		}
	}
	if !found {
		// All combinations collided (tiny rest set): fall back to FIFO.
		best = append(best[:0], head)
		best = append(best, forced...)
		for _, c := range rest {
			if len(best) >= size {
				break
			}
			if !slices.Contains(best, c) {
				best = append(best, c)
			}
		}
	}
	p.best = best

	// Credit accounting: considered-but-ignored clients gain credit;
	// picked clients reset.
	for _, c := range considered {
		if !slices.Contains(best, c) {
			p.clients[c].credit++
		}
	}
	for _, c := range best {
		p.clients[c].credit = 0
	}
	return best
}
