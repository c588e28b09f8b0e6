// Package sched provides a deterministic hierarchical timing wheel over
// an integer slot clock — the event-driven core that lets the traffic
// engine's per-cycle cost scale with *active* clients instead of the
// full client roster.
//
// The wheel is hashed-hierarchical in the classic Varghese/Lauck shape:
// level 0 buckets one deadline per transmission slot, and each level
// above coarsens the granularity by the wheel width, so a timer lands
// at the shallowest level whose span still covers its delay and
// cascades down as the clock approaches. Timer entries are intrusive —
// one preallocated entry per client id, linked through index-typed
// next/prev fields — so arming, cancelling, firing, and cascading all
// run without a single heap allocation in steady state.
//
// Determinism contract: the wheel holds no randomness and never reads
// the host clock. Given the same sequence of Schedule/Advance
// calls it fires the same ids in the same order. Within one Advance the
// fired ids come out grouped by deadline slot in increasing slot order;
// inside a slot the order is the (deterministic) bucket insertion
// order, which is NOT sorted by id — callers that need a canonical
// per-slot order (the traffic engine sorts by client index) sort the
// returned batch themselves.
package sched

const (
	slotBits      = 6
	slotsPerWheel = 1 << slotBits // 64 buckets per level
	levels        = 8             // 64^8 slots ≈ 2.8e14: any horizon a sim reaches
	numBuckets    = levels * slotsPerWheel

	// horizon is the span the wheel can bucket directly. Deadlines at or
	// beyond now+horizon park in the top level's farthest reach and are
	// re-bucketed from their true deadline as they cascade, so arbitrary
	// uint64 deadlines are legal — they just cascade more than once.
	horizon = uint64(1) << (slotBits * levels)

	// none terminates intrusive lists; bucketExpired marks entries
	// sitting in the already-due list awaiting the next Advance.
	none          = int32(-1)
	bucketExpired = int32(numBuckets)
	bucketNone    = int32(-2)
)

// Stats counts the wheel's lifetime activity, for the sim_timers_*
// observability counters.
type Stats struct {
	// Scheduled counts Schedule calls (re-arms included); Fired timers
	// popped by Advance; Cascaded entry moves between levels.
	Scheduled uint64
	Fired     uint64
	Cascaded  uint64
	// Armed is the number of timers currently pending.
	Armed int
}

// entry is one timer's intrusive bucket-list node. An id has at most
// one pending deadline; re-scheduling moves it.
type entry struct {
	deadline   uint64
	next, prev int32
	bucket     int32 // flat bucket index, bucketExpired, or bucketNone
}

// list is a doubly-linked bucket of entries, addressed by id.
type list struct{ head, tail int32 }

// Wheel is a deterministic hierarchical timing wheel for a fixed set of
// timer ids [0, n). The zero value is not usable; call New.
type Wheel struct {
	now     uint64
	entries []entry
	buckets [numBuckets]list
	expired list
	stats   Stats
}

// New returns a wheel for ids 0..n-1 with its clock at slot 0 and no
// timers armed.
func New(n int) *Wheel {
	w := &Wheel{entries: make([]entry, n)}
	for i := range w.entries {
		w.entries[i] = entry{next: none, prev: none, bucket: bucketNone}
	}
	for i := range w.buckets {
		w.buckets[i] = list{head: none, tail: none}
	}
	w.expired = list{head: none, tail: none}
	return w
}

// Len returns the number of armed timers (including already-due ones
// not yet popped).
func (w *Wheel) Len() int { return w.stats.Armed }

// Stats returns the wheel's activity counters.
func (w *Wheel) Stats() Stats { return w.stats }

// listOf resolves a bucket marker to its list.
func (w *Wheel) listOf(b int32) *list {
	if b == bucketExpired {
		return &w.expired
	}
	return &w.buckets[b]
}

// unlink removes id from whatever list holds it. No-op when unarmed.
func (w *Wheel) unlink(id int32) {
	e := &w.entries[id]
	if e.bucket == bucketNone {
		return
	}
	l := w.listOf(e.bucket)
	if e.prev != none {
		w.entries[e.prev].next = e.next
	} else {
		l.head = e.next
	}
	if e.next != none {
		w.entries[e.next].prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.next, e.prev, e.bucket = none, none, bucketNone
	w.stats.Armed--
}

// push appends id at the tail of bucket b.
func (w *Wheel) push(id int32, b int32) {
	e := &w.entries[id]
	l := w.listOf(b)
	e.bucket = b
	e.next = none
	e.prev = l.tail
	if l.tail != none {
		w.entries[l.tail].next = id
	} else {
		l.head = id
	}
	l.tail = id
	w.stats.Armed++
}

// place buckets id by its deadline relative to the current clock: due
// deadlines (<= now) go to the expired list, near deadlines to the
// finest level that spans them, and beyond-horizon deadlines park in
// the top level (they re-place themselves on cascade).
func (w *Wheel) place(id int32, deadline uint64) {
	e := &w.entries[id]
	e.deadline = deadline
	if deadline <= w.now {
		w.push(id, bucketExpired)
		return
	}
	delta := deadline - w.now
	for lvl := 0; lvl < levels; lvl++ {
		if delta < uint64(1)<<(slotBits*(lvl+1)) || lvl == levels-1 {
			slot := (deadline >> (slotBits * lvl)) & (slotsPerWheel - 1)
			w.push(id, int32(lvl)*slotsPerWheel+int32(slot))
			return
		}
	}
}

// Schedule arms (or re-arms, moving it) timer id to fire once the clock
// reaches deadline. A deadline at or before the current clock fires on
// the next Advance call, whatever `to` it passes — the zero-delay,
// same-slot arrival case.
func (w *Wheel) Schedule(id int, deadline uint64) {
	w.stats.Scheduled++
	w.unlink(int32(id))
	w.place(int32(id), deadline)
}

// drainExpired pops the already-due list into fired.
func (w *Wheel) drainExpired(fired []int32) []int32 {
	for w.expired.head != none {
		id := w.expired.head
		w.unlink(id)
		w.stats.Fired++
		fired = append(fired, id)
	}
	return fired
}

// cascade re-places every entry of bucket b from its true deadline:
// still-future entries drop to a finer level (or fire-list when due).
func (w *Wheel) cascade(b int32) {
	l := &w.buckets[b]
	for l.head != none {
		id := l.head
		deadline := w.entries[id].deadline
		w.unlink(id)
		w.stats.Cascaded++
		w.place(id, deadline)
	}
}

// Advance moves the clock to slot `to` and appends the ids of every
// timer whose deadline is <= to onto fired, returning the extended
// slice (pass fired[:0] scratch to stay allocation-free). A `to` at or
// before the current clock still drains timers scheduled at or before
// it. The clock never moves backward.
func (w *Wheel) Advance(to uint64, fired []int32) []int32 {
	fired = w.drainExpired(fired)
	for w.now < to {
		w.now++
		t := w.now
		// Level 0: everything bucketed here is due exactly now.
		b := &w.buckets[t&(slotsPerWheel-1)]
		for b.head != none {
			id := b.head
			w.unlink(id)
			w.stats.Fired++
			fired = append(fired, id)
		}
		// Cascade each coarser level as the clock crosses its slot
		// boundary. Beyond-horizon parkers re-place from their true
		// deadline, so they simply cascade again later.
		for lvl := 1; lvl < levels; lvl++ {
			if t&((uint64(1)<<(slotBits*lvl))-1) != 0 {
				break
			}
			slot := (t >> (slotBits * lvl)) & (slotsPerWheel - 1)
			w.cascade(int32(lvl)*slotsPerWheel + int32(slot))
		}
		fired = w.drainExpired(fired)
	}
	return fired
}
