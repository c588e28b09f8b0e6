package mac

import (
	"fmt"
	"slices"

	"iaclan/internal/flat"
)

// SlotResult reports what one concurrent transmission slot achieved for
// each group member. A SlotRunner may back its slices with buffers it
// reuses slot after slot, so the result is valid only until the runner's
// next call.
type SlotResult struct {
	// Rate is the achieved rate per client in the group, aligned with the
	// group slice passed to the runner.
	Rate []float64
	// Lost marks group members whose packet failed (no ack).
	Lost []bool
}

// SlotRunner executes one transmission group on the PHY (or a model of
// it) and returns the outcome. The group slice is never empty; it may be
// the picker's scratch, so a runner must not keep it past the call. The
// result's slices may be views of runner-owned buffers: the Simulator
// reads them before its next runner call and never keeps them.
type SlotRunner func(group []ClientID) SlotResult

// Tracer observes packet lifecycle events. Slot times are in the
// simulator's airtime clock (see Slots): born is the enqueue slot, now
// the slot at which the packet left the system. A requeued retry keeps
// its original born, so delivered latency includes retransmission
// delay.
type Tracer interface {
	// PacketDelivered fires when a packet is acked, with the rate its
	// transmission achieved.
	PacketDelivered(c ClientID, born, now int, rate float64)
	// PacketDropped fires when a packet is lost with no retries left.
	PacketDropped(c ClientID, born, now int)
}

// Config parametrizes the PCF simulator.
type Config struct {
	// GroupSize is the number of clients per transmission group.
	GroupSize int
	// CPSlots is the fixed contention-period length appended to every
	// CFP ("the duration of the contention period is constant").
	CPSlots int
	// MaxRetries bounds how often a lost packet is rescheduled.
	MaxRetries int
}

// Simulator drives contention-free periods: it maintains the leader AP's
// FIFO queue, forms transmission groups with the configured picker, runs
// them through the SlotRunner, acknowledges via the next beacon's bitmap,
// and reschedules losses.
//
// Internally the logical FIFO is sharded into per-client deques plus an
// active-client set, so every MAC operation costs pending work, not
// roster size: enqueue and dequeue are O(1), and CFP formation iterates
// the clients that actually have queued packets. A global arrival
// sequence stamp preserves the exact cross-client FIFO order the single
// flat queue used to encode, so results are bit-for-bit identical to
// the old representation.
type Simulator struct {
	cfg    Config
	picker GroupPicker
	est    RateEstimator
	run    SlotRunner

	// queues and inActive are indexed by ClientID (grown on
	// demand by grow); active lists the clients that may have queued
	// packets, each at most once (inActive is the membership flag).
	// Clients whose deque drained stay in active until the next
	// eligible-set build sweeps them out. A deque's first backing array
	// is a run of the runs slab, so a client's first packet allocates
	// nothing.
	queues   []clientQueue
	active   []ClientID
	inActive []bool
	runs     flat.Slab[queuedPacket]
	queueLen int
	// seq stamps each enqueued packet with its global arrival order; the
	// eligible view sorts clients by their head packet's stamp, which is
	// exactly the first-occurrence order a flat FIFO queue would yield.
	seq uint64

	beacons    int
	slots      int
	wireClamps int
	tracer     Tracer
	// pendingAcks collects (client, success) outcomes of the current CFP
	// for the next beacon's ack map.
	pendingAcks []ackEntry
	// eligBuf is per-CFP scratch reused across cycles so the steady-state
	// CFP loop stays off the heap.
	eligBuf []ClientID
	// ackBuf backs the ack map of the beacon RunCFP returns, rebuilt in
	// place every CFP.
	ackBuf []byte
}

type queuedPacket struct {
	client  ClientID
	retries int
	born    int
	seq     uint64
}

// clientQueue is one client's packet FIFO: a slice-backed deque popped
// by advancing head. The backing array resets when it drains and
// compacts when the dead prefix dominates, so a long-lived client's
// deque stays bounded by its actual backlog.
type clientQueue struct {
	pkts []queuedPacket
	head int
}

func (q *clientQueue) empty() bool          { return q.head >= len(q.pkts) }
func (q *clientQueue) front() *queuedPacket { return &q.pkts[q.head] }

func (q *clientQueue) push(p queuedPacket) {
	if q.head >= len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
	} else if q.head > 32 && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	q.pkts = append(q.pkts, p)
}

func (q *clientQueue) pop() queuedPacket {
	p := q.pkts[q.head]
	q.head++
	return p
}

type ackEntry struct {
	client ClientID
	ok     bool
}

// NewSimulator builds a simulator. est estimates group rates for the
// picker; run executes groups.
func NewSimulator(cfg Config, picker GroupPicker, est RateEstimator, run SlotRunner) *Simulator {
	if cfg.GroupSize < 1 {
		panic("mac: GroupSize must be >= 1")
	}
	if picker == nil || est == nil || run == nil {
		panic("mac: picker, estimator and runner are required")
	}
	return &Simulator{
		cfg:    cfg,
		picker: picker,
		est:    est,
		run:    run,
	}
}

// SetTracer installs a lifecycle observer (nil disables tracing).
func (s *Simulator) SetTracer(t Tracer) { s.tracer = t }

// Enqueue appends a packet for the client to the leader's FIFO queue,
// born at the current slot clock.
func (s *Simulator) Enqueue(c ClientID) { s.EnqueueBorn(c, s.slots) }

// EnqueueBorn appends a packet whose arrival predates the enqueue call —
// traffic generators use it to stamp packets with their true arrival
// slot, so queueing delay before the beacon counts toward latency.
func (s *Simulator) EnqueueBorn(c ClientID, born int) {
	s.grow(c)
	s.seq++
	if q := &s.queues[c]; q.pkts == nil {
		_, run := s.runs.Take(firstRun)
		q.pkts = run[:0]
	}
	s.queues[c].push(queuedPacket{client: c, born: born, seq: s.seq})
	s.queueLen++
	if !s.inActive[c] {
		s.inActive[c] = true
		s.active = append(s.active, c)
	}
}

// firstRun is the capacity of a deque's first backing array: a packet
// and its retry.
const firstRun = 2

// grow sizes the per-client tables to cover id c.
func (s *Simulator) grow(c ClientID) {
	if int(c) < len(s.queues) {
		return
	}
	n := int(c) + 1
	s.queues = append(s.queues, make([]clientQueue, n-len(s.queues))...)
	s.inActive = append(s.inActive, make([]bool, n-len(s.inActive))...)
}

// QueueLen returns the number of queued packets.
func (s *Simulator) QueueLen() int { return s.queueLen }

// eligible rebuilds the distinct client view the pickers see: every
// client with queued packets, ordered by its head packet's arrival
// stamp — the first-occurrence order of the logical flat FIFO. Clients
// whose deque drained are swept out of the active set here. The
// returned slice aliases eligBuf and is valid until the next call.
func (s *Simulator) eligible() []ClientID {
	keep := s.active[:0]
	elig := s.eligBuf[:0]
	for _, c := range s.active {
		if s.queues[c].empty() {
			s.inActive[c] = false
			continue
		}
		keep = append(keep, c)
		elig = append(elig, c)
	}
	s.active = keep
	slices.SortFunc(elig, func(a, b ClientID) int {
		sa, sb := s.queues[a].front().seq, s.queues[b].front().seq
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return 0
	})
	s.eligBuf = elig
	return elig
}

// Slots returns the total transmission slots consumed, including the
// constant contention period after each CFP — the airtime denominator
// for throughput accounting.
func (s *Simulator) Slots() int { return s.slots }

// ChargeSlots advances the airtime clock by n slots without serving any
// traffic — pure overhead airtime. The traffic engine charges the
// channel re-training bursts through it whenever the fading state moves:
// training occupies the medium and dilutes throughput (its denominator
// includes charged slots) but delivers no payload.
func (s *Simulator) ChargeSlots(n int) {
	if n < 0 {
		panic("mac: ChargeSlots needs n >= 0")
	}
	s.slots += n
}

// RunCFP executes one contention-free period: beacon (with the previous
// CFP's ack map), then one slot per transmission group until every client
// with pending traffic has been served once this CFP ("the APs serve one
// packet to each client that has pending traffic"), then CF-End and the
// constant contention period. It returns the beacon that opened the CFP.
//
// The beacon's AckMap is a view of a buffer the Simulator owns, like the
// slices of a SlotResult: it is valid until the next RunCFP, which
// rebuilds the map in place. Copy it to keep it longer. It is nil when
// the previous CFP acknowledged nothing.
func (s *Simulator) RunCFP() Beacon {
	// Build the beacon's ack map from the previous CFP in the reused
	// buffer; SetAckBit writes every byte up to the last set bit.
	var ackMap []byte
	for i, e := range s.pendingAcks {
		if e.ok {
			if ackMap == nil {
				if n := (len(s.pendingAcks)-1)/8 + 1; cap(s.ackBuf) < n {
					s.ackBuf = make([]byte, 0, n)
				}
				ackMap = s.ackBuf[:0]
			}
			ackMap = SetAckBit(ackMap, i)
		}
	}
	if ackMap != nil {
		s.ackBuf = ackMap
	}
	s.pendingAcks = s.pendingAcks[:0]
	beacon := Beacon{AckMap: ackMap}
	s.beacons++

	// Eligible view: the clients with pending work, in FIFO order of
	// their head packets. Each slot serves a group and strikes its
	// members from the view (the serve-once-per-CFP rule), so the loop
	// iterates pending work only — the full client roster is never
	// touched.
	elig := s.eligible()
	var cfpSlots int
	for len(elig) > 0 {
		group := s.picker.PickGroup(elig, s.cfg.GroupSize, s.est)
		if len(group) == 0 {
			break
		}
		res := s.run(group)
		if len(res.Rate) != len(group) || len(res.Lost) != len(group) {
			panic(fmt.Sprintf("mac: SlotRunner returned %d/%d results for %d clients", len(res.Rate), len(res.Lost), len(group)))
		}
		cfpSlots++
		now := s.slots + cfpSlots
		for i, c := range group {
			born, dropped := s.dequeueOne(c, res.Lost[i])
			if res.Lost[i] {
				s.pendingAcks = append(s.pendingAcks, ackEntry{c, false})
				if dropped && s.tracer != nil {
					s.tracer.PacketDropped(c, born, now)
				}
			} else {
				s.pendingAcks = append(s.pendingAcks, ackEntry{c, true})
				if s.tracer != nil {
					s.tracer.PacketDelivered(c, born, now, res.Rate[i])
				}
			}
		}
		// Strike served group members from the eligible view in place.
		kept := elig[:0]
		for _, c := range elig {
			if !slices.Contains(group, c) {
				kept = append(kept, c)
			}
		}
		elig = kept
	}
	// The duration field is 16 bits on the wire; a CFP that outruns it
	// (65536 single-client slots is legal at the per-cell population
	// cap) announces the clamped maximum rather than a truncated —
	// possibly zero — length. The airtime clock below keeps the true
	// count either way.
	beacon.CFPDurationSlots = ClampCFPDuration(cfpSlots)
	if cfpSlots > int(beacon.CFPDurationSlots) {
		s.wireClamps++
	}
	s.slots += cfpSlots + s.cfg.CPSlots
	return beacon
}

// RunSlot forms and runs a single transmission group from the current
// queue without the CFP serve-once-per-client constraint, for
// infinite-demand experiments (paper Section 10.3: each client always has
// pending traffic, and the concurrency algorithm alone decides who is
// served). It returns the group that transmitted (nil if the queue is
// empty); the slice is the picker's, valid until the next RunSlot or
// RunCFP. Lost packets are requeued subject to MaxRetries.
func (s *Simulator) RunSlot() []ClientID {
	if s.queueLen == 0 {
		return nil
	}
	group := s.picker.PickGroup(s.eligible(), s.cfg.GroupSize, s.est)
	if len(group) == 0 {
		return nil
	}
	res := s.run(group)
	if len(res.Rate) != len(group) || len(res.Lost) != len(group) {
		panic(fmt.Sprintf("mac: SlotRunner returned %d/%d results for %d clients", len(res.Rate), len(res.Lost), len(group)))
	}
	s.slots++
	for i, c := range group {
		born, dropped := s.dequeueOne(c, res.Lost[i])
		if res.Lost[i] {
			if dropped && s.tracer != nil {
				s.tracer.PacketDropped(c, born, s.slots)
			}
		} else if s.tracer != nil {
			s.tracer.PacketDelivered(c, born, s.slots, res.Rate[i])
		}
	}
	return group
}

// dequeueOne removes the client's head packet; if lost and retries
// remain it is re-appended at the logical FIFO tail — a fresh arrival
// stamp, so it ranks behind everything currently queued ("the client
// ... asks for a new transmission slot next time it is polled"). It
// returns the packet's born slot and whether it left the system for
// good on a loss.
func (s *Simulator) dequeueOne(c ClientID, lost bool) (born int, dropped bool) {
	if int(c) >= len(s.queues) || s.queues[c].empty() {
		return 0, false
	}
	qp := s.queues[c].pop()
	s.queueLen--
	if lost {
		if qp.retries < s.cfg.MaxRetries {
			s.seq++
			s.queues[c].push(queuedPacket{client: c, retries: qp.retries + 1, born: qp.born, seq: s.seq})
			s.queueLen++
			return qp.born, false
		}
		return qp.born, true
	}
	return qp.born, false
}
