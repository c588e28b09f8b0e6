package sim

import (
	"fmt"
	"slices"

	"iaclan/internal/mac"
	"iaclan/internal/sched"
)

// Transport configures the per-client windowed transport — the closed
// loop above the MAC. With it enabled, arrivals buffer in a per-client
// flow queue and enter the MAC only while the client's congestion
// window has room; the window grows and shrinks off the delivery/loss
// outcomes the next beacon's ack map reports (AIMD), and a packet the
// MAC gives up on (past Config.MaxRetries) is retransmitted by the
// transport after a timeout with exponential backoff, re-entering the
// MAC deque through the same EnqueueBorn retry path so its original
// born slot — and therefore its latency accounting — survives every
// round trip. Optional multi-AP striping rotates which AP anchors the
// uplink cancellation chain per cycle, spreading a flow's window across
// the cell's N-AP chains in the spirit of coded multi-path transport.
//
// The zero value (Enabled false) is bit-for-bit the legacy open-loop
// model: arrivals go straight to the MAC, losses past the MAC's retry
// budget are final, and nothing above the MAC reacts.
type Transport struct {
	// Enabled turns the windowed transport on. All other fields are
	// ignored — and must be zero — when it is false.
	Enabled bool
	// Window is the initial congestion window in packets. Zero means 4.
	Window int
	// RTOCycles is the base retransmit timeout in CFP cycles; attempt k
	// waits RTOCycles<<min(k-1, 6). Zero means 8.
	RTOCycles int
	// MaxRetransmits bounds transport-level retransmissions per packet
	// (on top of the MAC's own MaxRetries per attempt); a packet that
	// exhausts it counts as Dropped. Zero means 4.
	MaxRetransmits int
	// Stripes spreads a flow's window across the uplink chains by
	// rotating the AP order of each planned slot with the head client
	// and cycle index. 0 and 1 both mean no striping; requires an
	// uplink and at most APs stripes.
	Stripes int
}

// maxWindow caps the congestion window, in packets.
const maxWindow = 64

// enabled reports whether the closed transport loop runs.
func (t Transport) enabled() bool { return t.Enabled }

// validate rejects parameters outside the model. Cross-field rules
// (workload, direction, AP count) live in Config.validate.
func (t Transport) validate() error {
	if !t.Enabled {
		if t != (Transport{}) {
			return fmt.Errorf("sim: Transport fields set without Transport.Enabled")
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Window", t.Window},
		{"RTOCycles", t.RTOCycles},
		{"MaxRetransmits", t.MaxRetransmits},
		{"Stripes", t.Stripes},
	} {
		if f.v < 0 {
			return fmt.Errorf("sim: Transport.%s must be >= 0", f.name)
		}
	}
	n := t.normalized()
	if n.Window > maxWindow {
		return fmt.Errorf("sim: Transport.Window %d exceeds the window cap %d", n.Window, maxWindow)
	}
	return nil
}

// normalized fills the defaults documented on each field.
func (t Transport) normalized() Transport {
	if !t.Enabled {
		return t
	}
	if t.Window == 0 {
		t.Window = 4
	}
	if t.RTOCycles == 0 {
		t.RTOCycles = 8
	}
	if t.MaxRetransmits == 0 {
		t.MaxRetransmits = 4
	}
	if t.Stripes == 0 {
		t.Stripes = 1
	}
	return t
}

// TransportStats is one trial's transport-plane accounting; zero when
// the transport is disabled. In a Summary the counters sum across
// trials and MeanFinalCwnd averages.
type TransportStats struct {
	// Enabled records whether the closed loop ran (so renderers can
	// tell "no retransmissions needed" from "no transport").
	Enabled bool
	// Retransmits counts packets the transport re-injected after a
	// final MAC drop; Timeouts counts the RTO timer firings that
	// triggered them (one firing can release several packets).
	Retransmits int
	Timeouts    int
	// WindowLimitedCycles counts cycles in which at least one client
	// had flow-queue backlog it could not admit for lack of window.
	WindowLimitedCycles int
	// MeanFinalCwnd is the mean congestion window across clients at
	// trial end (always >= 1 when the transport ran).
	MeanFinalCwnd float64
}

// tpPkt is one transport-tracked packet: its true arrival slot and how
// many transport retransmissions it has burned.
type tpPkt struct {
	born     int
	attempts int
}

// rtxPkt is a packet waiting out its retransmit timeout.
type rtxPkt struct {
	tpPkt
	due int // cycle index at which it re-enters the MAC
}

// tpFlow is one client's flow queue: arrivals waiting for window room,
// a slice-backed deque like the MAC's clientQueue.
type tpFlow struct {
	pkts []tpPkt
	head int
}

func (f *tpFlow) len() int { return len(f.pkts) - f.head }

func (f *tpFlow) push(p tpPkt) {
	if f.head >= len(f.pkts) {
		f.pkts = f.pkts[:0]
		f.head = 0
	} else if f.head > 32 && f.head*2 >= len(f.pkts) {
		n := copy(f.pkts, f.pkts[f.head:])
		f.pkts = f.pkts[:n]
		f.head = 0
	}
	f.pkts = append(f.pkts, p)
}

func (f *tpFlow) pop() tpPkt {
	p := f.pkts[f.head]
	f.head++
	return p
}

// transportState is one trial's closed-loop state. Everything is plain
// per-client slices owned by the engine's goroutine; determinism needs
// only that the per-cycle passes visit clients in sorted index order.
type transportState struct {
	cfg Transport

	// cwnd is the congestion window in packets (float so additive
	// increase accumulates sub-packet credit); the admission limit is
	// its floor, never below 1.
	cwnd []float64
	// flows holds arrivals awaiting window room; flowActive/flowMark is
	// the dirty set of clients with queued flow backlog.
	flows      []tpFlow
	flowActive []int32
	flowMark   []bool

	// inflight mirrors each client's packets currently inside the MAC
	// (admission order). The MAC can serve retried packets out of that
	// order, so lookups match by born; sizes stay <= maxWindow.
	inflight [][]tpPkt

	// Beacon tallies: outcomes the tracer hooks record during RunCFP,
	// processed at the start of the next cycle — the information the
	// next beacon's AckMap carries back to the clients. acks counts
	// deliveries; losses collects final MAC drops awaiting a
	// retransmit-or-abandon decision.
	acks      []int
	losses    [][]tpPkt
	touched   []int32
	touchMark []bool

	// Retransmit plane: per-client backoff queues with an RTO timer per
	// client on a dedicated wheel, armed at the client's earliest due
	// cycle. Advanced once per cycle in cycle order.
	rtxq     [][]rtxPkt
	rtxWheel *sched.Wheel
	rtxFired []int32

	// Trial counters for TransportStats.
	retransmits   int
	timeouts      int
	windowLimited int
}

func newTransportState(cfg Transport, clients int) *transportState {
	tp := &transportState{
		cfg:       cfg,
		cwnd:      make([]float64, clients),
		flows:     make([]tpFlow, clients),
		flowMark:  make([]bool, clients),
		inflight:  make([][]tpPkt, clients),
		acks:      make([]int, clients),
		losses:    make([][]tpPkt, clients),
		touchMark: make([]bool, clients),
		rtxq:      make([][]rtxPkt, clients),
		rtxWheel:  sched.New(clients),
	}
	for i := range tp.cwnd {
		tp.cwnd[i] = float64(cfg.Window)
	}
	return tp
}

// window is client i's current admission limit in packets.
func (tp *transportState) window(i int) int {
	w := int(tp.cwnd[i])
	if w < 1 {
		w = 1
	}
	return w
}

func (tp *transportState) touch(i int) {
	if !tp.touchMark[i] {
		tp.touchMark[i] = true
		tp.touched = append(tp.touched, int32(i))
	}
}

// push buffers one arrival in the client's flow queue; the caller has
// already applied the MaxQueue cap.
func (tp *transportState) push(i int, p tpPkt) {
	tp.flows[i].push(p)
	if !tp.flowMark[i] {
		tp.flowMark[i] = true
		tp.flowActive = append(tp.flowActive, int32(i))
	}
}

// onAck records a delivery the tracer observed: the packet leaves the
// inflight mirror and the next beaconClock pass grows the window.
func (tp *transportState) onAck(i, born int) {
	tp.removeInflight(i, born)
	tp.acks[i]++
	tp.touch(i)
}

// onLoss intercepts a final MAC drop: the packet (with its transport
// attempt count) parks in the loss buffer until the next beaconClock
// pass decides between a backoff retransmit and abandonment.
func (tp *transportState) onLoss(i, born int) {
	p := tp.removeInflight(i, born)
	tp.losses[i] = append(tp.losses[i], p)
	tp.touch(i)
}

// removeInflight pops the first inflight entry with the given born.
// Same-born entries are interchangeable for accounting (identical
// latency semantics); attempts ride along with whichever matched.
func (tp *transportState) removeInflight(i, born int) tpPkt {
	fl := tp.inflight[i]
	for k := range fl {
		if fl[k].born == born {
			p := fl[k]
			tp.inflight[i] = append(fl[:k], fl[k+1:]...)
			return p
		}
	}
	// A packet the engine never admitted (impossible by construction);
	// treat as a fresh one rather than corrupt state.
	return tpPkt{born: born}
}

// rto is the backoff delay in cycles before retransmission attempt k
// (1-based): base<<min(k-1, 6), the cap keeping the shift sane however
// MaxRetransmits is configured.
func (tp *transportState) rto(attempt int) int {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	return tp.cfg.RTOCycles << shift
}

// beaconClock processes the previous cycle's delivery/loss tallies —
// the closed loop's ACK clocking. Runs at the top of each cycle, before
// traffic generation, in sorted client order: additive increase on
// ack-only beacons, halving plus retransmit scheduling on losses.
func (e *engine) beaconClock(c int) {
	tp := e.tp
	if len(tp.touched) == 0 {
		return
	}
	slices.Sort(tp.touched)
	maxW := float64(maxWindow)
	for _, id := range tp.touched {
		i := int(id)
		tp.touchMark[i] = false
		a, lost := tp.acks[i], tp.losses[i]
		tp.acks[i] = 0
		if len(lost) > 0 {
			// Multiplicative decrease, once per beacon however many
			// packets the CFP lost.
			tp.cwnd[i] /= 2
			if tp.cwnd[i] < 1 {
				tp.cwnd[i] = 1
			}
			for _, p := range lost {
				if p.attempts >= tp.cfg.MaxRetransmits {
					// Transport budget exhausted: now the drop is final.
					e.dropped[i]++
					continue
				}
				p.attempts++
				due := c + tp.rto(p.attempts)
				tp.rtxq[i] = append(tp.rtxq[i], rtxPkt{tpPkt: p, due: due})
				tp.armRtx(i)
			}
			tp.losses[i] = lost[:0]
		} else if a > 0 {
			// Additive increase: one packet per window's worth of acks.
			tp.cwnd[i] += float64(a) / tp.cwnd[i]
			if tp.cwnd[i] > maxW {
				tp.cwnd[i] = maxW
			}
		}
	}
	tp.touched = tp.touched[:0]
}

// armRtx (re)arms client i's RTO timer at its earliest due cycle.
func (tp *transportState) armRtx(i int) {
	q := tp.rtxq[i]
	if len(q) == 0 {
		return
	}
	min := q[0].due
	for _, p := range q[1:] {
		if p.due < min {
			min = p.due
		}
	}
	tp.rtxWheel.Schedule(i, uint64(min))
}

// fireRetransmits advances the RTO wheel to the current cycle and
// re-injects every due packet through the MAC's EnqueueBorn retry path
// — original born slot preserved, so the backoff wait and any retrain
// airtime in between count toward delivered latency. Fired clients are
// sorted first, keeping the enqueue order deterministic.
func (e *engine) fireRetransmits(c int) {
	tp := e.tp
	tp.rtxFired = tp.rtxWheel.Advance(uint64(c), tp.rtxFired[:0])
	if len(tp.rtxFired) == 0 {
		return
	}
	slices.Sort(tp.rtxFired)
	for _, id := range tp.rtxFired {
		i := int(id)
		tp.timeouts++
		kept := tp.rtxq[i][:0]
		released := 0
		for _, p := range tp.rtxq[i] {
			if p.due > c {
				kept = append(kept, p)
				continue
			}
			e.pending[i]++
			e.sim.EnqueueBorn(mac.ClientID(i), p.born)
			tp.inflight[i] = append(tp.inflight[i], p.tpPkt)
			tp.retransmits++
			released++
		}
		tp.rtxq[i] = kept
		tp.armRtx(i)
		if released > 0 {
			if e.app != nil {
				e.app.wake(i, e.sim.Slots())
			}
			e.emit(Event{Kind: EventRetransmit, Cycle: c,
				Slot: e.sim.Slots(), Value: float64(released)})
		}
	}
}

// admit moves flow-queue backlog into the MAC up to each client's
// window, in sorted client order. Clients still backlogged afterwards
// are window-limited and stay in the dirty set.
func (e *engine) admitWindows() {
	tp := e.tp
	if len(tp.flowActive) == 0 {
		return
	}
	slices.Sort(tp.flowActive)
	kept := tp.flowActive[:0]
	limited := false
	for _, id := range tp.flowActive {
		i := int(id)
		w := tp.window(i)
		for tp.flows[i].len() > 0 && e.pending[i] < w {
			p := tp.flows[i].pop()
			e.pending[i]++
			e.sim.EnqueueBorn(mac.ClientID(i), p.born)
			tp.inflight[i] = append(tp.inflight[i], p)
		}
		if tp.flows[i].len() > 0 {
			kept = append(kept, id)
			limited = true
		} else {
			tp.flowMark[i] = false
		}
	}
	tp.flowActive = kept
	if limited {
		tp.windowLimited++
	}
}

// stats freezes the trial's transport counters.
func (tp *transportState) stats() TransportStats {
	s := TransportStats{
		Enabled:             true,
		Retransmits:         tp.retransmits,
		Timeouts:            tp.timeouts,
		WindowLimitedCycles: tp.windowLimited,
	}
	for _, w := range tp.cwnd {
		s.MeanFinalCwnd += w
	}
	if len(tp.cwnd) > 0 {
		s.MeanFinalCwnd /= float64(len(tp.cwnd))
	}
	return s
}
