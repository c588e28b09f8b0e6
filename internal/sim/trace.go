package sim

// EventKind names a lifecycle event in the trace stream.
type EventKind uint8

const (
	// EventSlotPlanned fires when the engine plans a transmission group
	// on the PHY (a group-plan cache miss — the expensive zero-forcing /
	// precoding work). Group is the group size, Value the planned sum
	// rate in bit/s/Hz.
	EventSlotPlanned EventKind = iota + 1
	// EventSlotEvaluated fires after each executed CFP slot. Group is
	// the group size, Slot the airtime clock after the slot, Value the
	// achieved sum rate in bit/s/Hz.
	EventSlotEvaluated
	// EventChainDecodeFailed fires when a slot loses packets — a failed
	// group plan (degenerate channels) or an outage where the realized
	// channel fell short of the planned modulation. Value is the number
	// of packets lost in the slot.
	EventChainDecodeFailed
	// EventRetrain fires when the re-training schedule runs a survey
	// round. Cycle is the CFP cycle, Value the training slots charged.
	EventRetrain
	// EventTimersFired fires once per cycle in which the event-driven
	// traffic plane popped expired arrival timers off the hierarchical
	// wheel. Slot is the airtime clock the wheel advanced to, Value the
	// number of timers that fired. Never emitted for saturated workloads
	// (which have no timers) or by the scan reference plane.
	EventTimersFired
	// EventTrialDone fires once per finished trial. Slot carries the
	// trial's total airtime, Value its sum throughput in bits/slot.
	EventTrialDone
	// EventCellDone fires when the last trial of a campus cell
	// completes. Value is the cell's mean sum throughput in bits/slot.
	EventCellDone
	// EventRetransmit fires when the transport's RTO timer re-injects a
	// client's timed-out packets into the MAC. Slot is the airtime
	// clock, Value the number of packets released by the firing.
	EventRetransmit
	// EventRebuffer fires when a streaming client's playback buffer
	// runs dry mid-stream. Slot is the airtime clock of the delivery
	// that observed the stall, Value the client's cumulative rebuffer
	// count.
	EventRebuffer
)

// String names the kind for logs and test failure messages.
func (k EventKind) String() string {
	switch k {
	case EventSlotPlanned:
		return "slot-planned"
	case EventSlotEvaluated:
		return "slot-evaluated"
	case EventChainDecodeFailed:
		return "chain-decode-failed"
	case EventRetrain:
		return "retrain"
	case EventTimersFired:
		return "timers-fired"
	case EventTrialDone:
		return "trial-done"
	case EventCellDone:
		return "cell-done"
	case EventRetransmit:
		return "retransmit"
	case EventRebuffer:
		return "rebuffer"
	}
	return "unknown"
}

// Event is one structured lifecycle event. It is deliberately all
// scalars — no slices, strings, or pointers — so emitting one is a
// stack-only copy and the nil-tracer path stays zero-alloc (pinned by
// BenchmarkTraceEmitNil).
type Event struct {
	Kind EventKind
	// Cell and Trial locate the emitting engine in a campus sweep
	// (both 0 for a single Run).
	Cell  int
	Trial int
	// Cycle is the CFP cycle and Slot the airtime clock at emission,
	// where meaningful.
	Cycle int
	Slot  int
	// Group is the transmission-group size for slot events.
	Group int
	// Value is the kind-specific scalar documented on each kind.
	Value float64
}

// Tracer receives the engine's lifecycle events. Implementations must
// be cheap — they run inline with the simulation — and, because sweep
// workers emit concurrently, safe for concurrent use. Tracing must
// never feed back into the simulation: the engine hands out scalar
// copies and ignores the tracer entirely otherwise, so attaching one
// cannot perturb any RNG stream (the determinism tests pin this).
type Tracer interface {
	Trace(Event)
}

// emit forwards an event to the configured tracer, tagging it with the
// engine's campus coordinates. The nil-tracer fast path is a single
// branch and never allocates.
func (e *engine) emit(ev Event) {
	if e.trace == nil {
		return
	}
	ev.Cell, ev.Trial = e.cell, e.trial
	e.trace.Trace(ev)
}
