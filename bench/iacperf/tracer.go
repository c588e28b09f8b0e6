package main

import (
	"time"

	"iaclan"
)

// span names the layer an event closes. The tracer attributes to each
// event the host time since the previous event of the same (cell, trial)
// job: attribution by closing event, not true self time — whatever ran
// between two events is charged to the second one's layer.
type span int

const (
	spanPlan       span = iota // slot-planned: group planning on the PHY
	spanSlot                   // slot-evaluated, chain-decode-failed: MAC slot execution
	spanTraffic                // timers-fired: arrival generation on the timing wheel
	spanRetrain                // retrain: channel aging and training surveys
	spanRetransmit             // retransmit: transport RTO firings
	spanOther                  // every other event kind
	numSpans
)

func spanOf(k iaclan.SimEventKind) span {
	switch k {
	case iaclan.SimEventSlotPlanned:
		return spanPlan
	case iaclan.SimEventSlotEvaluated, iaclan.SimEventChainDecodeFailed:
		return spanSlot
	case iaclan.SimEventTimersFired:
		return spanTraffic
	case iaclan.SimEventRetrain:
		return spanRetrain
	case iaclan.SimEventRetransmit:
		return spanRetransmit
	}
	return spanOther
}

// jobSpans is one (cell, trial) job's accumulator. Only the worker
// running the job writes it, so it needs no locking; the padding keeps
// two workers' jobs off one cache line.
type jobSpans struct {
	first, last, done int64 // monotonic ns since the tracer's base; 0 = no event yet
	ns                [numSpans]int64
	events            [numSpans]int64
	_                 [128 - (3+2*numSpans)*8%128]byte
}

// spanTracer is the benchmark's own iaclan.SimTracer. All accumulators
// are allocated before the run starts, so tracing allocates nothing.
type spanTracer struct {
	base   time.Time
	trials int
	jobs   []jobSpans
}

func newSpanTracer(cells, trials int) *spanTracer {
	return &spanTracer{base: time.Now(), trials: trials, jobs: make([]jobSpans, cells*trials)}
}

// Trace implements iaclan.SimTracer. Events outside a job (cell-done
// carries the cell's trial count as its Trial) are ignored.
func (t *spanTracer) Trace(ev iaclan.SimEvent) {
	if ev.Trial < 0 || ev.Trial >= t.trials || ev.Cell < 0 || ev.Cell*t.trials >= len(t.jobs) {
		return
	}
	a := &t.jobs[ev.Cell*t.trials+ev.Trial]
	now := int64(time.Since(t.base))
	if a.last == 0 {
		a.first, a.last = now, now
	}
	s := spanOf(ev.Kind)
	a.ns[s] += now - a.last
	a.events[s]++
	a.last = now
	if ev.Kind == iaclan.SimEventTrialDone {
		a.done = now
	}
}

// totals sums every job's span time and event count.
func (t *spanTracer) totals() (ns, events [numSpans]int64) {
	for i := range t.jobs {
		for s := range numSpans {
			ns[s] += t.jobs[i].ns[s]
			events[s] += t.jobs[i].events[s]
		}
	}
	return ns, events
}

// jobSeconds returns each job's host time from its first event to its
// trial-done event. Engine construction before the first event is not
// included.
func (t *spanTracer) jobSeconds() []float64 {
	out := make([]float64, 0, len(t.jobs))
	for _, a := range t.jobs {
		if a.done > 0 {
			out = append(out, float64(a.done-a.first)/1e9)
		}
	}
	return out
}
