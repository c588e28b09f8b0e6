package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"iaclan"
)

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64 // timed-rep loop length
	trace   bool    // also run the traced rep and the layer probes
	minReps int     // timed reps run even when seconds elapse sooner
	setups  int     // Cycles: 1 calls behind setup_s
	budget  time.Duration
	// cycles, when positive, replaces the workload's cycle count (the
	// smoke test's tiny runs).
	cycles int
	// refs, when set, holds the values every rep's campus outcome must
	// match within the reference bands.
	refs map[string]reference
}

// metric is one reported number. NaN marks a per-layer metric whose
// source (a registry counter, an event kind) is absent from the program.
type metric struct {
	name, unit string
	value      float64
	q1, q3     float64 // end-to-end metrics: quartiles over the timed reps
}

// report is one workload run's outcome.
type report struct {
	workload          string
	cfg               iaclan.SimConfig
	reps              int
	digest            uint64
	outcome           reference // the first rep's values, in reference.json's shape
	attempted, failed int
	problems          []string
	hostSpeed         float64  // median host speed over the timed reps
	raw               []metric // slots_per_s and cpu_ns_per_slot in host time, for the report
	endToEnd          []metric
	perLayer          []metric
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

// run measures one workload. Every SimulateCampus call whose result is
// the workload's full config is a rep; each of its (cell, trial) jobs is
// one attempted operation, and all of them fail when the rep errors,
// breaks an invariant, differs bit for bit from the first rep, or
// leaves the reference bands.
func run(w workload, opt options) *report {
	cfg := w.config(opt.seed)
	if opt.cycles > 0 {
		cfg.Cycles = opt.cycles
	}
	rep := &report{workload: w.name, cfg: cfg}
	jobs := max(cfg.Cells.Count, 1) * cfg.Trials
	first := true
	check := func(label string, s repSample) {
		rep.attempted += jobs
		err := s.err
		var d uint64
		if err == nil {
			d, err = checkResult(s.res)
		}
		if err == nil {
			switch {
			case first:
				rep.digest, first = d, false
				c := s.res.Campus
				rep.outcome = reference{c.SumThroughputBitsPerSlot, c.DeliveredFraction, c.P95LatencySlots}
			case d != rep.digest:
				err = fmt.Errorf("result_digest %016x differs from the first rep's %016x", d, rep.digest)
			}
		}
		if err == nil && opt.refs != nil {
			if ref, ok := opt.refs[w.name]; ok {
				err = checkReference(s.res, ref)
			} else {
				err = fmt.Errorf("no reference values for %s", w.name)
			}
		}
		if err != nil {
			rep.failed += jobs
			rep.problems = append(rep.problems, label+": "+err.Error())
		}
	}

	// The first rep warms the PHY workspace pool and the heap; it is
	// checked but not timed.
	check("warm-up rep", runRep(cfg))
	setups, err := setupTimes(cfg, opt.setups)
	if err != nil {
		rep.problems = append(rep.problems, "setup: "+err.Error())
		setups = []float64{math.NaN()}
	}
	clock, err := startHostClock()
	if err != nil {
		rep.problems = append(rep.problems, "host clock: "+err.Error())
		return rep
	}
	var samples []repSample
	start := time.Now()
	for len(samples) < opt.minReps || time.Since(start).Seconds() < opt.seconds {
		clock.take() // drop the samples taken between reps
		s := runRep(cfg)
		s.speed = clock.take()
		check(fmt.Sprintf("rep %d", len(samples)+1), s)
		s.res = iaclan.SimCampusResult{} // keep the numbers only
		samples = append(samples, s)
	}
	clock.Stop()
	rep.reps = len(samples)

	perRep := func(f func(s repSample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	stat := func(name, unit string, xs []float64) metric {
		q1, q3 := quartiles(xs)
		return metric{name, unit, median(xs), q1, q3}
	}
	// Times are in reference-box time: each rep's host time scaled by the
	// host speed during it, set-up time by the run's median host speed
	// (set-up calls are too short to sample).
	speed := median(perRep(func(s repSample) float64 { return s.speed }))
	for i := range setups {
		setups[i] *= speed
	}
	rep.hostSpeed = speed
	rep.raw = []metric{
		stat("slots_per_s", "slots/s", perRep(func(s repSample) float64 { return s.slots / s.wall.Seconds() })),
		stat("cpu_ns_per_slot", "ns/slot", perRep(func(s repSample) float64 { return float64(s.cpu.Nanoseconds()) / s.slots })),
	}
	rep.endToEnd = []metric{
		stat("slots_per_s", "slots/s", perRep(func(s repSample) float64 { return s.slots / (s.wall.Seconds() * s.speed) })),
		stat("cpu_ns_per_slot", "ns/slot", perRep(func(s repSample) float64 { return float64(s.cpu.Nanoseconds()) * s.speed / s.slots })),
		stat("setup_s", "s", setups),
		stat("allocs_per_slot", "allocs/slot", perRep(func(s repSample) float64 { return float64(s.mallocs) / s.slots })),
		stat("alloc_bytes_per_slot", "B/slot", perRep(func(s repSample) float64 { return float64(s.bytes) / s.slots })),
	}
	if opt.trace {
		busy := perRep(func(s repSample) float64 {
			return s.cpu.Seconds() / (s.wall.Seconds() * float64(cfg.Workers))
		})
		wall := median(perRep(func(s repSample) float64 { return s.wall.Seconds() }))
		rep.perLayer = traced(cfg, opt, check, median(busy), wall, maxRSSMB(), speed)
	}
	return rep
}

// traced runs the traced rep — a fresh registry as Obs and the span
// tracer as Trace — and the layer probes, and derives the per-layer
// metrics. End-to-end metrics never come from this rep. busyFrac, wall
// and speed are the untraced reps' medians, rssMB the process's RSS
// high-water mark after them.
func traced(cfg iaclan.SimConfig, opt options, check func(string, repSample), busyFrac, wall, rssMB, speed float64) []metric {
	reg := iaclan.NewObsRegistry()
	tr := newSpanTracer(max(cfg.Cells.Count, 1), cfg.Trials)
	tcfg := cfg
	tcfg.Obs, tcfg.Trace = reg, tr
	s := runRep(tcfg)
	check("traced rep", s) // observation must not perturb the result
	snap := reg.Snapshot()
	spanNs, events := tr.totals()

	// counter reads a registry counter; NaN when the program no longer
	// publishes it.
	counter := func(name string) float64 {
		if v, ok := snap.Counters[name]; ok {
			return float64(v)
		}
		return math.NaN()
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return math.NaN()
		}
		return num / den
	}
	slots := counter("sim_slots")
	cycles := counter("sim_cycles_completed")
	hits, misses := counter("slotcache_hits"), counter("slotcache_misses")
	batch := math.NaN()
	if d, ok := snap.Distributions["sim_batch_products"]; ok && d.Count > 0 {
		batch = d.Mean
	}
	perSlot := func(sp span) float64 { return float64(spanNs[sp]) / s.slots }
	jobS := tr.jobSeconds()
	jobMax := math.NaN()
	if len(jobS) > 0 {
		jobMax = slices.Max(jobS)
	}

	// Each client with pending traffic is served once per CFP, so the
	// mean CFP serves about GroupSize clients per CFP slot.
	in := probeInput{cfg: cfg, budget: opt.budget, slotsPerCycle: 1, eligible: cfg.GroupSize}
	if spc := slots / cycles; spc >= 1 {
		in.slotsPerCycle = int(math.Round(spc))
	}
	cfpSlots := (slots - cycles*float64(cfg.CPSlots) - counter("sim_retrain_slots")) / cycles
	if e := cfpSlots * float64(cfg.GroupSize); e >= 1 {
		in.eligible = int(math.Round(e))
	}
	probes := runProbes(in)
	probe := func(name, unit string) metric {
		v := probes[name]
		return metric{name, unit, v, v, v}
	}
	one := func(name, unit string, v float64) metric { return metric{name, unit, v, v, v} }
	return []metric{
		one("runner.busy_frac", "ratio", busyFrac),
		one("runner.job_s_p50", "s", median(jobS)),
		one("runner.job_s_max", "s", jobMax),
		one("sched.timers_fired_per_slot", "1/slot", ratio(counter("sim_timers_fired"), slots)),
		one("sched.cascades_per_fire", "ratio", ratio(counter("sim_timers_cascaded"), counter("sim_timers_fired"))),
		probe("sched.ns_per_timer", "ns"),
		one("span.traffic_ns_per_slot", "ns/slot", perSlot(spanTraffic)),
		one("mac.slots_per_cycle", "slots/cycle", ratio(slots, cycles)),
		one("mac.decode_fail_per_slot", "pkts/slot", ratio(counter("sim_chain_decode_failures"), slots)),
		probe("mac.cfp_ns_per_slot", "ns/slot"),
		probe("mac.cfp_allocs_per_slot", "allocs/slot"),
		probe("mac.pick_ns", "ns"),
		probe("mac.est_calls_per_pick", "calls"),
		one("span.slot_ns_per_slot", "ns/slot", perSlot(spanSlot)),
		one("testbed.plans_per_slot", "plans/slot", float64(events[spanPlan])/s.slots),
		one("testbed.slotcache_hit_ratio", "ratio", ratio(hits, hits+misses)),
		one("testbed.batch_products_per_plan", "products", batch),
		probe("testbed.plan_cold_ns", "ns"),
		probe("testbed.plan_cold_allocs", "allocs"),
		probe("testbed.plan_warm_ns", "ns"),
		probe("testbed.plan_warm_allocs", "allocs"),
		one("span.plan_ns_per_slot", "ns/slot", perSlot(spanPlan)),
		probe("cmplxmat.svd_ns", "ns"),
		probe("cmplxmat.eigh_ns", "ns"),
		probe("cmplxmat.roots_ns", "ns"),
		probe("channel.perturb_ns", "ns"),
		probe("channel.world_build_ms", "ms"),
		one("channel.retrains_per_cycle", "1/cycle", ratio(counter("sim_retrain_rounds"), cycles)),
		one("span.retrain_ns_per_slot", "ns/slot", perSlot(spanRetrain)),
		probe("backend.publish_ns", "ns"),
		probe("backend.publish_allocs", "allocs"),
		one("backend.bytes_per_slot", "B/slot", float64(s.res.Campus.BackendBytes)/s.slots),
		one("transport.retransmits_per_slot", "1/slot", ratio(counter("sim_transport_retransmits"), slots)),
		one("transport.timeouts_per_slot", "1/slot", ratio(counter("sim_transport_timeouts"), slots)),
		one("span.retransmit_ns_per_slot", "ns/slot", perSlot(spanRetransmit)),
		probe("agg.summarize_ns", "ns"),
		probe("stats.sketch_merge_ns", "ns"),
		probe("stats.sketch_bytes", "B"),
		one("trace.overhead_frac", "ratio", s.wall.Seconds()/wall-1),
		one("runtime.max_rss_mb", "MB", rssMB),
		one("host.speed", "ratio", speed),
	}
}
