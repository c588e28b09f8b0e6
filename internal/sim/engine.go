package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"iaclan/internal/backend"
	"iaclan/internal/channel"
	"iaclan/internal/core"
	"iaclan/internal/flat"
	"iaclan/internal/mac"
	"iaclan/internal/phy"
	"iaclan/internal/sched"
	"iaclan/internal/stats"
	"iaclan/internal/testbed"
)

// saturatedDepth is how many packets a saturated source keeps queued.
// One suffices for the serve-once-per-CFP discipline; the second covers
// the retry a loss re-appends, so saturated queues never run dry.
const saturatedDepth = 2

// arrival is one pending packet birth, sorted into true arrival order
// across clients before enqueueing.
type arrival struct {
	born   float64
	client int
}

// maxGroup is the largest transmission group the engine plans (the
// width of planKey).
const maxGroup = 3

// groupOutcome caches one transmission group's planned slot result so
// the rate estimator (called combinatorially by the pickers) and the
// slot runner share the planning work, as in the Fig. 15 experiment.
// It is a plain value: the per-client rates sit in fixed arrays.
type groupOutcome struct {
	sumRate float64
	// served is how many group members the slot serves: client[i]
	// achieved rate[i] for i < served. A member not listed was not
	// served (fallback slots carry only the head).
	served  int
	packets int
	rate    [maxGroup]float64
	// planned[i] is the rate the leader planned client[i]'s packets at
	// (from the last training survey), valid when hasPlanned. Set under
	// channel dynamics and under the MCS link plane, where
	// achieved-vs-planned decides outage losses; in the legacy
	// continuous model the head-only fallback has none (the baseline is
	// granted ideal rate adaptation).
	planned    [maxGroup]float64
	client     [maxGroup]mac.ClientID
	ok         bool
	hasPlanned bool
}

// member returns the served slot index of client c, or -1.
func (o *groupOutcome) member(c mac.ClientID) int {
	for i, m := range o.client[:o.served] {
		if m == c {
			return i
		}
	}
	return -1
}

// engine simulates one trial: one world, one MAC, one wired plane.
type engine struct {
	cfg      Config
	scenario testbed.Scenario
	rng      *rand.Rand
	sim      *mac.Simulator
	payload  []byte
	// wireBytes is the wired plane's load: the backend wire bytes of
	// every message publish sent, each counted once regardless of port.
	wireBytes int64
	// chainAPs is how many of the scenario's APs an uplink chain slot
	// engages: every AP up to the construction's usable maximum of M+2
	// (core.UplinkChainMaxAPs). With the paper's 3-AP cluster this is 3;
	// denser clusters spread the successive-cancellation chain wider.
	chainAPs int

	// ws is the trial's sample-plane workspace: every survey, slot plan,
	// baseline and evaluation runs its linear algebra on this arena,
	// borrowed from the process-wide pool by newEngine for the trial's
	// lifetime.
	ws *phy.Workspace
	// chans is the leader's channel survey: per-(tx,rx) training
	// estimates, refreshed on the re-training schedule.
	chans *testbed.SlotCache
	// outcomes memoizes each transmission group's planned outcome — the
	// precoding/zero-forcing work the combinatorial pickers would
	// otherwise redo per candidate evaluation — keyed by planKey, in
	// chans' generation: it moves on a fading change and on a retrain,
	// and the memo's first lookup in a new generation drops every row.
	outcomes flat.Memo[groupOutcome]

	// Channel-dynamics state: the normalized Dynamics block, a dedicated
	// RNG for waypoint draws (so mobility never re-orders the traffic or
	// planner streams), and each client's current waypoint.
	dyn       Dynamics
	dynRng    *rand.Rand
	waypoints []waypoint

	// Per-client traffic state.
	gens  []Generator
	next  []float64 // next arrival time in slots (timed workloads)
	batch []arrival // reusable arrival-sorting scratch

	// Closed-loop planes, both nil in the legacy open-loop model: tp is
	// the windowed transport (Config.Transport), app the streaming
	// application plane (WorkloadStreaming). stripes > 1 rotates the
	// uplink chain's AP order per (head, cycle) — rotBuf is the reused
	// rotation scratch.
	tp      *transportState
	app     *appState
	stripes int
	rotBuf  []*channel.Node

	// slotRate and slotLost back the SlotResult runSlot hands the MAC,
	// reused slot after slot.
	slotRate []float64
	slotLost []bool
	// subClients backs the per-plan sub-scenario's client list.
	subClients []*channel.Node

	// Event-driven traffic plane (the default path). For
	// timed workloads every client's next arrival is an armed timer on
	// the hierarchical wheel, so a cycle costs the timers that fire, not
	// the roster. Saturated workloads have no timers; refill/refillMark
	// track the clients whose queues the MAC drained since the last
	// top-up instead. Both are nil under Config.scan, the legacy
	// every-client-every-cycle sweep kept as the differential-testing
	// reference.
	wheel      *sched.Wheel
	fired      []int32
	refill     []int32
	refillMark []bool

	// Per-client accounting (index = scenario client index). Latency
	// lives in quantile sketches, not sample slices, so the accounting
	// stays allocation-flat however many packets a trial delivers; on a
	// large roster the store's sketches are sparse (~100 B each) and
	// allocated on the first delivered packet, so a mostly-idle campus
	// pays about 100 B per client.
	pending   []int
	offered   []int
	delivered []int
	dropped   []int
	bufDrops  []int
	rateSum   []float64
	lat       latStore

	// Observability state: resolved metric handles (nil without a
	// registry), the lifecycle tracer (nil is a zero-alloc no-op), the
	// engine's campus coordinates for event tagging, and the plain
	// local tallies the engine batches on the hot path and flushes to
	// the registry once, when the trial ends.
	met         *simMetrics
	trace       Tracer
	cell, trial int
	cycleNo     int
	outages     int
	lostPackets int
	retrains    int
	retrainCost int
	// batchSketch locally distributes the slot planner's per-plan
	// direction-product counts (SlotOutcome.Batched); merged into the
	// registry's sim_batch_products distribution at trial end, so the
	// hot path touches no shared state. Untouched when met is nil.
	// Dense and stored inline, so it costs the trial no allocation.
	batchSketch stats.DenseSketch
}

func newEngine(cfg Config) (*engine, error) {
	// The fallible set-up runs first, so no error path holds the
	// workspace the engine borrows below.
	gens, err := cfg.Workload.newGenerators(cfg.Clients)
	if err != nil {
		return nil, err
	}
	picker, err := newPicker(cfg)
	if err != nil {
		return nil, err
	}
	worldNodes := cfg.Clients + cfg.APs
	if worldNodes < 20 {
		worldNodes = 20
	}
	world := channel.NewTestbed(channel.DefaultParams(), cfg.Seed, worldNodes, roomMeters)
	scenario := testbed.PickScenario(world, cfg.Clients, cfg.APs)
	// The link environment rides on the scenario: every slot runner,
	// estimate draw, and baseline rate below sees the same operating
	// point. The zero-value Link yields the zero-value Env, the legacy
	// model.
	scenario.Env = cfg.Link.env()
	e := &engine{
		cfg:       cfg,
		scenario:  scenario,
		rng:       rand.New(rand.NewSource(cfg.Seed + 7)),
		payload:   make([]byte, cfg.PacketBytes),
		next:      make([]float64, cfg.Clients),
		pending:   make([]int, cfg.Clients),
		offered:   make([]int, cfg.Clients),
		delivered: make([]int, cfg.Clients),
		dropped:   make([]int, cfg.Clients),
		bufDrops:  make([]int, cfg.Clients),
		rateSum:   make([]float64, cfg.Clients),
		lat:       newLatStore(cfg.Clients),
		met:       newSimMetrics(cfg.Obs),
		trace:     cfg.Trace,
		cell:      cfg.cell,
		trial:     cfg.trial,
		ws:        phy.GetWorkspace(),
		gens:      gens,
	}
	e.chans = testbed.NewSlotCache(e.scenario)
	e.chainAPs = cfg.APs
	if max := core.UplinkChainMaxAPs(world.Params().Antennas); e.chainAPs > max {
		e.chainAPs = max
	}
	e.dyn = cfg.Dynamics.normalized()
	if e.dyn.enabled() {
		e.dynRng = rand.New(rand.NewSource(cfg.Seed + 13))
		// Stale CSI: estimates refresh on the re-training schedule only,
		// and the slot runners report planned rates so runSlot can
		// detect outages (the MCS table has them report planned rates
		// on its own). The trial opens on a full survey of the fresh
		// channel (later rounds run on the re-training schedule).
		e.chans.TrackPlannedRates(true)
		e.surveyAll()
		if e.dyn.Mobility {
			e.waypoints = make([]waypoint, cfg.Clients)
			for i := range e.waypoints {
				e.waypoints[i] = e.randWaypoint()
			}
		}
	}
	for i, g := range e.gens {
		if cfg.Workload.Kind != Saturated {
			// Stagger the sources: the first arrival lands a random
			// fraction of one inter-arrival gap into the run.
			e.next[i] = g.Next(e.rng) * e.rng.Float64()
		}
	}
	if !cfg.scan {
		if cfg.Workload.Kind == Saturated {
			// No timers: saturated queues refill whenever the MAC drains
			// them, so the dirty set starts as the whole roster and then
			// tracks served clients only.
			e.refillMark = make([]bool, cfg.Clients)
			e.refill = make([]int32, 0, cfg.Clients)
			for i := range e.refillMark {
				e.refillMark[i] = true
				e.refill = append(e.refill, int32(i))
			}
		} else {
			// Arm one arrival timer per client. An idle client costs
			// nothing from here on until its timer fires.
			e.wheel = sched.New(cfg.Clients)
			for i := range e.next {
				e.wheel.Schedule(i, arrivalDeadline(e.next[i]))
			}
		}
	}
	if cfg.Transport.enabled() {
		e.tp = newTransportState(cfg.Transport, cfg.Clients)
		if s := cfg.Transport.Stripes; s > 1 {
			if s > e.chainAPs {
				s = e.chainAPs
			}
			e.stripes = s
			e.rotBuf = make([]*channel.Node, e.chainAPs)
		}
	}
	if cfg.Workload.Kind == Streaming {
		e.app = newAppState(cfg.Workload)
		e.app.init(cfg.Clients)
	}
	e.sim = mac.NewSimulator(
		mac.Config{GroupSize: cfg.GroupSize, CPSlots: cfg.CPSlots, MaxRetries: cfg.MaxRetries},
		picker, e.estimate, e.runSlot,
	)
	e.sim.SetTracer(e)
	return e, nil
}

func newPicker(cfg Config) (mac.GroupPicker, error) {
	switch cfg.Picker {
	case PickerFIFO:
		return mac.FIFOPicker{}, nil
	case PickerBestOfTwo:
		return mac.NewBestOfTwoPicker(cfg.Seed+101, 8), nil
	case PickerBruteForce:
		return mac.BruteForcePicker{}, nil
	}
	return nil, fmt.Errorf("sim: unknown picker %q", cfg.Picker)
}

// Run simulates one trial and returns its metrics. Multi-cell configs
// are rejected: a campus is a set of concurrent cells, not one trial —
// use RunCampus.
func Run(cfg Config) (TrialResult, error) {
	cfg, err := cfg.prepare()
	if err != nil {
		return TrialResult{}, err
	}
	if cfg.Cells.enabled() {
		return TrialResult{}, fmt.Errorf("sim: Cells.Count %d is a multi-cell campus; use RunCampus", cfg.Cells.Count)
	}
	e, err := newEngine(cfg)
	if err != nil {
		return TrialResult{}, err
	}
	// The trial holds a warm pooled workspace for its whole lifetime.
	// Allocation-on-reuse is zeroed, so pooled reuse cannot change
	// results.
	defer phy.PutWorkspace(e.ws)
	for c := 0; c < cfg.Cycles; c++ {
		e.cycle(c)
	}
	return e.result(), nil
}

// cycle runs one beacon/CFP/CP round: age the channel and re-train per
// the dynamics schedule, deliver the arrivals that accumulated during
// the previous cycle's airtime (including any training slots just
// charged), run the CFP, and put the beacon's ack map on the wire.
func (e *engine) cycle(c int) {
	e.cycleNo = c
	e.applyDynamics(c)
	if e.tp != nil {
		// Closed loop first: digest the previous cycle's ack-map
		// outcomes (AIMD window moves, retransmit scheduling), fire due
		// RTO timers back into the MAC, then let fresh arrivals land and
		// admit up to each window.
		e.beaconClock(c)
		e.fireRetransmits(c)
	}
	e.generate()
	if e.tp != nil {
		e.admitWindows()
	}
	beacon := e.sim.RunCFP()
	if len(beacon.AckMap) > 0 {
		e.publish(backend.MsgAckMap, beacon.AckMap)
	}
	if e.met != nil {
		// The one per-cycle publish: a liveness tick so a status reader
		// sees progress inside long trials, not just at their ends.
		e.met.cyclesCompleted.Inc()
	}
}

// generate advances the clients' arrival processes up to the current
// airtime clock and enqueues the new packets at the leader in true
// arrival order across clients — the FIFO order the pickers' head-of-
// queue anti-starvation pin assumes. Ties break by client index, which
// keeps the run deterministic.
//
// Two implementations share those semantics bit for bit. The default
// event-driven path pops expired arrival timers off the hierarchical
// wheel (or, for saturated sources, walks the MAC-drained dirty set),
// so a cycle costs the clients with work. The legacy scan path
// (Config.scan) sweeps the whole roster every cycle and is kept only as
// the reference the equivalence tests pin the wheel against.
func (e *engine) generate() {
	switch {
	case e.refillMark != nil:
		e.generateSaturatedActive()
	case e.wheel != nil:
		e.generateWheel()
	default:
		e.generateScan()
	}
}

// generateScan is the legacy traffic plane: advance every client, every
// cycle — O(clients) even when almost everyone is idle.
func (e *engine) generateScan() {
	now := float64(e.sim.Slots())
	if e.cfg.Workload.Kind == Saturated {
		for i := range e.gens {
			e.topUp(i, int(now))
		}
		return
	}
	batch := e.batch[:0]
	for i := range e.gens {
		for e.next[i] <= now {
			batch = append(batch, arrival{born: e.next[i], client: i})
			e.next[i] += e.gens[i].Next(e.rng)
		}
	}
	e.enqueueBatch(batch)
}

// generateWheel is the event-driven traffic plane: advance the wheel to
// the airtime clock, pop the expired arrival timers, advance only those
// clients' generators, and re-arm each at its next arrival. The fired
// set is sorted by client index before any generator draws from the
// shared RNG, so the draw order — and therefore every downstream bit —
// matches the scan path exactly: a client fires iff its next arrival
// time is <= now, which is precisely the scan path's advance condition.
func (e *engine) generateWheel() {
	now := e.sim.Slots()
	nowF := float64(now)
	e.fired = e.wheel.Advance(uint64(now), e.fired[:0])
	if len(e.fired) == 0 {
		return
	}
	slices.Sort(e.fired)
	batch := e.batch[:0]
	for _, id := range e.fired {
		i := int(id)
		for e.next[i] <= nowF {
			batch = append(batch, arrival{born: e.next[i], client: i})
			e.next[i] += e.gens[i].Next(e.rng)
		}
		e.wheel.Schedule(i, arrivalDeadline(e.next[i]))
	}
	e.emit(Event{Kind: EventTimersFired, Cycle: e.cycleNo, Slot: now,
		Value: float64(len(e.fired))})
	e.enqueueBatch(batch)
}

// generateSaturatedActive tops up only the clients whose queues the MAC
// drained since the last cycle (the dirty set the delivery/drop hooks
// maintain), in client-index order — the same enqueue order the scan
// path produces, minus the clients whose queues were already full.
func (e *engine) generateSaturatedActive() {
	now := e.sim.Slots()
	if len(e.refill) == 0 {
		return
	}
	slices.Sort(e.refill)
	for _, id := range e.refill {
		e.refillMark[id] = false
		e.topUp(int(id), now)
	}
	e.refill = e.refill[:0]
}

// topUp keeps one saturated client's queue at saturatedDepth.
func (e *engine) topUp(i, now int) {
	for e.pending[i] < saturatedDepth {
		e.offered[i]++
		e.pending[i]++
		e.sim.EnqueueBorn(mac.ClientID(i), now)
	}
}

// enqueueBatch sorts a cycle's arrivals into true arrival order (ties
// by client index) and enqueues them at the leader, dropping arrivals
// beyond a client's buffer cap. Shared verbatim by the wheel and scan
// paths — the ordering rule is the determinism contract. With the
// transport enabled, arrivals buffer in the client's flow queue instead
// and enter the MAC later through the window admission pass.
func (e *engine) enqueueBatch(batch []arrival) {
	e.batch = batch
	slices.SortFunc(batch, func(a, b arrival) int {
		switch {
		case a.born < b.born:
			return -1
		case a.born > b.born:
			return 1
		default:
			return a.client - b.client
		}
	})
	now := e.sim.Slots()
	for _, ar := range batch {
		i := ar.client
		e.offered[i]++
		if e.tp != nil {
			if e.tp.flows[i].len() < e.cfg.MaxQueue {
				e.tp.push(i, tpPkt{born: int(ar.born)})
			} else {
				e.bufDrops[i]++
				continue
			}
		} else if e.pending[i] < e.cfg.MaxQueue {
			e.pending[i]++
			e.sim.EnqueueBorn(mac.ClientID(i), int(ar.born))
		} else {
			e.bufDrops[i]++
			continue
		}
		if e.app != nil {
			e.app.onArrival(i, ar.born)
			e.app.wake(i, now)
		}
	}
}

// estimate is the MAC's RateEstimator: the planned sum rate of the
// candidate group. Undersized candidates are legal but never preferred.
func (e *engine) estimate(group []mac.ClientID) float64 {
	if len(group) != e.cfg.GroupSize {
		return 0
	}
	return e.outcome(group).sumRate
}

// runSlot is the MAC's SlotRunner: execute the group on the PHY and put
// the cancellation shares on the wired plane. The result's slices are
// views of engine-owned buffers, cleared here and valid until the next
// call (see mac.SlotRunner).
func (e *engine) runSlot(group []mac.ClientID) mac.SlotResult {
	n := len(group)
	if cap(e.slotRate) < n {
		e.slotRate = make([]float64, n)
		e.slotLost = make([]bool, n)
	}
	res := mac.SlotResult{Rate: e.slotRate[:n], Lost: e.slotLost[:n]}
	clear(res.Rate)
	clear(res.Lost)
	out := e.outcome(group)
	if !out.ok {
		// Planning failed (degenerate channels): the slot is wasted and
		// each involved AP reports the loss to the leader.
		for i := range group {
			res.Lost[i] = true
			e.publish(backend.MsgLossReport, nil)
		}
		e.lostPackets += len(group)
		e.emit(Event{Kind: EventChainDecodeFailed, Cycle: e.cycleNo,
			Slot: e.sim.Slots(), Group: len(group), Value: float64(len(group))})
		return res
	}
	lost := 0
	var achieved float64
	for i, c := range group {
		m := out.member(c)
		if m < 0 {
			res.Lost[i] = true
			continue
		}
		r := out.rate[m]
		if out.hasPlanned && e.outage(r, out.planned[m]) {
			// Outage: the modulation picked from the planner's CSI
			// outran what the realized channel carries. The AP reports
			// the loss to the leader; the packet retries.
			res.Lost[i] = true
			e.publish(backend.MsgLossReport, nil)
			e.outages++
			lost++
			continue
		}
		res.Rate[i] = r
		achieved += r
	}
	// Every decoded packet but the last in the cancellation chain
	// crosses the wired plane once (Section 7.1d): p packets cost p-1
	// shares.
	for s := 1; s < out.packets; s++ {
		e.publish(backend.MsgDecodedPacket, e.payload)
	}
	e.emit(Event{Kind: EventSlotEvaluated, Cycle: e.cycleNo,
		Slot: e.sim.Slots(), Group: len(group), Value: achieved})
	if lost > 0 {
		e.lostPackets += lost
		e.emit(Event{Kind: EventChainDecodeFailed, Cycle: e.cycleNo,
			Slot: e.sim.Slots(), Group: len(group), Value: float64(lost)})
	}
	return res
}

// outage is the unified rate/outage rule. Under the MCS link plane a
// client's packets are lost when any of them missed its selected rung
// (achieved falls short of planned) or when even the lowest rung was
// out of reach at planning time (planned 0). In the legacy continuous
// model — where planned rates exist only under channel dynamics — a
// packet is lost when the achieved rate falls below outageFraction of
// the planned one.
func (e *engine) outage(achieved, planned float64) bool {
	if e.scenario.Env.MCS != nil {
		return planned <= 0 || achieved < planned
	}
	return achieved < outageFraction*planned
}

// publish puts one coordination message on the wired plane. Nobody
// reads the broadcasts, so the engine models the plane by its load
// alone and counts the bytes a backend hub would
// (backend.Message.WireLen). Validate keeps every payload within
// backend.MaxPayload, so no hub would refuse one.
func (e *engine) publish(t backend.MsgType, payload []byte) {
	e.wireBytes += int64(backend.Message{Type: t, Payload: payload}.WireLen())
}

// planKey packs the plan cache's key: the group, up to reordering of
// the non-head members (the head is role-asymmetric: it transmits two
// packets on the uplink), plus the AP-rotation stripe the slot runs
// under (always 0 without striping). Each member takes a 17-bit field
// holding its ID plus one, so an unused field (0) never matches a
// client; the stripe takes the bits above them. A plain integer key
// keeps the pickers' combinatorial est() calls allocation-free on cache
// hits.
func planKey(group []mac.ClientID, stripe int8) uint64 {
	const idBits = 17
	if len(group) == 0 || len(group) > maxGroup || stripe < 0 {
		panic(fmt.Sprintf("sim: plan key of a %d-client group, stripe %d", len(group), stripe))
	}
	var f [maxGroup]uint64
	for i, c := range group {
		f[i] = uint64(c) + 1 // a ClientID is 16 bits, so this fits idBits
	}
	if f[1] > f[2] && f[2] != 0 {
		f[1], f[2] = f[2], f[1]
	}
	return uint64(stripe)<<(maxGroup*idBits) | f[2]<<(2*idBits) | f[1]<<idBits | f[0]
}

// stripeFor picks the AP rotation for a group this cycle: the head
// client and cycle index walk the flow's packets round-robin across the
// cell's uplink chains. Always 0 with striping off.
func (e *engine) stripeFor(group []mac.ClientID) int8 {
	if e.stripes <= 1 {
		return 0
	}
	return int8((int(group[0]) + e.cycleNo) % e.stripes)
}

// outcome returns the group's memoized outcome, planning it on a miss.
// The result is the memo's row itself, read in place: slab rows never
// move, and the memo drops its rows only when the generation moves,
// which happens between cycles (applyDynamics), never between a pick's
// estimates and the slot it runs.
func (e *engine) outcome(group []mac.ClientID) *groupOutcome {
	// Invalidation rule: a group plan derives from the estimates and the
	// true channels, so it holds for one SlotCache generation; a fading
	// mutation or a retrain moves it and drops every memoized outcome.
	stripe := e.stripeFor(group)
	row, fresh := e.outcomes.Row(planKey(group, stripe), e.chans.Generation())
	if fresh {
		return row
	}
	*row = e.plan(group, stripe)
	e.emit(Event{Kind: EventSlotPlanned, Cycle: e.cycleNo,
		Slot: e.sim.Slots(), Group: len(group), Value: row.sumRate})
	return row
}

// chainOrder is the AP slice an uplink chain slot engages: the first
// chainAPs APs, rotated by the stripe so successive stripes anchor the
// successive-cancellation chain at different APs.
func (e *engine) chainOrder(stripe int8) []*channel.Node {
	if stripe == 0 {
		return e.scenario.APs[:e.chainAPs]
	}
	n := copy(e.rotBuf, e.scenario.APs[int(stripe):e.chainAPs])
	copy(e.rotBuf[n:], e.scenario.APs[:int(stripe)])
	return e.rotBuf[:e.chainAPs]
}

// plan maps the group onto a supported slot shape and evaluates it:
//
//	uplink   3 clients + 3+ APs -> chain construction, 4 packets, spread
//	                               over up to chainAPs (min(APs, M+2)) APs
//	uplink   2 clients + 2 APs  -> three-packet construction
//	downlink 3 clients + 3 APs  -> triangle construction, 3 packets
//	downlink 1 client  + 2 APs  -> AP diversity selection, IAC mode only
//	anything else               -> head alone at its 802.11-MIMO rate
//
// The fallback serves only the head; other members come back as lost
// and retry next CFP, charging the grouping inefficiency to airtime.
func (e *engine) plan(group []mac.ClientID, stripe int8) groupOutcome {
	n, na := len(group), len(e.scenario.APs)
	sub := testbed.Scenario{World: e.scenario.World, Env: e.scenario.Env, Clients: e.subClients[:0]}
	for _, c := range group {
		sub.Clients = append(sub.Clients, e.scenario.Clients[c])
	}
	e.subClients = sub.Clients

	// res is a view into the trial's workspace and slot cache, read
	// before anything else plans.
	var res testbed.SlotOutcome
	var err error
	switch {
	case e.cfg.Uplink && n == 3 && na >= 3:
		sub.APs = e.chainOrder(stripe)
		res, err = testbed.RunUplinkSlotWS(e.ws, e.chans, sub, 0, e.rng)
	case e.cfg.Uplink && n == 2 && na >= 2:
		sub.APs = e.scenario.APs[:2]
		res, err = testbed.RunUplinkSlotWS(e.ws, e.chans, sub, 0, e.rng)
	case !e.cfg.Uplink && n == 3 && na >= 3:
		sub.APs = e.scenario.APs[:3]
		res, err = testbed.RunDownlinkSlotWS(e.ws, e.chans, sub, e.rng)
	case !e.cfg.Uplink && n == 1 && na >= 2 && e.cfg.iacMode():
		sub.APs = e.scenario.APs[:2]
		res, err = testbed.RunDownlinkSlotWS(e.ws, e.chans, sub, e.rng)
	default:
		head := int(group[0])
		out := groupOutcome{ok: true, served: 1, packets: 1}
		out.client[0] = group[0]
		if e.scenario.Env.MCS != nil {
			// The baseline rides the same discrete table: modulation
			// from the training estimates, outage when the realized
			// stream SINR misses the selected rung.
			planned, achieved := e.chans.AdaptedBaselineWS(e.ws.Mat, head, e.cfg.Uplink, e.rng)
			out.sumRate, out.rate[0] = achieved, achieved
			out.planned[0], out.hasPlanned = planned, true
			return out
		}
		r := testbed.BaselineRateWS(e.ws.Mat, e.scenario, head, e.cfg.Uplink)
		out.sumRate, out.rate[0] = r, r
		return out
	}
	if err != nil {
		return groupOutcome{}
	}
	if e.met != nil && res.Batched > 0 {
		e.batchSketch.Sketch().Add(float64(res.Batched))
	}
	// Group members are distinct, so each local client's rate lands in
	// its own slot, added to zero as the per-client sums always were.
	out := groupOutcome{ok: true, sumRate: res.SumRate, served: n,
		hasPlanned: res.PlannedPerClient != nil, packets: res.Plan.NumPackets()}
	for local, c := range group {
		out.client[local] = c
		out.rate[local] += res.PerClient[local]
		if out.hasPlanned {
			out.planned[local] += res.PlannedPerClient[local]
		}
	}
	return out
}

// markRefill records that the MAC drained one of the client's packets,
// so the saturated top-up pass must revisit it next cycle. A no-op on
// every other workload/engine combination.
func (e *engine) markRefill(i int) {
	if e.refillMark != nil && !e.refillMark[i] {
		e.refillMark[i] = true
		e.refill = append(e.refill, int32(i))
	}
}

// PacketDelivered implements mac.Tracer.
func (e *engine) PacketDelivered(c mac.ClientID, born, now int, rate float64) {
	i := int(c)
	e.pending[i]--
	e.delivered[i]++
	e.rateSum[i] += rate
	e.lat.forClient(i).Add(float64(now - born))
	if e.tp != nil {
		e.tp.onAck(i, born)
	}
	if e.app != nil {
		if e.app.onDelivery(i, float64(now)) {
			e.emit(Event{Kind: EventRebuffer, Cycle: e.cycleNo, Slot: now,
				Value: float64(e.app.rebuffers[i])})
		}
		e.maybeSleep(i, now)
	}
	e.markRefill(i)
}

// PacketDropped implements mac.Tracer. With the transport enabled a
// final MAC drop is not yet a loss: the transport parks it for a
// backoff retransmit, and only transport-budget exhaustion (in
// beaconClock) counts it as Dropped.
func (e *engine) PacketDropped(c mac.ClientID, born, now int) {
	i := int(c)
	e.pending[i]--
	if e.tp != nil {
		e.tp.onLoss(i, born)
	} else {
		e.dropped[i]++
	}
	if e.app != nil {
		e.maybeSleep(i, now)
	}
	e.markRefill(i)
}

// maybeSleep puts the client radio to sleep when its last backlog
// drained: nothing queued at the application flow and nothing inside
// the MAC. A packet waiting out a retransmit backoff does not keep the
// radio up — the RTO timer wakes it on re-injection.
func (e *engine) maybeSleep(i, now int) {
	backlog := e.pending[i]
	if e.tp != nil {
		backlog += e.tp.flows[i].len()
	}
	if backlog == 0 {
		e.app.sleep(i, now)
	}
}

// result freezes the trial's accumulated state into a TrialResult.
func (e *engine) result() TrialResult {
	slots := e.sim.Slots()
	bitsPerPacket := float64(e.cfg.PacketBytes) * 8
	tr := TrialResult{
		Seed:      e.cfg.Seed,
		Cycles:    e.cfg.Cycles,
		Slots:     slots,
		PerClient: make([]ClientMetrics, e.cfg.Clients),
	}
	thr := make([]float64, e.cfg.Clients)
	// Pool the per-client latency sketches by merge, not by
	// concatenating sample slices: one dense sketch carries the whole
	// trial's distribution whatever the packet count, and the same
	// merge folds trials into sweeps and cells into a campus.
	pooled := new(stats.DenseSketch).Sketch()
	var offered, delivered, dropped, bufDropped int
	for i := range tr.PerClient {
		cm := &tr.PerClient[i]
		cm.Offered = e.offered[i]
		cm.Delivered = e.delivered[i]
		cm.Dropped = e.dropped[i]
		cm.BufferDropped = e.bufDrops[i]
		if slots > 0 {
			cm.ThroughputBitsPerSlot = float64(e.delivered[i]) * bitsPerPacket / float64(slots)
		}
		if e.delivered[i] > 0 {
			cm.MeanRate = e.rateSum[i] / float64(e.delivered[i])
		}
		if sk := e.lat.get(i); sk != nil && sk.Count() > 0 {
			cm.MeanLatencySlots = sk.Mean()
			cm.P95LatencySlots = sk.Quantile(95)
		}
		thr[i] = cm.ThroughputBitsPerSlot
		tr.SumThroughputBitsPerSlot += cm.ThroughputBitsPerSlot
		pooled.Merge(e.lat.get(i))
		offered += e.offered[i]
		delivered += e.delivered[i]
		dropped += e.dropped[i]
		bufDropped += e.bufDrops[i]
	}
	tr.JainFairness = stats.JainFairness(thr)
	tr.Latency = pooled
	if pooled.Count() > 0 {
		tr.MeanLatencySlots = pooled.Mean()
		tr.P95LatencySlots = pooled.Quantile(95)
	}
	if offered > 0 {
		tr.DeliveredFraction = float64(delivered) / float64(offered)
	}
	tr.BackendBytes = e.wireBytes
	tr.WirelessBits = int64(delivered) * int64(e.cfg.PacketBytes) * 8
	if tr.WirelessBits > 0 {
		tr.BackendBytesPerWirelessBit = float64(tr.BackendBytes) / float64(tr.WirelessBits)
	}
	if e.tp != nil {
		tr.Transport = e.tp.stats()
	}
	if e.app != nil {
		// finalize also feeds the per-client startup/energy-per-bit
		// distribution samples into the registry (nil-safe via met).
		tr.Stream = e.app.finalize(slots, e.delivered, bitsPerPacket, e.met)
		if tr.WirelessBits > 0 {
			tr.Stream.EnergyPerBit = tr.Stream.EnergyUnits / float64(tr.WirelessBits)
		}
		if slots > 0 {
			tr.Stream.GoodputBitsPerSlot = float64(tr.WirelessBits) / float64(slots)
		}
	}
	if m := e.met; m != nil {
		// One batched flush per trial: atomic adds commute, so the
		// registry totals after a sweep are deterministic whatever
		// order the workers finished in.
		m.trialsCompleted.Inc()
		m.slots.Add(uint64(slots))
		m.offered.Add(uint64(offered))
		m.delivered.Add(uint64(delivered))
		m.dropped.Add(uint64(dropped))
		m.bufferDropped.Add(uint64(bufDropped))
		m.outageLosses.Add(uint64(e.outages))
		m.decodeFailures.Add(uint64(e.lostPackets))
		m.retrainRounds.Add(uint64(e.retrains))
		m.retrainSlots.Add(uint64(e.retrainCost))
		hits, misses := e.chans.Counters()
		m.cacheHits.Add(hits)
		m.cacheMisses.Add(misses)
		if e.wheel != nil {
			ws := e.wheel.Stats()
			m.timersScheduled.Add(ws.Scheduled)
			m.timersFired.Add(ws.Fired)
			m.timersCascaded.Add(ws.Cascaded)
		}
		m.latency.Merge(pooled)
		m.batchProducts.Merge(e.batchSketch.Sketch())
		if e.tp != nil {
			m.transportRetransmits.Add(uint64(tr.Transport.Retransmits))
			m.transportTimeouts.Add(uint64(tr.Transport.Timeouts))
		}
		if e.app != nil {
			m.streamRebuffers.Add(uint64(tr.Stream.RebufferEvents))
			m.streamRebufferSlots.Add(uint64(tr.Stream.RebufferSlots))
			m.streamAwakeSlots.Add(uint64(tr.Stream.AwakeSlots))
			m.streamSleepSlots.Add(uint64(tr.Stream.SleepSlots))
		}
	}
	e.emit(Event{Kind: EventTrialDone, Cycle: e.cfg.Cycles, Slot: slots,
		Value: tr.SumThroughputBitsPerSlot})
	return tr
}
