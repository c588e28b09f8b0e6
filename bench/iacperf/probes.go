package main

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"
	"unsafe"

	"iaclan"
	"iaclan/internal/backend"
	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/mac"
	"iaclan/internal/mimo"
	"iaclan/internal/phy"
	"iaclan/internal/sched"
	"iaclan/internal/sim"
	"iaclan/internal/stats"
	"iaclan/internal/testbed"
)

// Layer probes time calls into one layer's public functions, outside the
// simulation, on the workload's own shape: the world of its first cell
// and trial (same seed, node count, clients and APs), its packet size,
// its arrival process and its link operating point. Each reports the
// cost per operation after a warm-up call.

// roomMeters is the side of the testbed room the simulator scatters
// every cell over.
const roomMeters = 12

// probeInput is what the probes need beyond the config: numbers the
// traced run measured about the workload's shape.
type probeInput struct {
	cfg    iaclan.SimConfig
	budget time.Duration // per probe
	// slotsPerCycle is the mean airtime of a CFP cycle, the step the
	// traffic plane advances its wheel by.
	slotsPerCycle int
	// eligible is the mean number of clients a CFP serves, the queue the
	// picker chooses groups from.
	eligible int
}

// probeOp calls op once to warm up, then in doubling batches until the
// budget has elapsed, and returns host ns and heap allocations per call.
func probeOp(budget time.Duration, op func()) (ns, allocs float64) {
	op()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := 0
	t0 := time.Now()
	for batch := 1; ; batch *= 2 {
		for range batch {
			op()
		}
		n += batch
		if time.Since(t0) >= budget {
			break
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// cellScenario rebuilds the scenario of the workload's first cell and
// trial the way the simulator draws it, with the cell's link operating
// point (the campus leakage raises every cell's noise floor).
func cellScenario(cfg iaclan.SimConfig) testbed.Scenario {
	world := channel.NewTestbed(channel.DefaultParams(), cfg.Seed, max(20, cfg.Clients+cfg.APs), roomMeters)
	s := testbed.PickScenario(world, cfg.Clients, cfg.APs)
	noiseDB := cfg.Link.NoiseDB
	if cfg.Cells.Count > 1 {
		noiseDB += 10 * math.Log10(1+cfg.Cells.Leak*float64(cfg.Cells.Count-1))
	}
	s.Env = testbed.Env{ResidualCancel: cfg.Link.ResidualCancel}
	if noiseDB != 0 {
		s.Env.NoisePower = math.Pow(10, noiseDB/10)
	}
	if cfg.Link.MCS {
		s.Env.MCS = mimo.DefaultRateTable()
	}
	return s
}

// runProbes runs every layer probe and returns its metrics by name.
func runProbes(in probeInput) map[string]float64 {
	cfg := in.cfg
	out := map[string]float64{}
	scen := cellScenario(cfg)

	out["sched.ns_per_timer"] = probeWheel(in)
	out["mac.cfp_ns_per_slot"], out["mac.cfp_allocs_per_slot"] = probeCFP(in)
	out["mac.pick_ns"], out["mac.est_calls_per_pick"] = probePick(in)

	// testbed: plan one group slot with a fresh channel memo (cold) and
	// with a shared, pre-warmed one (warm).
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	subs := planGroups(cfg, scen, rng, 32)
	ws := phy.NewWorkspace()
	track := cfg.Link.MCS || cfg.Dynamics != (iaclan.SimDynamics{})
	plan := func(cache *testbed.SlotCache, sub testbed.Scenario) {
		if cfg.Uplink {
			_, _ = testbed.RunUplinkSlotWS(ws, cache, sub, 0, rng)
		} else {
			_, _ = testbed.RunDownlinkSlotWS(ws, cache, sub, rng)
		}
	}
	i := 0
	out["testbed.plan_cold_ns"], out["testbed.plan_cold_allocs"] = probeOp(in.budget, func() {
		cache := testbed.NewSlotCache(scen)
		cache.TrackPlannedRates(track)
		plan(cache, subs[i%len(subs)])
		i++
	})
	warm := testbed.NewSlotCache(scen)
	warm.TrackPlannedRates(track)
	for _, sub := range subs {
		plan(warm, sub)
	}
	out["testbed.plan_warm_ns"], out["testbed.plan_warm_allocs"] = probeOp(in.budget, func() {
		plan(warm, subs[i%len(subs)])
		i++
	})

	// cmplxmat: antenna-sized matrices from the cell's own channels.
	var hs, grams, prods []*cmplxmat.Matrix
	for k := range 8 {
		h := scen.World.Channel(scen.Clients[k%len(scen.Clients)], scen.APs[k%len(scen.APs)])
		hs = append(hs, h)
		grams = append(grams, h.H().Mul(h))
	}
	for k := range hs {
		prods = append(prods, hs[k].Mul(hs[(k+1)%len(hs)]))
	}
	mat := ws.Mat
	arena := func(f func()) func() {
		return func() {
			m := mat.Mark()
			f()
			mat.Release(m)
			i++
		}
	}
	out["cmplxmat.svd_ns"], _ = probeOp(in.budget, arena(func() { hs[i%len(hs)].SVDWS(mat) }))
	out["cmplxmat.eigh_ns"], _ = probeOp(in.budget, arena(func() { grams[i%len(grams)].EigenHermitianWS(mat) }))
	out["cmplxmat.roots_ns"], _ = probeOp(in.budget, arena(func() { _, _ = prods[i%len(prods)].CharPolyWS(mat).Roots() }))

	// channel: age a world holding every client-AP pair of the cell,
	// and build a cell's world anew.
	aged := cellScenario(cfg)
	for _, c := range aged.Clients {
		for _, ap := range aged.APs {
			aged.World.Channel(c, ap)
		}
	}
	eps := cfg.Dynamics.Eps
	if eps == 0 {
		eps = 0.3
	}
	out["channel.perturb_ns"], _ = probeOp(in.budget, func() { aged.World.Perturb(eps) })
	buildNs, _ := probeOp(in.budget, func() { cellScenario(cfg) })
	out["channel.world_build_ms"] = buildNs / 1e6

	// backend: the hub's decoded-packet broadcast at the workload's
	// packet size and AP count; a 4-packet chain puts 3 shares on the
	// wire per slot, and the engine discards the queues every cycle.
	hub := backend.NewMemHub(cfg.APs)
	payload := make([]byte, cfg.PacketBytes)
	var seq uint32
	out["backend.publish_ns"], out["backend.publish_allocs"] = probeOp(in.budget, func() {
		seq++
		_ = hub.Publish(0, backend.Message{Type: backend.MsgDecodedPacket, Seq: seq, Payload: payload})
		if seq%3 == 0 {
			hub.DiscardAll()
		}
	})

	// aggregation: one cell's trial summaries, and latency sketch merges.
	trials := syntheticTrials(cfg, rng)
	out["agg.summarize_ns"], _ = probeOp(in.budget, func() { sim.Summarize(trials) })
	var dst stats.Sketch
	out["stats.sketch_merge_ns"], _ = probeOp(in.budget, func() { dst.Merge(trials[0].Latency) })
	out["stats.sketch_bytes"] = float64(unsafe.Sizeof(stats.Sketch{}))
	return out
}

// planGroups draws n transmission groups of the workload's group size
// and maps each onto the slot shape the simulator plans it with: the
// uplink chain over up to M+2 APs, the downlink triangle over 3 APs.
func planGroups(cfg iaclan.SimConfig, scen testbed.Scenario, rng *rand.Rand, n int) []testbed.Scenario {
	aps := scen.APs[:3]
	if cfg.Uplink {
		aps = scen.APs[:min(len(scen.APs), core.UplinkChainMaxAPs(scen.World.Params().Antennas))]
	}
	subs := make([]testbed.Scenario, n)
	for k := range subs {
		sub := testbed.Scenario{World: scen.World, Env: scen.Env, APs: aps}
		for _, c := range distinctClients(rng, len(scen.Clients), cfg.GroupSize) {
			sub.Clients = append(sub.Clients, scen.Clients[c])
		}
		subs[k] = sub
	}
	return subs
}

// distinctClients draws k distinct client indices below n.
func distinctClients(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, k)
	for len(out) < k {
		if c := rng.Intn(n); !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// arrivalTimes replays the workload's per-client arrival process (each
// client's own generator, staggered by a random fraction of one gap, as
// the simulator starts them) and returns each client's first arrival.
func arrivalTimes(cfg iaclan.SimConfig, rng *rand.Rand) ([]sim.Generator, []float64) {
	gens := make([]sim.Generator, cfg.Clients)
	next := make([]float64, cfg.Clients)
	for i := range gens {
		g, err := cfg.Workload.NewGenerator()
		if err != nil {
			panic(err) // the workload passed SimulateCampus's validation
		}
		gens[i] = g
		next[i] = g.Next(rng) * rng.Float64()
	}
	return gens, next
}

// deadline is the wheel slot an arrival at time t fires in.
func deadline(t float64) uint64 { return uint64(math.Ceil(max(t, 0))) }

// probeWheel replays the workload's arrival process on a timing wheel
// sized to one cell: each cycle it advances the wheel by the cycle's
// airtime, draws the fired clients' next arrivals and re-arms them. It
// returns host ns per fired timer.
func probeWheel(in probeInput) float64 {
	rng := rand.New(rand.NewSource(in.cfg.Seed + 7))
	gens, next := arrivalTimes(in.cfg, rng)
	w := sched.New(len(gens))
	for i, t := range next {
		w.Schedule(i, deadline(t))
	}
	var fired []int32
	var now uint64
	var nfired int
	t0 := time.Now()
	for time.Since(t0) < in.budget || nfired == 0 {
		for range 256 {
			now += uint64(in.slotsPerCycle)
			fired = w.Advance(now, fired[:0])
			for _, id := range fired {
				for next[id] <= float64(now) {
					next[id] += gens[id].Next(rng)
				}
				w.Schedule(int(id), deadline(next[id]))
			}
			nfired += len(fired)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(nfired)
}

// groupRates is a memo-table rate estimator: the first estimate of a
// group computes a fixed pseudo-rate from its members, later ones are
// table lookups, as the simulator's plan cache answers warm groups.
type groupRates struct {
	size  int
	memo  map[[3]int32]float64
	calls int
}

func (g *groupRates) estimate(group []mac.ClientID) float64 {
	g.calls++
	if len(group) != g.size {
		return 0
	}
	k := [3]int32{-1, -1, -1}
	for i, c := range group {
		k[i] = int32(c)
	}
	if r, ok := g.memo[k]; ok {
		return r
	}
	r := float64((int(k[0])*7919+int(k[1])*104729+int(k[2])*1299709)%1000) / 100
	g.memo[k] = r
	return r
}

// probeCFP drives a mac.Simulator with the workload's arrival process,
// the memo-table estimator and a constant slot runner (every packet
// delivered), and returns host ns and allocations per CFP slot.
func probeCFP(in probeInput) (ns, allocs float64) {
	cfg := in.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	gens, next := arrivalTimes(cfg, rng)
	type arrival struct {
		born   float64
		client int
	}
	// A fixed arrival horizon keeps the replay independent of host speed.
	const horizon = 100000
	var arr []arrival
	for i := range gens {
		for next[i] < horizon {
			arr = append(arr, arrival{next[i], i})
			next[i] += gens[i].Next(rng)
		}
	}
	slices.SortFunc(arr, func(a, b arrival) int {
		return cmp.Or(cmp.Compare(a.born, b.born), a.client-b.client)
	})
	rate := make([]float64, cfg.GroupSize)
	for k := range rate {
		rate[k] = 1
	}
	lost := make([]bool, cfg.GroupSize)
	est := &groupRates{size: cfg.GroupSize, memo: map[[3]int32]float64{}}
	m := mac.NewSimulator(
		mac.Config{GroupSize: cfg.GroupSize, CPSlots: cfg.CPSlots, MaxRetries: cfg.MaxRetries},
		mac.NewBestOfTwoPicker(cfg.Seed+101, 8), est.estimate,
		func(group []mac.ClientID) mac.SlotResult {
			return mac.SlotResult{Rate: rate[:len(group)], Lost: lost[:len(group)]}
		})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cycles, k := 0, 0
	t0 := time.Now()
	for (time.Since(t0) < in.budget || cycles == 0) && (k < len(arr) || m.QueueLen() > 0) {
		for now := float64(m.Slots()); k < len(arr) && arr[k].born <= now; k++ {
			m.EnqueueBorn(mac.ClientID(arr[k].client), int(arr[k].born))
		}
		m.RunCFP()
		cycles++
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	cfpSlots := float64(m.Slots() - cycles*cfg.CPSlots)
	return float64(el.Nanoseconds()) / cfpSlots, float64(m1.Mallocs-m0.Mallocs) / cfpSlots
}

// probePick times BestOfTwoPicker.PickGroup on a queue as long as the
// workload's mean CFP, and counts the estimator calls per pick.
func probePick(in probeInput) (ns, estCalls float64) {
	cfg := in.cfg
	queue := make([]mac.ClientID, max(cfg.GroupSize, min(in.eligible, cfg.Clients)))
	for k := range queue {
		queue[k] = mac.ClientID(k)
	}
	picker := mac.NewBestOfTwoPicker(cfg.Seed+101, 8)
	est := &groupRates{size: cfg.GroupSize, memo: map[[3]int32]float64{}}
	picks := 0
	ns, _ = probeOp(in.budget, func() {
		picker.PickGroup(queue, cfg.GroupSize, est.estimate)
		picks++
	})
	return ns, float64(est.calls) / float64(picks)
}

// syntheticTrials builds one cell's trial results at the workload's
// shape (trial count, per-client rows, a filled latency sketch per
// trial) for the aggregation probes.
func syntheticTrials(cfg iaclan.SimConfig, rng *rand.Rand) []sim.TrialResult {
	trials := make([]sim.TrialResult, cfg.Trials)
	for t := range trials {
		tr := &trials[t]
		tr.Slots = cfg.Cycles
		tr.PerClient = make([]sim.ClientMetrics, cfg.Clients)
		for i := range tr.PerClient {
			tr.PerClient[i] = sim.ClientMetrics{Offered: 10, Delivered: 9, Dropped: 1, ThroughputBitsPerSlot: rng.Float64()}
		}
		tr.Latency = &stats.Sketch{}
		for range 10000 {
			tr.Latency.Add(1 + 50*rng.ExpFloat64())
		}
	}
	return trials
}
