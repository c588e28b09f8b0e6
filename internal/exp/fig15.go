package exp

import (
	"fmt"
	"math/rand"
	"sort"

	"iaclan/internal/channel"
	"iaclan/internal/mac"
	"iaclan/internal/stats"
	"iaclan/internal/testbed"
)

// fig15Network is the paper's Section 10.3 setup: 3 APs, 17 clients with
// infinite demand, transmission groups of 3 clients, 1000-slot runs
// repeated 3 times per concurrency algorithm.
const (
	fig15APs       = 3
	fig15Clients   = 17
	fig15GroupSize = 3
)

// groupOutcome caches one transmission group's planned slot result so the
// rate estimator (called combinatorially by brute force) and the slot
// runner share work. Keyed by the sorted client set plus the head client
// (who transmits two packets on the uplink).
type groupOutcome struct {
	sumRate   float64
	perClient map[int]float64
	ok        bool
}

type fig15Runner struct {
	scenario testbed.Scenario
	uplink   bool
	rng      *rand.Rand
	cache    map[string]groupOutcome
}

func (f *fig15Runner) key(group []mac.ClientID) string {
	rest := make([]int, 0, len(group))
	for _, c := range group[1:] {
		rest = append(rest, int(c))
	}
	sort.Ints(rest)
	return fmt.Sprint(int(group[0]), rest)
}

// outcome plans and evaluates the group (or returns the cached result).
func (f *fig15Runner) outcome(group []mac.ClientID) groupOutcome {
	k := f.key(group)
	if out, ok := f.cache[k]; ok {
		return out
	}
	idx := make([]int, len(group))
	for i, c := range group {
		idx[i] = int(c)
	}
	sub := testbed.Scenario{World: f.scenario.World, APs: f.scenario.APs}
	for _, i := range idx {
		sub.Clients = append(sub.Clients, f.scenario.Clients[i])
	}
	var out groupOutcome
	var res testbed.SlotOutcome
	var err error
	if f.uplink {
		res, err = testbed.RunUplinkSlot(sub, 0, f.rng) // head transmits 2 packets
	} else {
		res, err = testbed.RunDownlinkSlot(sub, f.rng)
	}
	if err == nil {
		out.ok = true
		out.sumRate = res.SumRate
		out.perClient = map[int]float64{}
		for local, rate := range res.PerClient {
			out.perClient[idx[local]] = rate
		}
	}
	f.cache[k] = out
	return out
}

func (f *fig15Runner) estimate(group []mac.ClientID) float64 {
	if len(group) != fig15GroupSize {
		// Undersized groups (queue nearly empty) are legal but never
		// preferred; score them by what we can plan.
		return 0
	}
	return f.outcome(group).sumRate
}

func (f *fig15Runner) run(group []mac.ClientID) mac.SlotResult {
	res := mac.SlotResult{Rate: make([]float64, len(group)), Lost: make([]bool, len(group))}
	if len(group) != fig15GroupSize {
		// Fall back to serving the head alone at its baseline rate.
		for i := range group {
			if i == 0 {
				res.Rate[i] = testbed.BaselineUplinkRate(f.scenario, int(group[i]))
			} else {
				res.Lost[i] = true
			}
		}
		return res
	}
	out := f.outcome(group)
	if !out.ok {
		for i := range group {
			res.Lost[i] = true
		}
		return res
	}
	for i, c := range group {
		res.Rate[i] = out.perClient[int(c)]
	}
	return res
}

// rateSums is a mac.Tracer that sums each client's delivered rates, in
// delivery order.
type rateSums []float64

func (r rateSums) PacketDelivered(c mac.ClientID, _, _ int, rate float64) { r[c] += rate }
func (rateSums) PacketDropped(mac.ClientID, int, int)                     {}

// fig15Gains runs the large-network experiment for one picker and
// returns the per-client gains over the 802.11-MIMO TDMA baseline.
func fig15Gains(cfg Config, uplink bool, mkPicker func(run int) mac.GroupPicker) ([]float64, error) {
	world := channel.DefaultTestbed(cfg.Seed)
	scenario := testbed.PickScenario(world, fig15Clients, fig15APs)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))

	iacThroughput := make([]float64, fig15Clients)
	baseThroughput := make([]float64, fig15Clients)
	for run := 0; run < cfg.Runs; run++ {
		if run > 0 {
			world.Perturb(1) // fresh fading between runs
		}
		fr := &fig15Runner{scenario: scenario, uplink: uplink, rng: rng, cache: map[string]groupOutcome{}}
		sim := mac.NewSimulator(
			mac.Config{GroupSize: fig15GroupSize, MaxRetries: 1},
			mkPicker(run), fr.estimate, fr.run,
		)
		delivered := make(rateSums, fig15Clients)
		sim.SetTracer(delivered)
		// Infinite demand: every client always has a queued packet; the
		// initial order is random (paper: "packets from different clients
		// arrive at the system in random order").
		for _, i := range rng.Perm(fig15Clients) {
			sim.Enqueue(mac.ClientID(i))
		}
		for slot := 0; slot < cfg.Slots; slot++ {
			served := sim.RunSlot()
			for _, c := range served {
				sim.Enqueue(c) // immediately re-queue: infinite demand
			}
		}
		for i := 0; i < fig15Clients; i++ {
			iacThroughput[i] += delivered[i] / float64(cfg.Slots)
			var b float64
			if uplink {
				b = testbed.BaselineUplinkRate(scenario, i)
			} else {
				b = testbed.BaselineDownlinkRate(scenario, i)
			}
			// TDMA: each of the 17 clients gets 1/17 of the slots.
			baseThroughput[i] += b / float64(fig15Clients)
		}
	}
	gains := make([]float64, 0, fig15Clients)
	for i := 0; i < fig15Clients; i++ {
		if baseThroughput[i] > 0 {
			gains = append(gains, iacThroughput[i]/baseThroughput[i])
		}
	}
	return gains, nil
}

func fig15Result(cfg Config, id string, uplink bool, claim string) (Result, error) {
	pickers := []struct {
		name string
		mk   func(run int) mac.GroupPicker
	}{
		{"brute_force", func(int) mac.GroupPicker { return mac.BruteForcePicker{} }},
		{"fifo", func(int) mac.GroupPicker { return mac.FIFOPicker{} }},
		{"best_of_two", func(run int) mac.GroupPicker { return mac.NewBestOfTwoPicker(cfg.Seed+int64(run), 8) }},
	}
	r := Result{
		ID:         id,
		Title:      fmt.Sprintf("17-client/3-AP %s CDF of client gains", dirName(uplink)),
		PaperClaim: claim,
		Metrics:    map[string]float64{},
		Series:     map[string][]float64{},
	}
	for _, p := range pickers {
		gains, err := fig15Gains(cfg, uplink, p.mk)
		if err != nil {
			return Result{}, err
		}
		r.Series[p.name] = gains
		r.Metrics["gain_mean_"+p.name] = stats.Mean(gains)
		r.Metrics["frac_below_1_"+p.name] = stats.FractionBelow(gains, 1)
		r.Metrics["jain_"+p.name] = stats.JainFairness(gains)
	}
	return r, nil
}

func dirName(uplink bool) string {
	if uplink {
		return "uplink"
	}
	return "downlink"
}

// Fig15a reproduces the uplink client-gain CDFs for the three
// concurrency algorithms (paper Fig. 15a): brute force 2.32x mean but
// unfair (a tail of clients below 1x), FIFO fair but 1.9x, best-of-two
// 2.08x with the best fairness-throughput tradeoff.
func Fig15a(cfg Config) (Result, error) {
	return fig15Result(cfg, "fig15a", true,
		"mean gains 2.32 (brute) / 1.90 (fifo) / 2.08 (best-of-2); brute force has clients below 1x")
}

// Fig15b reproduces the downlink CDFs (paper Fig. 15b): 1.58 / 1.23 /
// 1.52 mean gains with the same fairness ordering.
func Fig15b(cfg Config) (Result, error) {
	return fig15Result(cfg, "fig15b", false,
		"mean gains 1.58 (brute) / 1.23 (fifo) / 1.52 (best-of-2); brute force has clients below 1x")
}
