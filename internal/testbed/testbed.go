// Package testbed wires the channel world to the IAC core and the
// 802.11-MIMO baseline for whole-experiment runs: scenario selection,
// channel-set construction with realistic estimation noise, and the rate
// accounting conventions shared by every figure of the paper's
// evaluation (Section 10).
package testbed

import (
	"math"
	"math/rand"
	"sync"

	"iaclan/internal/channel"
	"iaclan/internal/cmplxmat"
	"iaclan/internal/core"
	"iaclan/internal/mimo"
)

// Conventions shared across experiments, chosen to mirror the paper's
// setup: unit receiver noise (the world's path gains are then per-antenna
// SNRs), unit per-node transmit power split across a node's concurrent
// packets, and channel estimates obtained from training packets of
// TrainSymbols symbols.
const (
	// NodePower is every node's total transmit power budget.
	NodePower = 1.0
	// NoisePower is the receiver noise power.
	NoisePower = 1.0
	// TrainSymbols is the training length behind channel estimates;
	// estimation noise per entry is NoisePower/sqrt(TrainSymbols).
	TrainSymbols = 64
)

// Env is a scenario's link-plane operating point: receiver noise power,
// the imperfect-cancellation residual model, and the discrete rate
// adaptation shared by IAC and the 802.11-MIMO baseline. The zero value
// reproduces the paper-convention defaults exactly (unit noise, exact
// reconstruction given the estimated channels, continuous Shannon
// rates), so scenarios built before the SNR-aware link plane behave
// bit for bit as they always did.
type Env struct {
	// NoisePower is the receiver noise power; 0 means the NoisePower
	// constant (1.0, the convention under which the world's path gains
	// are per-antenna SNRs). Raising it lowers every link's SNR by the
	// same factor without redrawing any fading, which makes it the
	// clean per-scenario SNR axis.
	NoisePower float64
	// ResidualCancel switches reconstruct-and-subtract cancellation to
	// the imperfect model of core.EvalOptions.ResidualCancel: a
	// cancelled packet leaks 1/(1+SINR) of its power back as
	// interference, so late packets in a chain inherit degraded SINR.
	ResidualCancel bool
	// MCS enables discrete rate adaptation and per-packet outage on the
	// shared table for both IAC slots and baseline links. Nil keeps the
	// continuous Shannon metric with no outages.
	MCS *mimo.RateTable
}

// Noise resolves the effective receiver noise power.
func (e Env) Noise() float64 {
	if e.NoisePower <= 0 {
		return NoisePower
	}
	return e.NoisePower
}

// EstimationSigma is the per-entry channel-estimate noise at this
// operating point: training symbols are received over the same noisy
// front end, so estimates degrade as the SNR drops. At unit noise it is
// exactly the historical channel.EstimationSigma(TrainSymbols).
func (e Env) EstimationSigma() float64 {
	sigma := channel.EstimationSigma(TrainSymbols)
	if e.NoisePower > 0 {
		sigma *= math.Sqrt(e.NoisePower)
	}
	return sigma
}

// Scenario is a selected set of clients and APs within a world.
type Scenario struct {
	World   *channel.World
	Clients []*channel.Node
	APs     []*channel.Node
	// Env is the scenario's link-plane operating point; the zero value
	// is the paper-convention default.
	Env Env
}

// PickScenario draws numClients + numAPs distinct random nodes from the
// world and splits them.
func PickScenario(w *channel.World, numClients, numAPs int) Scenario {
	nodes := w.PickDistinct(numClients + numAPs)
	return Scenario{World: w, Clients: nodes[:numClients], APs: nodes[numClients:]}
}

// DownlinkChannels returns the true AP->client channel set.
func (s Scenario) DownlinkChannels() core.ChannelSet {
	cs := core.NewChannelSet(len(s.APs), len(s.Clients))
	for i, ap := range s.APs {
		for j, c := range s.Clients {
			cs[i][j] = s.World.Channel(ap, c)
		}
	}
	return cs
}

// Estimate corrupts a channel set with training-length-limited estimation
// noise, giving the planner the same imperfect knowledge a real AP has.
func Estimate(cs core.ChannelSet, rng *rand.Rand) core.ChannelSet {
	return estimateWith(cs, Env{}.EstimationSigma(), rng)
}

// estimateWith is Estimate at per-entry noise sigma.
func estimateWith(cs core.ChannelSet, sigma float64, rng *rand.Rand) core.ChannelSet {
	out := core.NewChannelSet(cs.NumTx(), cs.NumRx())
	for t := range cs {
		for r := range cs[t] {
			out[t][r] = channel.NoisyEstimate(cs[t][r], sigma, rng)
		}
	}
	return out
}

// permTable caches the orderings for the shapes the constructions use
// (1 to 3 APs or clients), so the per-slot role search does not
// regenerate them; permutations of more elements are generated per call.
var permTable = [][][]int{nil, genPermutations(1), genPermutations(2), genPermutations(3)}

// permutations returns all orderings of 0..n-1. n is small (2 or 3 APs).
func permutations(n int) [][]int {
	if n > 0 && n < len(permTable) {
		return permTable[n]
	}
	return genPermutations(n)
}

// rotMemo holds rxOrders' cyclic rotations per AP count (int -> [][]int),
// each built on first use, so the N-AP chain's role search does not
// regenerate them per plan.
var rotMemo sync.Map

// rxOrders returns the receiver-role orderings the uplink role search
// tries: every permutation for the paper's small shapes (n <= 3), and
// the n cyclic rotations beyond that. Full enumeration is factorial in
// the AP count; rotations keep the N-AP chain's role search linear
// while still letting every AP take every chain position once. The
// returned tables are shared; callers must not modify them.
func rxOrders(n int) [][]int {
	if n <= 3 {
		return permutations(n)
	}
	if t, ok := rotMemo.Load(n); ok {
		return t.([][]int)
	}
	t, _ := rotMemo.LoadOrStore(n, genRotations(n))
	return t.([][]int)
}

// genRotations returns the n cyclic rotations of 0..n-1.
func genRotations(n int) [][]int {
	out := make([][]int, n)
	for r := 0; r < n; r++ {
		order := make([]int, n)
		for i := range order {
			order[i] = (i + r) % n
		}
		out[r] = order
	}
	return out
}

func genPermutations(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), base...))
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// BaselineUplinkRate returns one client's 802.11-MIMO uplink rate: the
// eigenmode rate to its best AP (extra APs give diversity only,
// Section 10e).
func BaselineUplinkRate(s Scenario, client int) float64 {
	chans := make([]*cmplxmat.Matrix, len(s.APs))
	for j, ap := range s.APs {
		chans[j] = s.World.Channel(s.Clients[client], ap)
	}
	_, rate := mimo.BestAP(chans, NodePower, s.Env.Noise())
	return rate
}

// BaselineDownlinkRate returns one client's 802.11-MIMO downlink rate
// from its best AP.
func BaselineDownlinkRate(s Scenario, client int) float64 {
	chans := make([]*cmplxmat.Matrix, len(s.APs))
	for j, ap := range s.APs {
		chans[j] = s.World.Channel(ap, s.Clients[client])
	}
	_, rate := mimo.BestAP(chans, NodePower, s.Env.Noise())
	return rate
}

// BaselineTDMARate returns the time-shared 802.11-MIMO sum rate for the
// scenario's clients: each client gets an equal share of the medium at
// its best-AP rate — the paper's comparison MAC, which "assigns the same
// number of transmission timeslots to the two schemes".
func BaselineTDMARate(s Scenario, uplink bool) float64 {
	if len(s.Clients) == 0 {
		return 0
	}
	var sum float64
	for i := range s.Clients {
		if uplink {
			sum += BaselineUplinkRate(s, i)
		} else {
			sum += BaselineDownlinkRate(s, i)
		}
	}
	return sum / float64(len(s.Clients))
}
