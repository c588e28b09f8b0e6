// Package iaclan is a Go implementation of Interference Alignment and
// Cancellation (IAC) for MIMO wireless LANs, reproducing Gollakota,
// Perli and Katabi, "Interference Alignment and Cancellation",
// SIGCOMM 2009.
//
// IAC lets a set of wire-connected access points decode more concurrent
// MIMO packets than any single AP has antennas, by (a) precoding
// transmissions so interfering packets align at chosen APs, and (b)
// shipping decoded packets over the wired backend so other APs can
// subtract them. On the uplink IAC delivers 2M concurrent packets for
// M-antenna nodes; on the downlink max(2M-2, floor(3M/2)).
//
// The package exposes three layers:
//
//   - Network: a simulated MIMO LAN (geometry, Rayleigh fading, hardware
//     chains, oscillator offsets) with clients and APs.
//   - Uplink / Downlink: plan one concurrent-transmission slot under IAC
//     and under the point-to-point 802.11-MIMO baseline, and measure the
//     achievable rates (bit/s/Hz, the paper's Eq. 9 metric).
//   - Experiments: regenerate every figure of the paper's evaluation
//     (see RunExperiment and the cmd/iacbench tool).
//   - Simulation: a discrete-event LAN traffic engine driving the whole
//     stack over simulated time, from a one-cell lab LAN to a 10^5-client
//     campus (see simapi.go: SimulateCampus is the general entry point,
//     Simulate and SimulateTrials the single-cell conveniences).
//
// Everything is deterministic given a seed, uses only the standard
// library, and runs on a laptop: the paper's USRP radios are replaced by
// a sample-level baseband simulator (see DESIGN.md for the substitution
// table).
package iaclan

import (
	"fmt"
	"math/rand"

	"iaclan/internal/channel"
	"iaclan/internal/exp"
	"iaclan/internal/testbed"
)

// Network is a simulated MIMO LAN.
type Network struct {
	world *channel.World
	rng   *rand.Rand
}

// Node identifies a radio in the network.
type Node struct {
	id  int
	net *Network
}

// NetworkConfig controls the radio environment.
type NetworkConfig struct {
	// Antennas per node (the paper's testbed uses 2).
	Antennas int
	// Seed makes the network deterministic.
	Seed int64
	// MeanSNRdB sets the per-antenna SNR at 1 m; distance rolls it off.
	MeanSNRdB float64
}

// NewNetwork creates an empty network. Zero-value fields take the
// defaults matching the paper's testbed (2 antennas, indoor SNRs).
func NewNetwork(cfg NetworkConfig) *Network {
	p := channel.DefaultParams()
	if cfg.Antennas > 0 {
		p.Antennas = cfg.Antennas
	}
	if cfg.MeanSNRdB != 0 {
		p.RefSNRdB = cfg.MeanSNRdB
	}
	return &Network{
		world: channel.NewWorld(p, cfg.Seed),
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
	}
}

// NewTestbedNetwork creates the paper's 20-node, single-room testbed
// (Fig. 11).
func NewTestbedNetwork(seed int64) *Network {
	return &Network{
		world: channel.DefaultTestbed(seed),
		rng:   rand.New(rand.NewSource(seed + 1)),
	}
}

// AddNode places a node at (x, y) meters and returns its handle.
func (n *Network) AddNode(x, y float64) Node {
	nd := n.world.AddNode(x, y)
	return Node{id: nd.ID, net: n}
}

// Nodes returns handles for every node in the network.
func (n *Network) Nodes() []Node {
	out := make([]Node, len(n.world.Nodes()))
	for i := range out {
		out[i] = Node{id: i, net: n}
	}
	return out
}

// Redraw refreshes the multipath fading of the whole network, as if time
// passed or the environment changed.
func (n *Network) Redraw() { n.world.Perturb(1) }

// node resolves the handle to the underlying world node.
func (nd Node) node() *channel.Node { return nd.net.world.Nodes()[nd.id] }

// ID returns the node's identifier.
func (nd Node) ID() int { return nd.id }

// Position returns the node's coordinates in meters.
func (nd Node) Position() (x, y float64) {
	w := nd.node()
	return w.X, w.Y
}

// SlotRates reports one concurrent-transmission slot's outcome.
type SlotRates struct {
	// Scheme names what produced the rates ("iac" or "802.11-mimo").
	Scheme string
	// SumRate is the slot's total achievable rate in bit/s/Hz.
	SumRate float64
	// PerClient maps the position of each client in the session's client
	// slice to the rate its packets achieved.
	PerClient map[int]float64
	// Packets is the number of concurrent packets the slot carried.
	Packets int
}

// scenario assembles a testbed.Scenario after validating node sets.
func (n *Network) scenario(clients, aps []Node) (testbed.Scenario, error) {
	if len(clients) == 0 || len(aps) == 0 {
		return testbed.Scenario{}, fmt.Errorf("iaclan: need at least one client and one AP")
	}
	seen := map[int]bool{}
	s := testbed.Scenario{World: n.world}
	for _, c := range clients {
		if c.net != n {
			return testbed.Scenario{}, fmt.Errorf("iaclan: node %d belongs to another network", c.id)
		}
		if seen[c.id] {
			return testbed.Scenario{}, fmt.Errorf("iaclan: node %d listed twice", c.id)
		}
		seen[c.id] = true
		s.Clients = append(s.Clients, c.node())
	}
	for _, a := range aps {
		if a.net != n {
			return testbed.Scenario{}, fmt.Errorf("iaclan: node %d belongs to another network", a.id)
		}
		if seen[a.id] {
			return testbed.Scenario{}, fmt.Errorf("iaclan: node %d listed twice", a.id)
		}
		seen[a.id] = true
		s.APs = append(s.APs, a.node())
	}
	return s, nil
}

// Uplink runs one IAC uplink slot: the clients transmit concurrently to
// the APs, which decode cooperatively over the wired backend.
// twoPacketClient indexes into clients and selects who uploads two
// packets this slot (rotate it across slots for fairness, as the paper
// does). Supported shapes: 2 clients with 2 APs (3 packets) and the
// uplink chain, 3 clients with 3 or more APs (4 packets, successive
// cancellation spread across the APs).
func (n *Network) Uplink(clients, aps []Node, twoPacketClient int) (SlotRates, error) {
	s, err := n.scenario(clients, aps)
	if err != nil {
		return SlotRates{}, err
	}
	out, err := testbed.RunUplinkSlot(s, twoPacketClient, n.rng)
	if err != nil {
		return SlotRates{}, err
	}
	return SlotRates{
		Scheme:    "iac",
		SumRate:   out.SumRate,
		PerClient: rateMap(out.PerClient),
		Packets:   out.Plan.NumPackets(),
	}, nil
}

// Downlink runs one IAC downlink slot: the APs transmit concurrently,
// one packet per client, with interference aligned at every client.
// Supported shapes: 3 clients with 3 APs (3 packets) and 1 client with
// 2 APs (2 packets via AP diversity selection).
func (n *Network) Downlink(clients, aps []Node) (SlotRates, error) {
	s, err := n.scenario(clients, aps)
	if err != nil {
		return SlotRates{}, err
	}
	out, err := testbed.RunDownlinkSlot(s, n.rng)
	if err != nil {
		return SlotRates{}, err
	}
	return SlotRates{
		Scheme:    "iac",
		SumRate:   out.SumRate,
		PerClient: rateMap(out.PerClient),
		Packets:   out.Plan.NumPackets(),
	}, nil
}

// rateMap keys per-client rates by client position.
func rateMap(rates []float64) map[int]float64 {
	m := make(map[int]float64, len(rates))
	for i, r := range rates {
		m[i] = r
	}
	return m
}

// Baseline runs the same client set under point-to-point 802.11-MIMO
// with full CSI (eigenmode precoding, best-AP diversity, TDMA between
// clients) — the paper's comparison scheme.
func (n *Network) Baseline(clients, aps []Node, uplink bool) (SlotRates, error) {
	s, err := n.scenario(clients, aps)
	if err != nil {
		return SlotRates{}, err
	}
	rates := SlotRates{Scheme: "802.11-mimo", PerClient: map[int]float64{}, Packets: s.World.Params().Antennas}
	for i := range s.Clients {
		var r float64
		if uplink {
			r = testbed.BaselineUplinkRate(s, i)
		} else {
			r = testbed.BaselineDownlinkRate(s, i)
		}
		// TDMA: each client holds the medium 1/len of the time.
		rates.PerClient[i] = r / float64(len(s.Clients))
		rates.SumRate += r / float64(len(s.Clients))
	}
	return rates, nil
}

// Gain runs IAC and the baseline on the same nodes and returns the rate
// ratio, averaging the uplink two-packet role round-robin.
func (n *Network) Gain(clients, aps []Node, uplink bool) (float64, error) {
	s, err := n.scenario(clients, aps)
	if err != nil {
		return 0, err
	}
	var iacRate float64
	if uplink {
		iacRate, err = testbed.AverageUplinkIAC(s, n.rng)
		if err != nil {
			return 0, fmt.Errorf("iaclan: uplink slot: %w", err)
		}
	} else {
		out, err := testbed.RunDownlinkSlot(s, n.rng)
		if err != nil {
			return 0, fmt.Errorf("iaclan: downlink slot: %w", err)
		}
		iacRate = out.SumRate
	}
	base := testbed.BaselineTDMARate(s, uplink)
	if base == 0 {
		return 0, fmt.Errorf("iaclan: zero baseline rate")
	}
	return iacRate / base, nil
}

// ExperimentConfig re-exports the experiment tuning knobs.
type ExperimentConfig = exp.Config

// ExperimentResult re-exports the structured experiment output.
type ExperimentResult = exp.Result

// DefaultExperimentConfig mirrors the paper's experiment sizes.
func DefaultExperimentConfig() ExperimentConfig { return exp.DefaultConfig() }

// Experiments lists the available experiment ids in DESIGN.md order.
func Experiments() []string {
	reg := exp.Registry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.ID
	}
	return out
}

// RunExperiment regenerates one of the paper's tables/figures by id
// (e.g. "fig12"); see DESIGN.md for the index.
func RunExperiment(id string, cfg ExperimentConfig) (ExperimentResult, error) {
	return exp.Run(id, cfg)
}
