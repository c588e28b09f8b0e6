package main

import "iaclan"

// workload is one pinned benchmark configuration. Names are stable:
// BENCHMARK.json, the baseline and the README cite them. Why each one
// exists is recorded in bench/README.md.
type workload struct {
	name  string
	apply func(c *iaclan.SimConfig)
}

// workloads lists the benchmark's configurations in run order.
var workloads = []workload{
	{"campus_warm", func(c *iaclan.SimConfig) {
		c.Clients, c.APs, c.Uplink = 10, 4, true
		c.Cells.Count = 2
		c.Workload = iaclan.SimWorkload{Kind: iaclan.WorkloadPoisson, PacketsPerSlot: 0.12}
		c.MaxRetries = 1
		c.Trials, c.Cycles = 4, 60000
	}},
	{"campus_fading", func(c *iaclan.SimConfig) {
		c.Clients, c.APs, c.Uplink = 10, 4, true
		c.Cells.Count = 2
		c.Workload = iaclan.SimWorkload{Kind: iaclan.WorkloadPoisson, PacketsPerSlot: 0.12}
		c.MaxRetries = 1
		c.Dynamics = iaclan.SimDynamics{Eps: 0.3, CoherenceCycles: 1, RetrainCycles: 8, TrainSlots: 2, Mobility: true}
		c.Link = iaclan.SimLink{NoiseDB: 8, ResidualCancel: true, MCS: true}
		c.Trials, c.Cycles = 4, 500
	}},
	{"downlink_stream", func(c *iaclan.SimConfig) {
		c.Clients, c.APs, c.Uplink = 12, 3, false
		c.Cells.Count = 2
		c.Workload = iaclan.SimWorkload{Kind: iaclan.WorkloadStreaming, PacketsPerSlot: 0.08, ChunkSlots: 30}
		c.Transport = iaclan.SimTransport{Enabled: true, RTOCycles: 2}
		c.MaxRetries = 0
		c.Link = iaclan.SimLink{NoiseDB: 8, MCS: true}
		c.Trials, c.Cycles = 4, 70000
	}},
	{"campus_idle100k", func(c *iaclan.SimConfig) {
		c.Clients, c.APs, c.Uplink = 25000, 3, true
		c.Cells.Count = 4
		c.Workload = iaclan.SimWorkload{Kind: iaclan.WorkloadPoisson, PacketsPerSlot: 4e-6}
		c.MaxRetries = 1
		c.Trials, c.Cycles = 1, 160000
	}},
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config builds the workload's simulation config for a seed. The
// settings every workload shares come first: two workers (one per core
// of the reference box, nothing else busy), the paper's packet size and
// contention period, the best-of-two picker over 3-client groups, and
// the campus leakage.
func (w workload) config(seed int64) iaclan.SimConfig {
	c := iaclan.SimConfig{
		Seed:        seed,
		Workers:     2,
		PacketBytes: 1440,
		CPSlots:     2,
		MaxQueue:    64,
		Picker:      iaclan.PickerBestOfTwo,
		GroupSize:   3,
		Cells:       iaclan.SimCells{Leak: 0.15},
	}
	w.apply(&c)
	return c
}
