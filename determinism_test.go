package iaclan

import (
	"reflect"
	"testing"
)

// The sample plane runs on pooled, reusable workspaces. These tests pin
// the reuse contract: a warm arena (recycled by earlier runs) must
// produce bit-identical results to a cold one, because every arena
// allocation is zeroed (matrix headers: written whole) before it is
// handed out.

func warmSimConfig() SimConfig {
	cfg := DefaultSimConfig()
	cfg.Seed = 11
	cfg.Clients = 6
	cfg.APs = 3
	cfg.Cycles = 60
	cfg.Trials = 2
	cfg.Workers = 2
	cfg.Workload = SimWorkload{Kind: WorkloadPoisson, PacketsPerSlot: 0.15}
	return cfg
}

// TestSimulateBitIdenticalWithWarmWorkspaces runs the same simulation
// three times in one process. The first run leaves warm workspaces in
// the process-wide pools; the later runs reuse them and must reproduce
// the first run's Metrics exactly.
func TestSimulateBitIdenticalWithWarmWorkspaces(t *testing.T) {
	cfg := warmSimConfig()
	cold, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		warm, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, warm) {
			t.Fatalf("warm run %d diverged from cold run:\ncold: %+v\nwarm: %+v", run+1, cold, warm)
		}
	}
}

// TestSimulateDownlinkBitIdenticalWithWarmWorkspaces covers the downlink
// constructions' workspace paths (triangle solver, eigenvector chain).
func TestSimulateDownlinkBitIdenticalWithWarmWorkspaces(t *testing.T) {
	cfg := warmSimConfig()
	cfg.Uplink = false
	cold, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm downlink run diverged:\ncold: %+v\nwarm: %+v", cold, warm)
	}
}

// TestSlotRatesBitIdenticalWithWarmWorkspaces pins reuse determinism at
// the single-slot API: repeated identical slot plans on fresh identical
// networks must agree exactly even though the pooled workspaces are warm
// after the first call.
func TestSlotRatesBitIdenticalWithWarmWorkspaces(t *testing.T) {
	slot := func() (SlotRates, SlotRates) {
		net := NewTestbedNetwork(7)
		nodes := net.Nodes()
		clients := []Node{nodes[0], nodes[1], nodes[2]}
		aps := []Node{nodes[3], nodes[4], nodes[5]}
		up, err := net.Uplink(clients, aps, 0)
		if err != nil {
			t.Fatal(err)
		}
		down, err := net.Downlink(clients, aps)
		if err != nil {
			t.Fatal(err)
		}
		return up, down
	}
	up1, down1 := slot()
	for i := 0; i < 2; i++ {
		up2, down2 := slot()
		if !reflect.DeepEqual(up1, up2) {
			t.Fatalf("warm uplink slot diverged: %+v vs %+v", up1, up2)
		}
		if !reflect.DeepEqual(down1, down2) {
			t.Fatalf("warm downlink slot diverged: %+v vs %+v", down1, down2)
		}
	}
}
