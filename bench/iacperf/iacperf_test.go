package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// tiny runs a workload at a few CFP cycles: every code path of a real
// run, at a fraction of its cost.
func tiny(w workload, trace bool, refs map[string]reference) *report {
	return run(w, options{seed: 1, trace: trace, minReps: 2, setups: 1, budget: time.Millisecond, cycles: 20, refs: refs})
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON reads the metric and workload names BENCHMARK.json
// declares.
func benchmarkJSON(t *testing.T) (workloads []string, endToEnd, perLayer []benchMetric) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchMetric           `json:"end_to_end"`
		PerLayer  []benchMetric           `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, b.EndToEnd, b.PerLayer
}

// checkEmitted fails unless every declared metric is in got with its
// unit. Only per-layer metrics may be absent (NaN).
func checkEmitted(t *testing.T, workload string, want []benchMetric, got []metric, absentOK bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json declares %d", workload, len(got), len(want))
	}
	for _, bm := range want {
		i := slices.IndexFunc(got, func(m metric) bool { return m.name == bm.Name })
		switch {
		case i < 0:
			t.Errorf("%s: metric %s not emitted", workload, bm.Name)
		case got[i].unit != bm.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", workload, bm.Name, got[i].unit, bm.Unit)
		case math.IsNaN(got[i].value) && !absentOK:
			t.Errorf("%s: end-to-end metric %s is absent", workload, bm.Name)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetricAndPassesChecks(t *testing.T) {
	names, endToEnd, perLayer := benchmarkJSON(t)
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, iacperf runs %v", names, ours)
	}
	for _, w := range workloads {
		rep := tiny(w, true, nil)
		if !rep.correct() || rep.attempted == 0 {
			t.Errorf("%s: checks failed (%d of %d jobs): %v", w.name, rep.failed, rep.attempted, rep.problems)
		}
		checkEmitted(t, w.name, endToEnd, rep.endToEnd, false)
		checkEmitted(t, w.name, perLayer, rep.perLayer, true)
	}
}

func TestReferenceCheck(t *testing.T) {
	refs, err := loadReferences()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if _, ok := refs[w.name]; !ok {
			t.Errorf("reference.json has no values for %s", w.name)
		}
	}

	w, _ := lookupWorkload("campus_warm")
	got := tiny(w, false, nil).outcome
	if rep := tiny(w, false, map[string]reference{w.name: got}); !rep.correct() {
		t.Fatalf("run fails against its own outcome: %v", rep.problems)
	}
	for name, perturb := range map[string]func(r *reference){
		"throughput":         func(r *reference) { r.Throughput *= 1 + 2*bandThroughput },
		"delivered fraction": func(r *reference) { r.DeliveredFraction *= 1 - 2*bandDelivered },
		"p95 latency":        func(r *reference) { r.P95Latency *= 1 + 2*bandP95 },
	} {
		ref := got
		perturb(&ref)
		rep := tiny(w, false, map[string]reference{w.name: ref})
		if rep.correct() || rep.failed != rep.attempted {
			t.Errorf("perturbed %s: %d of %d jobs failed, want all", name, rep.failed, rep.attempted)
		}
	}
}
