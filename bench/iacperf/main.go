// Command iacperf is the campus simulator's benchmark. It drives pinned
// workloads through iaclan.SimulateCampus, checks the results, and
// prints every end-to-end and per-layer metric by name with its unit.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 56, "failed": 0, "metrics": {"slots_per_s": {"value": 566936.2, "unit": "slots/s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 (the default) iacperf also runs one traced
// rep and the layer probes, and the metrics are the per-layer ones.
// The exit code is non-zero when a correctness check fails.
//
// Usage, from bench/ (see bench/README.md):
//
//	go run ./iacperf [-workload all|<name>] [-seed 1] [-seconds 20] [-trace 0|1]
//
// With -workload all, iacperf runs each workload in its own process, so
// max_rss_mb stays per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := flag.Int64("seed", 1, "workload seed; the reference check runs at seed 1")
	seconds := flag.Float64("seconds", 20, "how long the timed reps run, in seconds")
	trace := flag.Int("trace", 1, "1: also run the traced rep and the layer probes and report per-layer metrics on the JSON line; 0: end-to-end metrics only")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "iacperf: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "iacperf: unknown workload %q\n", *name)
		os.Exit(2)
	}
	opt := options{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		minReps: 3,
		setups:  11,
		budget:  100 * time.Millisecond,
	}
	if *seed == referenceSeed {
		refs, err := loadReferences()
		if err != nil {
			fmt.Fprintln(os.Stderr, "iacperf:", err)
			os.Exit(2)
		}
		opt.refs = refs
	}
	rep := run(w, opt)
	printReport(os.Stdout, rep)
	if !rep.correct() {
		os.Exit(1)
	}
}

// runAll re-executes iacperf once per workload and reports whether all
// of them passed their checks.
func runAll(seed int64, seconds float64, trace int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "iacperf:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "iacperf: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// printReport writes the human-readable report, then the JSON line.
func printReport(f *os.File, r *report) {
	fmt.Fprintf(f, "workload %s  seed %d  timed reps %d  workers %d  nproc %d  %s\n",
		r.workload, r.cfg.Seed, r.reps, r.cfg.Workers, runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(f, "result_digest %016x\n", r.digest)
	out, _ := json.Marshal(r.outcome)
	fmt.Fprintf(f, "outcome %s\n", out)
	fmt.Fprintf(f, "failed_frac %g (%d of %d jobs failed)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(f, "FAIL", p)
	}
	fmt.Fprintf(f, "end-to-end: median [q1, q3] over the timed reps (setup_s over its Cycles: 1 calls), in reference-box time at host speed %.4g\n", r.hostSpeed)
	for _, m := range r.endToEnd {
		fmt.Fprintf(f, "  %-32s %-12s %14.6g  [%.6g, %.6g]\n", m.name, m.unit, m.value, m.q1, m.q3)
	}
	fmt.Fprintln(f, "in host time:")
	for _, m := range r.raw {
		fmt.Fprintf(f, "  %-32s %-12s %14.6g  [%.6g, %.6g]\n", m.name, m.unit, m.value, m.q1, m.q3)
	}
	if r.perLayer != nil {
		fmt.Fprintln(f, "per-layer: traced rep and layer probes (spans are attributed by closing event)")
		for _, m := range r.perLayer {
			v := strconv.FormatFloat(m.value, 'g', 6, 64)
			if math.IsNaN(m.value) {
				v = "absent"
			}
			fmt.Fprintf(f, "  %-32s %-12s %14s\n", m.name, m.unit, v)
		}
	}
	metrics := r.endToEnd
	if r.perLayer != nil {
		metrics = r.perLayer
	}
	line, err := json.Marshal(resultLine(r, metrics))
	if err != nil {
		panic(err) // only NaN can fail, and resultLine maps it to null
	}
	fmt.Fprintf(f, "%s\n", line)
}

type jsonMetric struct {
	Value *float64 `json:"value"` // null when the metric's source is absent
	Unit  string   `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func resultLine(r *report, metrics []metric) jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range metrics {
		jm := jsonMetric{Unit: m.unit}
		if !math.IsNaN(m.value) {
			v := m.value
			jm.Value = &v
		}
		out.Metrics[m.name] = jm
	}
	return out
}
