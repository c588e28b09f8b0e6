// Package exp defines one reproducible experiment per table/figure of the
// paper's evaluation (Section 10) plus the analytic results of Section 5,
// each returning a structured Result the bench harness and the iacbench
// command render side by side with the paper's numbers.
package exp

import (
	"fmt"
	"sort"
	"strings"
)

// Result is one experiment's reproduction output.
type Result struct {
	// ID matches the DESIGN.md experiment index (e.g. "fig12").
	ID string
	// Title describes the scenario.
	Title string
	// PaperClaim states the number or shape the paper reports.
	PaperClaim string
	// Metrics holds the measured headline numbers by name.
	Metrics map[string]float64
	// Series holds named data series (scatter columns, CDF samples).
	Series map[string][]float64
	// Notes records deviations or context.
	Notes string
}

// Metric formats one metric for display, NaN-safe.
func (r Result) Metric(name string) string {
	v, ok := r.Metrics[name]
	if !ok {
		return "n/a"
	}
	return fmt.Sprintf("%.3g", v)
}

// String renders the result as an aligned text block.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", r.ID, r.Title)
	fmt.Fprintf(&b, "   paper: %s\n", r.PaperClaim)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "   %-28s %.4g\n", n, r.Metrics[n])
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "   note: %s\n", r.Notes)
	}
	return b.String()
}

// Config tunes experiment sizes so tests can run scaled-down versions.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce results exactly.
	Seed int64
	// Trials is the number of random scenario draws for scatter
	// experiments (the paper repeats each experiment with different
	// client/AP choices).
	Trials int
	// Slots is the slot count for the large-network MAC runs (paper: 1000).
	Slots int
	// Runs is the repetition count for the MAC experiment (paper: 3).
	Runs int
}

// DefaultConfig mirrors the paper's experiment sizes.
func DefaultConfig() Config {
	return Config{Seed: 1, Trials: 40, Slots: 1000, Runs: 3}
}

// Runner is an experiment entry point.
type Runner func(Config) (Result, error)

// Registry maps experiment ids to runners, in DESIGN.md order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"fig12", Fig12},
		{"fig13a", Fig13a},
		{"fig13b", Fig13b},
		{"fig14", Fig14},
		{"fig15a", Fig15a},
		{"fig15b", Fig15b},
		{"fig16", Fig16},
		{"lemma51", Lemma51},
		{"lemma52", Lemma52},
		{"freqoffset", FreqOffset},
		{"overhead", MACOverhead},
		{"ethernet", EthernetOverhead},
		{"ofdm", OFDMAlignment},
		{"adhoc", AdHocClusters},
		{"loadsweep", LoadSweep},
		{"coherence", CoherenceSweep},
		{"snrsweep", SNRSweep},
		{"scaleup", ScaleUp},
		{"stream", Stream},
	}
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (Result, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	return Result{}, fmt.Errorf("exp: unknown experiment %q", id)
}
