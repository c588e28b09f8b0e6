// Package analysis is iaclan's project-specific static-analysis suite:
// four golang.org/x/tools/go/analysis analyzers that enforce, at vet
// time, the contracts every figure in this reproduction stakes its
// numbers on — bit-identical serial/sharded runs, wheel-vs-scan
// equivalence, observation-never-perturbs, and the zero-allocation
// workspace discipline on the PHY sample plane.
//
// The analyzers exist because each contract has already been broken
// once by the exact bug class they mechanize away:
//
//   - maprange: Go randomizes map iteration order. A `for range` over a
//     map whose body feeds simulation state (the World.Perturb bug,
//     fixed in PR 3) makes two identical runs diverge. Flagged in the
//     deterministic packages unless the keys are sorted first (iterate
//     a sorted slice — the slice range is never flagged), the body is
//     the canonical collect-keys-into-a-slice idiom, or the loop is
//     annotated order-insensitive.
//   - detpure: wall-clock reads (time.Now/Since/Until), the global
//     math/rand source, environment lookups, and multi-ready select
//     races are all ambient nondeterminism; inside the deterministic
//     packages they may feed metrics, never simulation state, and each
//     surviving site must carry an //iacvet:allow pragma saying why.
//   - wsalloc: functions named *WS are the zero-alloc workspace twins
//     (PR 2); make/new, guaranteed-allocating appends, and calls to the
//     heap-allocating non-WS twin inside them silently regress the
//     allocs/op numbers the bench gate pins.
//   - tracenil: trace emission on engine hot paths must stay behind a
//     nil-tracer guard so the no-tracer configuration remains the
//     pinned 0-alloc fast path (TestNilTracerZeroAlloc).
//
// # Pragma grammar
//
// A finding is suppressed by a line comment on the flagged line or the
// line directly above it:
//
//	//iacvet:allow <check> <reason>
//
// where <check> is an analyzer name (`maprange`, `detpure`, `wsalloc`,
// `tracenil`) or an analyzer:subcheck pair (`detpure:wallclock`,
// `detpure:globalrand`, `detpure:env`, `detpure:select`, `wsalloc:make`,
// `wsalloc:new`, `wsalloc:append`, `wsalloc:twin`) and <reason> is a
// non-empty free-text justification. The iacvetpragma analyzer rejects
// pragmas with unknown check names or missing reasons, so a typo'd
// pragma fails vet instead of silently suppressing nothing.
//
// # Adding an analyzer
//
// Write the analyzer in this package (require passes/inspect, skip test
// files via isTestFile, scope by package set via inPackages, route every
// finding through (*pragmas).reportf so //iacvet:allow works), register
// it in Analyzers, add a fixture directory under testdata/src with
// `// want "regexp"` expectations exercising one flagged and one allowed
// case, and list the new check name in knownChecks (pragmacheck.go).
package analysis

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full iacvet suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapRangeAnalyzer,
		DetPureAnalyzer,
		WSAllocAnalyzer,
		TraceNilAnalyzer,
		PragmaAnalyzer,
	}
}

// detPackages are the deterministic packages: everything that executes
// between seeding a trial RNG and emitting a Summary. Map iteration
// order and ambient inputs inside them can change published figures.
// internal/backend is included because the wired plane's byte
// accounting participates in the same bit-identical contracts even
// though its TCP hub legitimately touches the wall clock for socket
// deadlines (those sites carry pragmas).
var detPackages = []string{
	"internal/sim",
	"internal/channel",
	"internal/mac",
	"internal/testbed",
	"internal/core",
	"internal/backend",
}

// wsPackages hold the zero-alloc workspace twins the bench gate pins.
var wsPackages = []string{
	"internal/cmplxmat",
	"internal/phy",
	"internal/core",
	"internal/testbed",
}

// tracePackages are the engine hot paths where trace emission must stay
// behind a nil guard.
var tracePackages = []string{
	"internal/sim",
}

// inPackages reports whether the import path is (or ends with) one of
// the listed package suffixes. Suffix matching keeps the sets module-
// name-agnostic, which also lets the analysistest fixtures opt in with
// paths like "fix/internal/sim".
func inPackages(path string, set []string) bool {
	for _, p := range set {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file is a _test.go file. The suite
// polices production simulation code; tests routinely and legitimately
// use wall clocks, ad-hoc maps, and throwaway allocation.
func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
}
