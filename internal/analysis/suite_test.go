package analysis

import "testing"

// Each analyzer is exercised against at least one flagged and one
// allowed case; the import path the fixture is loaded under is what
// opts it in or out of the scoped package sets.

func TestMapRangeFixtures(t *testing.T) {
	runFixture(t, MapRangeAnalyzer, "maprange_det", "fix/internal/sim")
}

func TestMapRangeOutsideDetPackages(t *testing.T) {
	runFixture(t, MapRangeAnalyzer, "maprange_free", "fix/tools/report")
}

// TestMapRangePerturbRegression is the seeded regression for the PR 3
// World.Perturb bug: map iteration feeding the world RNG. The fixture
// replays the pre-fix loop shape under fix/internal/channel and the
// analyzer must flag it.
func TestMapRangePerturbRegression(t *testing.T) {
	runFixture(t, MapRangeAnalyzer, "maprange_perturb", "fix/internal/channel")
}

func TestDetPureFixtures(t *testing.T) {
	runFixture(t, DetPureAnalyzer, "detpure_det", "fix/internal/mac")
}

func TestDetPureOutsideDetPackages(t *testing.T) {
	runFixture(t, DetPureAnalyzer, "detpure_free", "fix/cmd/tool")
}

func TestWSAllocFixtures(t *testing.T) {
	runFixture(t, WSAllocAnalyzer, "wsalloc_det", "fix/internal/cmplxmat")
}

// TestWSAllocCoversMimoAndChannel pins the wider workspace package set:
// the baseline's rate math and the world's channel measurements are
// policed like the kernels, so the same fixture flags under their paths.
func TestWSAllocCoversMimoAndChannel(t *testing.T) {
	for _, path := range []string{"fix/internal/mimo", "fix/internal/channel"} {
		runFixture(t, WSAllocAnalyzer, "wsalloc_det", path)
	}
}

// TestWSAllocCrossPackageTwins pins the twin lookup across packages of
// the module: a *WS function in core calling cmplxmat's heap function or
// method is flagged when cmplxmat has the workspace twin.
func TestWSAllocCrossPackageTwins(t *testing.T) {
	runFixture(t, WSAllocAnalyzer, "wsalloc_xpkg", "fix/internal/core",
		fixtureDep{dir: "wsalloc_dep", path: "fix/internal/cmplxmat"})
}

// The same WS-named code outside the workspace packages is not policed.
func TestWSAllocOutsideWSPackages(t *testing.T) {
	runFixture(t, WSAllocAnalyzer, "wsalloc_free", "fix/internal/exp")
}

func TestTraceNilFixtures(t *testing.T) {
	runFixture(t, TraceNilAnalyzer, "tracenil_det", "fix/internal/sim")
}

func TestTraceNilOutsideSim(t *testing.T) {
	runFixture(t, TraceNilAnalyzer, "tracenil_free", "fix/internal/obs")
}

func TestPragmaValidatorFixtures(t *testing.T) {
	runFixture(t, PragmaAnalyzer, "pragma_bad", "fix/anywhere")
}

// TestSuiteRegistration pins the suite composition the iacvet binary
// ships: the four contract analyzers plus the pragma validator.
func TestSuiteRegistration(t *testing.T) {
	as := Analyzers()
	want := []string{"maprange", "detpure", "wsalloc", "tracenil", "iacvetpragma"}
	if len(as) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(as), len(want))
	}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}
