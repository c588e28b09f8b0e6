package analysis

// A minimal analysistest-style harness. The upstream
// golang.org/x/tools/go/analysis/analysistest depends on go/packages,
// which the offline vendored subset does not carry, so this file
// reimplements the part the suite needs: load a fixture package from
// testdata/src/<dir> under a chosen import path (the path is how
// fixtures opt in or out of the scoped package sets), run an analyzer,
// and compare its diagnostics against `// want` comments.
//
// Expectation grammar, per line comment:
//
//	code() // want `regexp` `another regexp`
//	// want-above `regexp`
//
// A plain want expects the diagnostics on its own line; want-above
// expects them on the preceding line (needed when the diagnostic
// anchors to a full-line comment, as the pragma validator's do).

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// diag is one reported diagnostic, located by file base name and line.
type diag struct {
	file    string
	line    int
	message string
}

// expectation is one parsed want regexp, located like a diag.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// fixtureDep is a fixture package another fixture imports: testdata/src/
// <dir> type-checked under import path path.
type fixtureDep struct{ dir, path string }

// fixtureImporter serves type-checked fixture dependencies by path and
// everything else from the fallback importer.
type fixtureImporter struct {
	deps     map[string]*types.Package
	fallback types.Importer
}

func (fi fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := fi.deps[path]; ok {
		return p, nil
	}
	return fi.fallback.Import(path)
}

// runFixture loads testdata/src/<dir> as package path pkgpath, runs the
// analyzer, and enforces the fixture's want expectations exactly: every
// diagnostic must match a want on its line, every want must be matched.
// deps are fixture packages it imports; the analyzer does not run on
// them.
func runFixture(t *testing.T, a *analysis.Analyzer, dir, pkgpath string, deps ...fixtureDep) {
	t.Helper()
	fset := token.NewFileSet()
	imp := fixtureImporter{deps: map[string]*types.Package{}, fallback: importer.ForCompiler(fset, "source", nil)}
	for _, d := range deps {
		depFiles, _ := parseFixture(t, fset, filepath.Join("testdata", "src", d.dir))
		pkg, err := (&types.Config{Importer: imp}).Check(d.path, fset, depFiles, nil)
		if err != nil {
			t.Fatalf("typecheck dependency %s: %v", d.dir, err)
		}
		imp.deps[d.path] = pkg
	}
	files, src := parseFixture(t, fset, filepath.Join("testdata", "src", dir))

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgpath, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}

	var diags []diag
	report := func(d analysis.Diagnostic) {
		pos := fset.Position(d.Pos)
		diags = append(diags, diag{filepath.Base(pos.Filename), pos.Line, d.Message})
	}
	base := analysis.Pass{
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		TypesInfo:  info,
		TypesSizes: types.SizesFor("gc", "amd64"),
		ResultOf:   map[*analysis.Analyzer]any{},
		Report:     report,
	}

	// Run the required passes first (the suite only ever requires
	// inspect, which has no requirements of its own).
	for _, req := range a.Requires {
		pass := base
		pass.Analyzer = req
		res, err := req.Run(&pass)
		if err != nil {
			t.Fatalf("required analyzer %s: %v", req.Name, err)
		}
		base.ResultOf[req] = res
	}

	pass := base
	pass.Analyzer = a
	if _, err := a.Run(&pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	checkExpectations(t, fset, src, diags)
}

// parseFixture parses every .go file in dir, returning the files and a
// map from base filename to source text (for want scanning).
func parseFixture(t *testing.T, fset *token.FileSet, dir string) ([]*ast.File, map[string]string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	var files []*ast.File
	src := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, data, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
		src[e.Name()] = string(data)
	}
	if len(files) == 0 {
		t.Fatalf("fixture dir %s holds no Go files", dir)
	}
	return files, src
}

// wantRE matches a want comment and captures the optional -above marker
// and the quoted regexp list.
var wantRE = regexp.MustCompile("//\\s*want(-above)?((?:\\s+`[^`]*`)+)")

// quotedRE extracts the individual backquoted regexps.
var quotedRE = regexp.MustCompile("`([^`]*)`")

// checkExpectations matches diagnostics against want comments 1:1.
func checkExpectations(t *testing.T, fset *token.FileSet, src map[string]string, diags []diag) {
	t.Helper()
	var wants []*expectation
	for name, text := range src {
		for i, line := range strings.Split(text, "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			wantLine := i + 1
			if m[1] == "-above" {
				wantLine--
			}
			for _, q := range quotedRE.FindAllStringSubmatch(m[2], -1) {
				re, err := regexp.Compile(q[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, q[1], err)
				}
				wants = append(wants, &expectation{file: name, line: wantLine, re: re})
			}
		}
	}
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.file, d.line, d.message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unclaimed want matching the diagnostic.
func claim(wants []*expectation, d diag) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.file && w.line == d.line && w.re.MatchString(d.message) {
			w.matched = true
			return true
		}
	}
	return false
}

// TestFixtureHarnessSelfCheck pins the want scanner itself: a fixture
// line with no diagnostic and a diagnostic with no want must both fail,
// which the table tests below exercise through real analyzers; here we
// only sanity-check the comment grammar parsing.
func TestFixtureHarnessSelfCheck(t *testing.T) {
	m := wantRE.FindStringSubmatch("x := 1 // want `foo bar` `baz`")
	if m == nil || m[1] != "" {
		t.Fatalf("plain want did not parse: %v", m)
	}
	qs := quotedRE.FindAllStringSubmatch(m[2], -1)
	if len(qs) != 2 || qs[0][1] != "foo bar" || qs[1][1] != "baz" {
		t.Fatalf("quoted regexps misparsed: %v", qs)
	}
	if m := wantRE.FindStringSubmatch("// want-above `x`"); m == nil || m[1] != "-above" {
		t.Fatalf("want-above did not parse: %v", m)
	}
	if wantRE.MatchString(fmt.Sprintf("// plain comment %s", "no want")) {
		t.Fatal("non-want comment parsed as want")
	}
}
