package analysis

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// WSAllocAnalyzer polices the zero-alloc workspace discipline (PR 2):
// functions named *WS are the arena-backed twins whose allocs/op the
// bench gate pins at (or near) zero. Inside them it flags:
//
//   - make/new: scratch must come from the Workspace arena
//     (ws.Complexes/Floats/Ints/Vectors/Matrix) so it is reclaimed by
//     Mark/Release instead of the GC;
//   - appends that are guaranteed to allocate — appending onto a nil or
//     empty-literal base, the clone-allocates idiom;
//   - calls to the heap-allocating non-WS twin (m.Mul(b) where
//     m.MulWS(ws, b) exists), which silently reintroduce the allocation
//     the twin was written to avoid. The callee may live in any package
//     of the module; its twin is looked up in the callee's own package
//     (core calling cmplxmat.RandomGaussianVector where
//     cmplxmat.RandomGaussianVectorWS exists is flagged).
//
// Appends onto workspace-backed or caller-provided slices are not
// flagged: whether they grow depends on capacity the analyzer cannot
// see, and the arena idiom appends into cap-sized ws buffers
// legitimately. The allocation such a slice came from is flagged at its
// make site instead. Subchecks: make, new, append, twin.
var WSAllocAnalyzer = &analysis.Analyzer{
	Name: "wsalloc",
	Doc: "flag heap allocation (make/new, allocating appends, calls to the non-WS " +
		"twin) inside *WS zero-alloc workspace functions",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runWSAlloc,
}

func runWSAlloc(pass *analysis.Pass) (any, error) {
	if !inPackages(pass.Pkg.Path(), wsPackages) {
		return nil, nil
	}
	ps := collectPragmas(pass)
	insp := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	insp.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil || !isWSName(fd.Name.Name) || isTestFilePos(pass, fd) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkWSCall(pass, ps, fd.Name.Name, call)
			return true
		})
	})
	return nil, nil
}

// isWSName reports whether the function name marks a workspace twin:
// the WS suffix, preceded by something (a bare "WS" is not a twin).
func isWSName(name string) bool {
	return len(name) > 2 && strings.HasSuffix(name, "WS")
}

func checkWSCall(pass *analysis.Pass, ps *pragmas, host string, call *ast.CallExpr) {
	// Builtins: make, new, and guaranteed-allocation appends.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				ps.reportf(call.Pos(), "wsalloc", "make",
					"make inside zero-alloc %s: take scratch from the Workspace arena, or annotate //iacvet:allow wsalloc:make <reason>", host)
			case "new":
				ps.reportf(call.Pos(), "wsalloc", "new",
					"new inside zero-alloc %s: take scratch from the Workspace arena, or annotate //iacvet:allow wsalloc:new <reason>", host)
			case "append":
				if len(call.Args) > 0 && isEmptyBase(call.Args[0]) {
					ps.reportf(call.Pos(), "wsalloc", "append",
						"append onto a nil/empty base always allocates inside zero-alloc %s: append into a workspace-backed buffer, or annotate //iacvet:allow wsalloc:append <reason>", host)
				}
			}
			return
		}
	}
	// Calls to the heap-allocating twin: a function or method F of any
	// package in the module where F+"WS" also exists in F's package
	// (and is callable from here).
	fn, ok := typeutil.Callee(pass.TypesInfo, call).(*types.Func)
	if !ok || fn.Pkg() == nil || !sameModule(fn.Pkg().Path(), pass.Pkg.Path()) || isWSName(fn.Name()) {
		return
	}
	pkg := fn.Pkg()
	twin := fn.Name() + "WS"
	callable := func(obj types.Object) bool {
		_, isFunc := obj.(*types.Func)
		return isFunc && (pkg == pass.Pkg || obj.Exported())
	}
	sig := fn.Signature()
	if recv := sig.Recv(); recv != nil {
		if obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, pkg, twin); obj != nil && callable(obj) {
			ps.reportf(call.Pos(), "wsalloc", "twin",
				"%s.%s allocates on the heap inside zero-alloc %s: call the workspace twin %s, or annotate //iacvet:allow wsalloc:twin <reason>",
				types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg)), fn.Name(), host, twin)
		}
		return
	}
	if obj := pkg.Scope().Lookup(twin); obj != nil && callable(obj) {
		name := fn.Name()
		if pkg != pass.Pkg {
			name = pkg.Name() + "." + name
		}
		ps.reportf(call.Pos(), "wsalloc", "twin",
			"%s allocates on the heap inside zero-alloc %s: call the workspace twin %s, or annotate //iacvet:allow wsalloc:twin <reason>",
			name, host, twin)
	}
}

// sameModule reports whether two import paths belong to the same
// module, judged by their first path element: the module's packages
// share it ("iaclan", "iaclan/internal/cmplxmat"), while the standard
// library and the vendored dependencies do not.
func sameModule(a, b string) bool {
	first := func(p string) string {
		if i := strings.IndexByte(p, '/'); i >= 0 {
			return p[:i]
		}
		return p
	}
	return first(a) == first(b)
}

// isEmptyBase reports whether an append base expression is guaranteed
// empty with zero capacity: nil, a conversion of nil ([]T(nil)), or an
// empty composite literal ([]T{}).
func isEmptyBase(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return len(e.Elts) == 0
	case *ast.CallExpr: // conversion like []T(nil)
		if len(e.Args) == 1 {
			if id, ok := e.Args[0].(*ast.Ident); ok {
				return id.Name == "nil"
			}
		}
	case *ast.ParenExpr:
		return isEmptyBase(e.X)
	}
	return false
}
