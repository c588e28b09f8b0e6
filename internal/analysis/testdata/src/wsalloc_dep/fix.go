// Package cmdep is the dependency of the wsalloc_xpkg fixture, loaded
// under fix/internal/cmplxmat: a package-level function and a method,
// each with a workspace twin, plus functions without one.
package cmdep

// Workspace stands in for the arena.
type Workspace struct{ buf []complex128 }

func (w *Workspace) complexes(n int) []complex128 { return w.buf[:n] }

// Poly has a heap Roots and an arena RootsWS.
type Poly []complex128

func (p Poly) Roots() []complex128 { return make([]complex128, len(p)) }

func (p Poly) RootsWS(w *Workspace) []complex128 { return w.complexes(len(p)) }

// Eval has no twin.
func (p Poly) Eval(z complex128) complex128 { return p[0] + z }

// Interpolate has an arena twin InterpolateWS.
func Interpolate(xs []complex128) Poly { return make(Poly, len(xs)) }

func InterpolateWS(w *Workspace, xs []complex128) Poly { return w.complexes(len(xs)) }

// Degree has no twin.
func Degree(p Poly) int { return len(p) - 1 }

// Hidden has only an unexported twin, which callers outside this
// package cannot use instead.
func Hidden(xs []complex128) Poly { return make(Poly, len(xs)) }

func hiddenWS(w *Workspace, xs []complex128) Poly { return w.complexes(len(xs)) }
