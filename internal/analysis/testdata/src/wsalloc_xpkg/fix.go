// Package corefix is loaded under fix/internal/core and calls into the
// wsalloc_dep fixture loaded as fix/internal/cmplxmat: heap twins in
// another package of the module are flagged like same-package ones.
package corefix

import (
	"strings"

	cm "fix/internal/cmplxmat"
)

func directionWS(w *cm.Workspace, xs []complex128) []complex128 {
	p := cm.Interpolate(xs) // want `cmdep.Interpolate allocates on the heap inside zero-alloc directionWS: call the workspace twin InterpolateWS`
	return p.Roots()        // want `Poly.Roots allocates on the heap inside zero-alloc directionWS: call the workspace twin RootsWS`
}

func directionOkWS(w *cm.Workspace, xs []complex128) []complex128 {
	p := cm.InterpolateWS(w, xs)
	_ = p.Eval(1) + complex(float64(cm.Degree(p)), 0) // no twins: fine
	_ = cm.Hidden(xs)                                 // twin not callable from here: fine
	_ = strings.Repeat("x", 2)                        // outside the module: fine
	return p.RootsWS(w)
}

func annotatedWS(w *cm.Workspace, xs []complex128) []complex128 {
	//iacvet:allow wsalloc:twin the result escapes the workspace by design
	return cm.Interpolate(xs).RootsWS(w)
}

// plainHelper is not WS-named: the twin check does not apply.
func plainHelper(xs []complex128) []complex128 {
	return cm.Interpolate(xs).Roots()
}
