package phy

import (
	"math/cmplx"
	"sync"
	"sync/atomic"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/sig"
)

// Workspace is the reusable scratch arena of the sample plane: flat
// contiguous complex sample buffers carved into antenna-strided views,
// plus the shared linear-algebra decomposition scratch (Mat) that the
// planning layers (core, mimo, testbed) thread through their math.
//
// A Workspace is not safe for concurrent use; each simulation trial or
// receive chain owns one. Buffers obtained from it are valid until Reset.
// Allocations are always zeroed, so a warm pooled workspace produces
// bit-identical results to cold heap allocation.
type Workspace struct {
	// Mat is the decomposition scratch shared with cmplxmat's *WS
	// operations (LU, Jacobi eigen, SVD) and everything built on them.
	// Sample buffers live in the same arena, so one Mark/Release or
	// Reset covers math scratch and sample memory together.
	Mat *cmplxmat.Workspace
}

// NewWorkspace returns an empty workspace. Most callers should prefer
// GetWorkspace / PutWorkspace, which pool warm arenas process-wide.
func NewWorkspace() *Workspace {
	return &Workspace{Mat: cmplxmat.NewWorkspace()}
}

// Reset reclaims every buffer handed out since the last Reset.
func (w *Workspace) Reset() { w.Mat.Reset() }

// Samples returns a zeroed scalar sample buffer of length n.
func (w *Workspace) Samples(n int) []complex128 { return w.Mat.Complexes(n) }

// AntSamples returns a zeroed multi-antenna sample buffer of ants rows
// and perAnt samples each. All rows are strided views over one
// contiguous arena block, the layout the cancellation loops stream
// through.
func (w *Workspace) AntSamples(ants, perAnt int) [][]complex128 {
	return w.Mat.SampleRows(ants, perAnt)
}

// maxFreeWorkspaces bounds the free list. A trial holds one workspace
// and each runner worker runs one trial at a time, so the bound covers
// a runner of up to 64 workers; past it, returned workspaces go to the
// collector.
const maxFreeWorkspaces = 64

// The pool recycles warm sample-plane workspaces process-wide: a LIFO
// free list of at most maxFreeWorkspaces entries behind a mutex. The
// public entry points that keep their allocation-free guts internal
// (the cancel search, slot evaluation wrappers) and every simulation
// trial borrow from here. Unlike a sync.Pool, a garbage collection
// cannot drain it, so a run borrows the same warm arenas from start to
// end instead of regrowing one after a collection, and its heap
// allocation count repeats exactly. The cost is that the arenas of the
// largest number of workspaces ever out at once stay allocated. A
// workspace returned to a full list is left to the collector. poolGets
// and poolPuts count the pool's churn for the observability plane.
var (
	poolMu             sync.Mutex
	poolFree           = make([]*Workspace, 0, maxFreeWorkspaces)
	poolGets, poolPuts atomic.Uint64
)

// GetWorkspace borrows a warm workspace from the process-wide pool, or
// returns a new one when the pool is empty.
func GetWorkspace() *Workspace {
	poolGets.Add(1)
	poolMu.Lock()
	defer poolMu.Unlock()
	n := len(poolFree)
	if n == 0 {
		return NewWorkspace()
	}
	ws := poolFree[n-1]
	poolFree[n-1] = nil
	poolFree = poolFree[:n-1]
	return ws
}

// PutWorkspace resets ws and returns it to the pool. ws must not be used
// afterwards.
func PutWorkspace(ws *Workspace) {
	ws.Reset()
	poolPuts.Add(1)
	poolMu.Lock()
	defer poolMu.Unlock()
	if len(poolFree) < maxFreeWorkspaces {
		poolFree = append(poolFree, ws)
	}
}

// PoolCounters reports the process-wide workspace pool's cumulative
// borrow/return totals — gets minus puts is the number of workspaces
// currently out (one per in-flight trial). Safe for concurrent use.
func PoolCounters() (gets, puts uint64) {
	return poolGets.Load(), poolPuts.Load()
}

// frameSamplesWS modulates a full frame (sig.FrameSamplesInto) into
// the workspace arena: the allocation-free sig.FrameSamples.
func frameSamplesWS(ws *Workspace, payload []byte) []complex128 {
	out := ws.Samples(sig.FrameLenBits(len(payload)))
	sig.FrameSamplesInto(out, payload)
	return out
}

// PrecodeSamplesWS is PrecodeSamples with the output in the workspace
// arena: antenna a carries amp * v[a] * s[t].
func PrecodeSamplesWS(ws *Workspace, s []complex128, v cmplxmat.Vector, amp float64) [][]complex128 {
	out := ws.AntSamples(v.Dim(), len(s))
	precodeInto(out, s, v, amp)
	return out
}

// precodeInto writes amp * v[a] * s[t] into out[a][t]; out has one row
// of len(s) samples per entry of v.
func precodeInto(out [][]complex128, s []complex128, v cmplxmat.Vector, amp float64) {
	for a := range out {
		g := v[a] * complex(amp, 0)
		for t, x := range s {
			out[a][t] = g * x
		}
	}
}

// ProjectWS is Project with the output in the workspace arena.
func ProjectWS(ws *Workspace, rx [][]complex128, w cmplxmat.Vector) []complex128 {
	if len(rx) != w.Dim() {
		panic("phy: projection dimension mismatch")
	}
	out := ws.Samples(len(rx[0]))
	projectInto(out, rx, w)
	return out
}

// projectInto accumulates w^H y[t] into out (assumed zeroed).
func projectInto(out []complex128, rx [][]complex128, w cmplxmat.Vector) {
	n := len(out)
	for a := range rx {
		cw := cmplx.Conj(w[a])
		for t := 0; t < n; t++ {
			out[t] += cw * rx[a][t]
		}
	}
}

// reconstructInto accumulates the reconstructed burst into out (assumed
// zeroed): out[a][start+t] += hv[a] * s[t] * e^{j w (start+t)}.
func reconstructInto(out [][]complex128, s []complex128, hv cmplxmat.Vector, w float64, start int) {
	dur := 0
	if len(out) > 0 {
		dur = len(out[0])
	}
	for t := range s {
		rt := start + t
		if rt < 0 || rt >= dur {
			continue
		}
		rot := cmplx.Exp(complex(0, w*float64(rt)))
		for a := range out {
			out[a][rt] += hv[a] * s[t] * rot
		}
	}
}

// cancelInto fits the least-squares scale alpha and writes
// rx - alpha*recon into residual. residual rows must have rx's lengths.
// The scalar fit absorbs the transmitter's unknown oscillator phase and
// small gain estimation error, as practical cancellers do [19].
func cancelInto(residual, rx, recon [][]complex128) (alpha complex128) {
	var num complex128
	var den float64
	for a := range rx {
		if len(rx[a]) != len(recon[a]) {
			panic("phy: Cancel length mismatch")
		}
		for t := range rx[a] {
			num += cmplx.Conj(recon[a][t]) * rx[a][t]
			den += real(recon[a][t])*real(recon[a][t]) + imag(recon[a][t])*imag(recon[a][t])
		}
	}
	if den == 0 {
		alpha = 0
	} else {
		alpha = num / complex(den, 0)
	}
	for a := range rx {
		for t := range rx[a] {
			residual[a][t] = rx[a][t] - alpha*recon[a][t]
		}
	}
	return alpha
}
