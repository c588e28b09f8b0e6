package phy

import (
	"hash/crc32"
	"math"
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

// pool recycles warm sample-plane workspaces process-wide. The public
// entry points that keep their allocation-free guts internal (Cancel
// searches, slot evaluation wrappers) borrow from here. poolGets and
// poolPuts count the pool's churn for the observability plane.
var (
	pool               = sync.Pool{New: func() any { return NewWorkspace() }}
	poolGets, poolPuts atomic.Uint64
)

// GetWorkspace borrows a warm workspace from the process-wide pool.
func GetWorkspace() *Workspace {
	poolGets.Add(1)
	return pool.Get().(*Workspace)
}

// PutWorkspace resets ws and returns it to the pool. ws must not be used
// afterwards.
func PutWorkspace(ws *Workspace) {
	ws.Reset()
	poolPuts.Add(1)
	pool.Put(ws)
}

// PoolCounters reports the process-wide workspace pool's cumulative
// borrow/return totals — gets minus puts is the number of workspaces
// currently out (one per in-flight trial). Safe for concurrent use.
func PoolCounters() (gets, puts uint64) {
	return poolGets.Load(), poolPuts.Load()
}

// preambleSamples is the fixed pseudo-noise preamble, modulated once.
var preambleSamples = sig.Preamble()

// frameSamplesWS modulates a full frame (preamble + payload + CRC-32)
// directly into the workspace arena — the allocation-free equivalent of
// sig.FrameSamples.
func frameSamplesWS(ws *Workspace, payload []byte) []complex128 {
	out := ws.Samples(sig.FrameLenBits(len(payload)))
	n := copy(out, preambleSamples)
	n += modulateBytesInto(out[n:], payload)
	crc := crc32.ChecksumIEEE(payload)
	var cb [4]byte
	cb[0], cb[1], cb[2], cb[3] = byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc)
	modulateBytesInto(out[n:], cb[:])
	return out
}

// modulateBytesInto writes the BPSK samples of data's bits (MSB first,
// 0 -> +1, 1 -> -1) into dst and returns the sample count.
func modulateBytesInto(dst []complex128, data []byte) int {
	i := 0
	for _, b := range data {
		for s := 7; s >= 0; s-- {
			if (b>>uint(s))&1 == 1 {
				dst[i] = -1
			} else {
				dst[i] = 1
			}
			i++
		}
	}
	return i
}

// PrecodeSamplesWS is PrecodeSamples with the output in the workspace
// arena: antenna a carries amp * v[a] * s[t].
func PrecodeSamplesWS(ws *Workspace, s []complex128, v cmplxmat.Vector, amp float64) [][]complex128 {
	out := ws.AntSamples(v.Dim(), len(s))
	for a := range out {
		g := v[a] * complex(amp, 0)
		for t, x := range s {
			out[a][t] = g * x
		}
	}
	return out
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

// ReconstructAtReceiverWS is ReconstructAtReceiver with the multi-antenna
// output in the workspace arena.
func ReconstructAtReceiverWS(ws *Workspace, payload []byte, v cmplxmat.Vector, amp float64, hEst *cmplxmat.Matrix, cfoHz, sampleRate float64, start, dur int) [][]complex128 {
	s := frameSamplesWS(ws, payload)
	out := ws.AntSamples(hEst.Rows(), dur)
	hv := hEst.MulVecWS(ws.Mat, v).ScaleWS(ws.Mat, complex(amp, 0))
	reconstructInto(out, s, hv, 2*math.Pi*cfoHz/sampleRate, start)
	return out
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

// CancelWS is Cancel with the residual in the workspace arena.
func CancelWS(ws *Workspace, rx, recon [][]complex128) (residual [][]complex128, alpha complex128) {
	if len(rx) != len(recon) {
		panic("phy: Cancel antenna count mismatch")
	}
	dur := 0
	if len(rx) > 0 {
		dur = len(rx[0])
	}
	residual = ws.AntSamples(len(rx), dur)
	alpha = cancelInto(residual, rx, recon)
	return residual, alpha
}

// cancelInto fits the least-squares scale alpha and writes
// rx - alpha*recon into residual. residual rows must have rx's lengths.
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
