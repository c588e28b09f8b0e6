package cmplxmat

import "sync"

// This file implements the reusable decomposition workspace at the heart
// of the zero-allocation sample plane: a chunked arena that hands out
// short-lived vectors, matrices, and index scratch without touching the
// heap in steady state. Callers borrow a Workspace (usually via
// GetWorkspace), run a batch of linear algebra through the *WS method
// variants, copy out whatever must outlive the batch, and Reset or return
// the workspace. Chunks are never freed or moved, so every slice handed
// out stays valid until the owner reuses the arena after a Reset/Release.

// arena is a chunked bump allocator for one element type. Chunks are
// allocated once, kept forever, and never moved, so outstanding views
// remain valid even while the arena keeps growing. After a handful of
// warm-up rounds the chunk list covers the high-water mark and alloc
// never touches the heap again.
type arena[T any] struct {
	chunks [][]T
	cur    int // index of the chunk currently being bumped
	off    int // next free element in chunks[cur]
}

// arenaMinChunk is the smallest chunk, in elements. Chunks double in size
// so the chunk count stays logarithmic in the high-water mark.
const arenaMinChunk = 256

// alloc returns a zeroed length-n slice carved from the arena. The slice
// has full capacity n so appends by the caller cannot bleed into
// neighboring allocations.
func (a *arena[T]) alloc(n int) []T {
	s := a.take(n)
	clear(s)
	return s
}

// take is alloc without the zeroing: the slice holds whatever an earlier
// user of the arena left there, so the caller must overwrite every
// element before anything reads it.
func (a *arena[T]) take(n int) []T {
	for a.cur < len(a.chunks) {
		c := a.chunks[a.cur]
		if a.off+n <= len(c) {
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			return s
		}
		// Tail of this chunk is too small; move on. The wasted tail is
		// bounded by the allocation size, and reclaimed on Reset.
		a.cur++
		a.off = 0
	}
	size := arenaMinChunk
	if k := len(a.chunks); k > 0 {
		size = 2 * len(a.chunks[k-1])
	}
	if size < n {
		size = n
	}
	a.chunks = append(a.chunks, make([]T, size))
	a.cur = len(a.chunks) - 1
	a.off = n
	return a.chunks[a.cur][0:n:n]
}

// mark captures the arena's bump position for a later release.
type arenaMark struct{ cur, off int }

func (a *arena[T]) mark() arenaMark     { return arenaMark{a.cur, a.off} }
func (a *arena[T]) release(m arenaMark) { a.cur, a.off = m.cur, m.off }
func (a *arena[T]) reset()              { a.cur, a.off = 0, 0 }

// Workspace is a reusable scratch arena for the package's linear algebra.
// The *WS method variants (MulVecWS, SolveWS, SVDWS, ...) allocate their
// results and temporaries here instead of the heap; in steady state a
// warm workspace performs zero heap allocations.
//
// A Workspace is not safe for concurrent use. Slices obtained from it are
// valid until the workspace is Reset (or Released past their Mark) — copy
// anything that must live longer (Vector.Clone, Matrix.Clone).
//
// Every allocation is zeroed, or — matrix headers — written whole,
// before it is handed out, so results computed through a warm, pooled
// workspace are bit-identical to results computed on a cold heap.
type Workspace struct {
	cpx   arena[complex128]
	f64   arena[float64]
	ints  arena[int]
	bools arena[bool]
	mats  arena[Matrix]
	vecs  arena[Vector]
	rows  arena[[]complex128]
	ptrs  arena[*Matrix]
	grids arena[[]*Matrix]
}

// NewWorkspace returns an empty workspace. Most callers should prefer
// GetWorkspace / PutWorkspace, which pool warm arenas process-wide.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset makes the whole arena reusable. Previously returned slices must
// no longer be used (they will be handed out again, zeroed).
func (w *Workspace) Reset() {
	w.cpx.reset()
	w.f64.reset()
	w.ints.reset()
	w.bools.reset()
	w.mats.reset()
	w.vecs.reset()
	w.rows.reset()
	w.ptrs.reset()
	w.grids.reset()
}

// Mark captures the current arena position. Pair with Release to reclaim
// everything allocated inside a bounded phase (e.g. one solver attempt)
// while keeping earlier allocations alive.
type Mark struct {
	cpx, f64, ints, bools, mats, vecs, rows, ptrs, grids arenaMark
}

// Mark returns a snapshot of the workspace's bump positions.
func (w *Workspace) Mark() Mark {
	return Mark{
		cpx:   w.cpx.mark(),
		f64:   w.f64.mark(),
		ints:  w.ints.mark(),
		bools: w.bools.mark(),
		mats:  w.mats.mark(),
		vecs:  w.vecs.mark(),
		rows:  w.rows.mark(),
		ptrs:  w.ptrs.mark(),
		grids: w.grids.mark(),
	}
}

// Release rewinds the workspace to a previous Mark, reclaiming everything
// allocated after it.
func (w *Workspace) Release(m Mark) {
	w.cpx.release(m.cpx)
	w.f64.release(m.f64)
	w.ints.release(m.ints)
	w.bools.release(m.bools)
	w.mats.release(m.mats)
	w.vecs.release(m.vecs)
	w.rows.release(m.rows)
	w.ptrs.release(m.ptrs)
	w.grids.release(m.grids)
}

// Vector returns a zeroed arena-backed vector of dimension n.
func (w *Workspace) Vector(n int) Vector { return Vector(w.cpx.alloc(n)) }

// Complexes returns a zeroed arena-backed complex scratch slice.
func (w *Workspace) Complexes(n int) []complex128 { return w.cpx.alloc(n) }

// Floats returns a zeroed arena-backed float64 scratch slice.
func (w *Workspace) Floats(n int) []float64 { return w.f64.alloc(n) }

// Ints returns a zeroed arena-backed int scratch slice.
func (w *Workspace) Ints(n int) []int { return w.ints.alloc(n) }

// Bools returns a zeroed arena-backed bool scratch slice.
func (w *Workspace) Bools(n int) []bool { return w.bools.alloc(n) }

// Vectors returns a zeroed arena-backed slice of vector headers, for
// building interference-direction lists without heap churn.
func (w *Workspace) Vectors(n int) []Vector { return w.vecs.alloc(n) }

// MatrixPtrs returns a zeroed arena-backed slice of matrix pointers,
// for building per-packet matrix lists without heap churn.
func (w *Workspace) MatrixPtrs(n int) []*Matrix { return w.ptrs.alloc(n) }

// MatrixGrid returns a zeroed rows x cols grid of matrix pointers — the
// shape of a channel set — with the row headers and the pointer block
// both in the arena.
func (w *Workspace) MatrixGrid(rows, cols int) [][]*Matrix {
	flat := w.ptrs.alloc(rows * cols)
	grid := w.grids.alloc(rows)
	for r := range grid {
		grid[r] = flat[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return grid
}

// Matrix returns a zeroed arena-backed rows x cols matrix. The matrix
// header itself lives in the arena too, so no part of the allocation
// escapes to the heap. The header is written whole rather than cleared
// first: clearing pointer-typed memory costs a bulk write barrier while
// the garbage collector is marking.
func (w *Workspace) Matrix(rows, cols int) *Matrix {
	hdr := w.mats.take(1)
	hdr[0] = Matrix{rows: rows, cols: cols, data: w.cpx.alloc(rows * cols)}
	return &hdr[0]
}

// SampleRows returns a zeroed rows x perRow sample buffer: every row is
// a strided view over one contiguous arena block, and the row headers
// live in the arena too. This is the antenna-strided layout the sample
// plane (internal/phy) streams through; it participates in Mark/Release
// like every other allocation.
func (w *Workspace) SampleRows(rows, perRow int) [][]complex128 {
	flat := w.cpx.alloc(rows * perRow)
	hdr := w.rows.alloc(rows)
	for a := 0; a < rows; a++ {
		hdr[a] = flat[a*perRow : (a+1)*perRow : (a+1)*perRow]
	}
	return hdr
}

// wsPool recycles warm workspaces process-wide. Arenas zero (or, for
// matrix headers, fully overwrite) every allocation, so a recycled
// workspace cannot leak state between users —
// the property the determinism-under-reuse tests pin down.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// GetWorkspace borrows a warm workspace from the process-wide pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// PutWorkspace resets w and returns it to the pool. w must not be used
// afterwards.
func PutWorkspace(w *Workspace) {
	w.Reset()
	wsPool.Put(w)
}
