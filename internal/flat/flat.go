// Package flat holds the simulator's index-addressed tables: chunked
// slabs whose values never move and an open-addressed uint64 → int32
// index. Per-pair and per-group rows live in them instead of in maps of
// heap objects, so N rows cost O(log N) allocations, not O(N).
package flat

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"
)

const (
	// minChunkBits is log2 of how many runs an unreserved slab's first
	// chunk holds: few, so small worlds pay little.
	minChunkBits = 4
	// maxChunkBytes caps chunk growth, so the unused tail of a large
	// slab's last chunk stays small.
	maxChunkBytes = 2 << 20
	// headChunks is how many chunks a slab holds inline.
	headChunks = 4
	// minSlots is the length of an Index's first table.
	minSlots = 16
)

// Slab is storage for values of T in chunks that never move: chunk c
// holds 1<<min(first+c, top) values, doubling up to maxChunkBytes and
// then staying there, so N values cost O(log N) allocations until
// chunks reach that size, and a pointer, slice or cmplxmat.View into a
// slab stays valid for the slab's lifetime. The first few chunks sit
// in the slab itself and the rest in a growable list, so a small slab
// allocates nothing but its chunks and a large one has no chunk limit.
// The zero Slab is empty and ready.
type Slab[T any] struct {
	head       [headChunks][]T
	tail       [][]T // chunks headChunks and on
	chunks     int
	n          int // values handed out, skipped chunk tails included
	first, top int // log2 of the first and the largest chunks' lengths
}

// Reserve sizes the first chunk to hold at least n values, for callers
// that know their size up front. It acts only before the first Take.
func (s *Slab[T]) Reserve(n int) {
	if s.chunks == 0 && n > 0 {
		s.first = bits.Len(uint(n - 1))
	}
}

// Take hands out a run of k > 0 zero values within one chunk and
// returns the index of its first value. A run that does not fit the
// current chunk's tail starts the next chunk. No run may be longer
// than the first chunk, which the first Take sizes to hold at least 16
// runs of its length.
func (s *Slab[T]) Take(k int) (int, []T) {
	if s.chunks == 0 {
		var v T
		s.first = max(s.first, minChunkBits+bits.Len(uint(k-1)))
		s.top = max(s.first, bits.Len(uint(maxChunkBytes/max(1, unsafe.Sizeof(v))))-1)
	} else if k > 1<<s.first {
		panic(fmt.Sprintf("flat: run of %d values in a slab of %d-value chunks", k, 1<<s.first))
	}
	c := s.chunk(s.n)
	if s.n+k > s.start(c+1) {
		c++
		s.n = s.start(c)
	}
	if c == s.chunks {
		chunk := make([]T, 1<<min(s.first+c, s.top))
		if c < headChunks {
			s.head[c] = chunk
		} else {
			s.tail = append(s.tail, chunk)
		}
		s.chunks++
	}
	off := s.n - s.start(c)
	s.n += k
	run := s.chunkAt(c)[off : off+k : off+k]
	clear(run) // a run handed out before a Reset
	return s.n - k, run
}

// Reset forgets every value handed out and keeps the chunks, so the
// next Takes reuse their storage. Pointers into the slab then alias the
// new values.
func (s *Slab[T]) Reset() { s.n = 0 }

// At returns the value at index i, as returned by Take.
func (s *Slab[T]) At(i int) *T {
	c := s.chunk(i)
	return &s.chunkAt(c)[i-s.start(c)]
}

// Run returns the run of k values Take handed out at index i.
func (s *Slab[T]) Run(i, k int) []T {
	c := s.chunk(i)
	off := i - s.start(c)
	return s.chunkAt(c)[off : off+k : off+k]
}

// Len returns the number of values handed out, skipped chunk tails
// included: for runs of one value, the indices in use are [0, Len).
func (s *Slab[T]) Len() int { return s.n }

// chunkAt returns chunk c.
func (s *Slab[T]) chunkAt(c int) []T {
	if c < headChunks {
		return s.head[c]
	}
	return s.tail[c-headChunks]
}

// chunk returns the chunk holding index i: one of the g doubling
// chunks, or past them one of the capped ones.
func (s *Slab[T]) chunk(i int) int {
	g := s.top - s.first
	if i < s.start(g) {
		return bits.Len(uint(i>>s.first)+1) - 1
	}
	return g + (i-s.start(g))>>s.top
}

// start is the index of chunk c's first value: the doubling chunks
// before it hold (2^min(c, g) - 1)<<first values and each capped one
// 1<<top.
func (s *Slab[T]) start(c int) int {
	g := s.top - s.first
	return (1<<min(c, g)-1)<<s.first + max(0, c-g)<<s.top
}

// Index maps uint64 keys to non-negative int32 values by linear probing
// over a power-of-two table that doubles at 3/4 load. Keys are never
// removed. The zero Index is empty and ready; it holds no pointers.
type Index struct {
	slots []slot
	n     int
}

// slot is one table entry; v is the value plus one, so zero is empty.
type slot struct {
	k uint64
	v int32
}

// Len returns the number of keys.
func (x *Index) Len() int { return x.n }

// home is the key's preferred slot: a 64-bit finalizer mix, so packed
// keys that differ only in their low or high fields spread evenly.
func (x *Index) home(k uint64) int {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return int(k & uint64(len(x.slots)-1))
}

// Get returns the key's value and whether the key is present.
func (x *Index) Get(k uint64) (int32, bool) {
	if x.n == 0 {
		return 0, false
	}
	s := x.find(k)
	return s.v - 1, s.v != 0
}

// Put sets the key's value, adding the key if it is absent.
func (x *Index) Put(k uint64, v int32) {
	if v < 0 || v == math.MaxInt32 {
		panic(fmt.Sprintf("flat: Index value %d out of range", v))
	}
	if 4*(x.n+1) > 3*len(x.slots) {
		old := x.slots
		x.slots = make([]slot, max(minSlots, 2*len(old)))
		for _, s := range old {
			if s.v != 0 {
				*x.find(s.k) = s
			}
		}
	}
	s := x.find(k)
	if s.v == 0 {
		x.n++
	}
	*s = slot{k, v + 1}
}

// find returns the slot holding k, or the empty slot that ends its
// probe run.
func (x *Index) find(k uint64) *slot {
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		if s := &x.slots[i]; s.v == 0 || s.k == k {
			return s
		}
	}
}

// Memo is an Index over slab rows of T that all belong to one
// generation: the first lookup in a new generation empties it, keeping
// its table and chunks for the new rows, so a memo that moves
// generations often stays as small as one generation's rows.
type Memo[T any] struct {
	idx  Index
	rows Slab[T]
	gen  uint64
}

// Len returns the number of rows in the current generation.
func (m *Memo[T]) Len() int { return m.idx.Len() }

// Row returns the key's row in generation gen and whether it was
// already there. A new row is zero and the caller must fill it.
func (m *Memo[T]) Row(k, gen uint64) (v *T, found bool) {
	if gen != m.gen {
		clear(m.idx.slots)
		m.idx.n = 0
		m.rows.Reset()
		m.gen = gen
	}
	if i, ok := m.idx.Get(k); ok {
		return m.rows.At(int(i)), true
	}
	i, run := m.rows.Take(1)
	m.idx.Put(k, int32(i)) // past MaxInt32 rows this wraps, and Put panics
	return &run[0], false
}
