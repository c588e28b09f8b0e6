package flat

import (
	"encoding/binary"
	"testing"
)

// FuzzIndex drives an Index and a Memo against Go maps with one random
// sequence of puts, overwrites, gets and generation moves. Keys come
// from a small set and the first table is tiny, so probe runs collide,
// wrap around the table's end and grow it; a generation move must make
// every Memo row stale, as clearing the oracle map does, and the rows
// that reuse stale storage must come back zero.
func FuzzIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 1, 1, 2, 0, 1, 1, 3, 1, 1})
	f.Add([]byte{0, 7, 0, 15, 0, 23, 0, 31, 1, 7, 1, 15, 1, 23, 3, 0, 3, 7, 2, 15, 3, 0, 3, 7})
	f.Add([]byte{0, 200, 0, 100, 1, 200, 0, 44, 0, 45, 0, 46, 0, 47, 0, 48, 0, 49, 0, 50, 0, 51, 0, 52,
		0, 53, 0, 54, 0, 55, 0, 56, 0, 57, 0, 58, 1, 45, 1, 49})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var x Index
		want := map[uint64]int32{}
		var m Memo[uint64]
		fresh := map[uint64]uint64{}
		var gen uint64
		for len(ops) >= 2 {
			op, b := ops[0]%4, ops[1]
			ops = ops[2:]
			// Keys spread over both halves of the word, so a packed
			// key's high field matters as much as its low one.
			k := uint64(b%16)<<40 | uint64(b/16)
			switch op {
			case 0:
				v := int32(len(want)) + int32(b)
				x.Put(k, v)
				want[k] = v
			case 1:
				v, ok := x.Get(k)
				if w, wok := want[k]; ok != wok || (ok && v != w) {
					t.Fatalf("Get(%#x) = %d, %v; want %d, %v", k, v, ok, w, wok)
				}
			case 2:
				gen++
				clear(fresh)
			case 3:
				row, ok := m.Row(k, gen)
				if w, wok := fresh[k]; ok != wok || (ok && *row != w) || (!ok && *row != 0) {
					t.Fatalf("Memo.Row(%#x) = %d, %v; want %d, %v", k, *row, ok, w, wok)
				}
				if !ok {
					*row = k ^ gen | 1
					fresh[k] = *row
				}
				if m.Len() != len(fresh) {
					t.Fatalf("Memo.Len %d, want %d", m.Len(), len(fresh))
				}
			}
			if x.Len() != len(want) {
				t.Fatalf("Len %d, want %d", x.Len(), len(want))
			}
		}
		for k, w := range want {
			if v, ok := x.Get(k); !ok || v != w {
				t.Fatalf("final Get(%#x) = %d, %v; want %d", k, v, ok, w)
			}
		}
	})
}

// TestIndexProbeWrapsAround pins linear probing past the table's last
// slot: keys that share the last home slot all stay reachable.
func TestIndexProbeWrapsAround(t *testing.T) {
	var x Index
	x.Put(1<<63, 0)
	mask := len(x.slots) - 1
	var keys []uint64
	for k := uint64(0); len(keys) < 5; k++ {
		if x.home(k) == mask {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		x.Put(k, int32(i))
	}
	if len(x.slots) != mask+1 || x.home(1<<63) == mask {
		t.Fatalf("table grew to %d slots", len(x.slots))
	}
	for i, k := range keys {
		if v, ok := x.Get(k); !ok || v != int32(i) {
			t.Fatalf("Get(key %d) = %d, %v", i, v, ok)
		}
	}
}

func TestIndexRejectsOutOfRangeValues(t *testing.T) {
	for _, v := range []int32{-1, 1<<31 - 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Put of value %d accepted", v)
				}
			}()
			var x Index
			x.Put(1, v)
		}()
	}
}

// TestSlabValuesNeverMove checks that values keep their addresses and
// indices as a slab grows, runs never straddle chunks, and chunk count
// grows logarithmically.
func TestSlabValuesNeverMove(t *testing.T) {
	var s Slab[uint64]
	var ptrs []*uint64
	for i := 0; i < 5000; i++ {
		k := 1 + i%3
		at, run := s.Take(k)
		if len(run) != k || cap(run) != k {
			t.Fatalf("run %d: len %d cap %d, want %d", i, len(run), cap(run), k)
		}
		for j := range run {
			if s.At(at+j) != &run[j] {
				t.Fatalf("run %d: At(%d) is not the run's value %d", i, at+j, j)
			}
			run[j] = uint64(at + j)
			ptrs = append(ptrs, &run[j])
		}
	}
	for _, p := range ptrs {
		if s.At(int(*p)) != p {
			t.Fatalf("value %d moved", *p)
		}
	}
	if s.chunks > 12 {
		t.Fatalf("%d chunks for 10^4 values, want at most 12", s.chunks)
	}
	if s.top != 18 || len(s.chunkAt(9)) != 1<<(s.first+9) {
		t.Fatalf("8-byte values: largest chunk 2^%d, chunk 9 of %d", s.top, len(s.chunkAt(9)))
	}
	s.Reset()
	if at, run := s.Take(2); at != 0 || &run[0] != ptrs[0] || run[0] != 0 || run[1] != 0 {
		t.Fatalf("after Reset: run at %d, %v, not the first chunk's zeroed start", at, run)
	}
}

// TestSlabCappedChunks checks the index arithmetic past the chunk-size
// cap: chunks stop doubling at maxChunkBytes and every value keeps its
// index.
func TestSlabCappedChunks(t *testing.T) {
	var s Slab[[1 << 14]byte] // 16 KiB values: chunks cap at 128 values
	var ptrs []*[1 << 14]byte
	for i := 0; i < 300; i++ {
		at, run := s.Take(1)
		if at != i {
			t.Fatalf("value %d at index %d", i, at)
		}
		run[0][0] = byte(i)
		ptrs = append(ptrs, &run[0])
	}
	for i, p := range ptrs {
		if s.At(i) != p || p[0] != byte(i) {
			t.Fatalf("value %d moved", i)
		}
	}
	if s.chunks != 5 || len(s.chunkAt(2)) != 64 || len(s.chunkAt(3)) != 128 || len(s.chunkAt(4)) != 128 {
		t.Fatalf("%d chunks, lengths %d, %d, %d", s.chunks, len(s.chunkAt(2)), len(s.chunkAt(3)), len(s.chunkAt(4)))
	}
}

// TestSlabManyChunks takes values across more than a hundred chunks, so
// a slab has no chunk-count limit, and checks that chunk and start
// invert each other there. Zero-size values make the chunks free.
func TestSlabManyChunks(t *testing.T) {
	var s Slab[struct{}]
	const k = 1 << 19 // chunks of 16 runs
	for i := 0; i < 2000; i++ {
		if at, run := s.Take(k); at != i*k || len(run) != k {
			t.Fatalf("run %d at index %d, length %d", i, at, len(run))
		}
	}
	if s.chunks != 125 {
		t.Fatalf("%d chunks, want 125", s.chunks)
	}
	var b Slab[byte] // 17 doubling chunks, then capped ones
	b.Take(1)
	for _, s := range []interface {
		chunk(int) int
		start(int) int
	}{&s, &b} {
		for c := range 200 {
			if lo, hi := s.chunk(s.start(c)), s.chunk(s.start(c+1)-1); lo != c || hi != c {
				t.Fatalf("chunk %d spans chunks %d..%d", c, lo, hi)
			}
		}
	}
}

// TestSlabAllocatesOnlyChunks pins the inline chunk list: a slab of a
// few chunks allocates its chunks and nothing else.
func TestSlabAllocatesOnlyChunks(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() {
		var s Slab[uint64]
		for range 16 + 32 + 64 {
			s.Take(1)
		}
		if s.chunks != 3 {
			t.Fatalf("%d chunks, want 3", s.chunks)
		}
	})
	if allocs != 3 {
		t.Fatalf("%v allocations for 3 chunks", allocs)
	}
}

func TestSlabRejectsOversizedRun(t *testing.T) {
	var s Slab[byte]
	s.Take(1)
	defer func() {
		if recover() == nil {
			t.Fatal("a run longer than the first chunk was accepted")
		}
	}()
	s.Take(17)
}

func TestSlabReserve(t *testing.T) {
	var s Slab[byte]
	s.Reserve(1000)
	for i := 0; i < 1000; i++ {
		s.Take(1)
	}
	if s.chunks != 1 {
		t.Fatalf("%d chunks after filling a reserve of 1000", s.chunks)
	}
	var small Slab[[2]uint64]
	small.Take(1)
	if n := len(small.chunkAt(0)); n != 1<<minChunkBits {
		t.Fatalf("first chunk of %d values, want %d", n, 1<<minChunkBits)
	}
}

// BenchmarkIndexGet measures a hit on a table of 10^5 packed pair keys.
func BenchmarkIndexGet(b *testing.B) {
	var x Index
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = binary.BigEndian.Uint64([]byte{0, 0, 0, byte(i % 3), 0, byte(i >> 16), byte(i >> 8), byte(i)})
		x.Put(keys[i], int32(i))
	}
	for i := 0; b.Loop(); i++ {
		if _, ok := x.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}
