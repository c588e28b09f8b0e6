package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// Now returns the wheel clock in slots. Test-only: the simulator keeps
// its own clock and passes it to Advance.
func (w *Wheel) Now() uint64 { return w.now }

// Cancel disarms timer id. Cancelling an unarmed id is a no-op.
// Test-only: the simulator re-arms with Schedule and never disarms.
func (w *Wheel) Cancel(id int) { w.unlink(int32(id)) }

// advanceAll steps the wheel to `to` and returns the fired ids.
func advanceAll(w *Wheel, to uint64) []int32 {
	return w.Advance(to, nil)
}

func TestImmediateAndZeroDelay(t *testing.T) {
	w := New(4)
	// Deadline at the current clock (0) is due immediately: it must fire
	// even on an Advance that does not move the clock — the zero-delay,
	// same-slot arrival case.
	w.Schedule(2, 0)
	got := advanceAll(w, 0)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("same-slot timer: fired %v, want [2]", got)
	}
	if w.Len() != 0 {
		t.Fatalf("Len after fire = %d, want 0", w.Len())
	}
	// Re-arming at the (unmoved) clock is due again on the next Advance.
	w.Schedule(2, w.Now())
	if got := advanceAll(w, w.Now()); len(got) != 1 || got[0] != 2 {
		t.Fatalf("re-armed same-slot timer: fired %v, want [2]", got)
	}
}

func TestFiresExactlyAtDeadline(t *testing.T) {
	w := New(8)
	w.Schedule(3, 10)
	if got := advanceAll(w, 9); len(got) != 0 {
		t.Fatalf("fired %v before deadline", got)
	}
	if got := advanceAll(w, 10); len(got) != 1 || got[0] != 3 {
		t.Fatalf("at deadline fired %v, want [3]", got)
	}
}

// TestHorizonBoundaries pins deadlines exactly at each level's span
// boundary (64, 64^2, 64^3): the classic off-by-one place for a
// hierarchical wheel, where an entry must go one level up rather than
// alias onto a near slot of the lower level.
func TestHorizonBoundaries(t *testing.T) {
	for _, boundary := range []uint64{
		slotsPerWheel,                                 // level-0 span
		slotsPerWheel * slotsPerWheel,                 // level-1 span
		slotsPerWheel * slotsPerWheel * slotsPerWheel, // level-2 span
		slotsPerWheel - 1, slotsPerWheel + 1,          // straddle level 0/1
		slotsPerWheel*slotsPerWheel - 1, // last level-1 slot
	} {
		w := New(2)
		w.Schedule(0, boundary)
		if got := advanceAll(w, boundary-1); len(got) != 0 {
			t.Fatalf("boundary %d: fired %v one tick early", boundary, got)
		}
		if got := advanceAll(w, boundary); len(got) != 1 || got[0] != 0 {
			t.Fatalf("boundary %d: fired %v at deadline, want [0]", boundary, got)
		}
	}
}

// TestBeyondHorizon parks a deadline past the wheel's direct span and
// checks it still fires exactly on time (via repeated re-placement).
func TestBeyondHorizon(t *testing.T) {
	w := New(1)
	w.Schedule(0, horizon+5)
	// Advance in coarse steps to force cascades without 64^8 ticks: jump
	// near the deadline first (legal — Advance is tick-exact regardless
	// of step size, it just costs ticks).
	if got := advanceAll(w, 100); len(got) != 0 {
		t.Fatalf("beyond-horizon timer fired %v way early", got)
	}
	if w.Len() != 1 {
		t.Fatalf("beyond-horizon timer lost: Len=%d", w.Len())
	}
}

// TestCascade walks a multi-level deadline tick by tick across its
// cascade boundaries and checks counters see the level moves.
func TestCascade(t *testing.T) {
	w := New(4)
	const deadline = 3*slotsPerWheel + 7 // level 1 initially
	w.Schedule(1, deadline)
	for now := uint64(1); now < deadline; now++ {
		if got := advanceAll(w, now); len(got) != 0 {
			t.Fatalf("fired %v at %d, before deadline %d", got, now, deadline)
		}
	}
	if got := advanceAll(w, deadline); len(got) != 1 || got[0] != 1 {
		t.Fatalf("fired %v at deadline, want [1]", got)
	}
	if st := w.Stats(); st.Cascaded == 0 {
		t.Fatalf("expected cascades for a level-1 deadline, counters: %+v", st)
	} else if st.Fired != 1 || st.Scheduled != 1 {
		t.Fatalf("counters %+v, want Scheduled=1 Fired=1", st)
	}
}

// TestReArm re-schedules a pending timer (the retry path: a lost packet
// moves the client's next-service deadline) and checks only the new
// deadline fires.
func TestReArm(t *testing.T) {
	w := New(2)
	w.Schedule(0, 5)
	w.Schedule(0, 9) // moves, not duplicates
	if w.Len() != 1 {
		t.Fatalf("re-armed timer duplicated: Len=%d", w.Len())
	}
	if got := advanceAll(w, 5); len(got) != 0 {
		t.Fatalf("old deadline fired %v after re-arm", got)
	}
	if got := advanceAll(w, 9); len(got) != 1 || got[0] != 0 {
		t.Fatalf("new deadline fired %v, want [0]", got)
	}
	// Re-arm backward (earlier deadline) must also move it.
	w.Schedule(1, 100)
	w.Schedule(1, 12)
	if got := advanceAll(w, 12); len(got) != 1 || got[0] != 1 {
		t.Fatalf("backward re-arm fired %v, want [1]", got)
	}
}

func TestCancel(t *testing.T) {
	w := New(3)
	w.Schedule(0, 4)
	w.Schedule(1, 4)
	w.Cancel(0)
	w.Cancel(2) // unarmed: no-op
	if got := advanceAll(w, 10); len(got) != 1 || got[0] != 1 {
		t.Fatalf("after cancel fired %v, want [1]", got)
	}
}

// naiveScan is the reference implementation: a flat deadline array
// swept on every advance, firing ids in ascending-id order per tick.
type naiveScan struct {
	deadline []uint64
	armed    []bool
	now      uint64
}

func (n *naiveScan) schedule(id int, d uint64) { n.deadline[id], n.armed[id] = d, true }
func (n *naiveScan) cancel(id int)             { n.armed[id] = false }
func (n *naiveScan) advance(to uint64) []int32 {
	var fired []int32
	if to < n.now {
		to = n.now
	}
	n.now = to
	for id := range n.deadline {
		if n.armed[id] && n.deadline[id] <= n.now {
			n.armed[id] = false
			fired = append(fired, int32(id))
		}
	}
	return fired
}

// TestWheelMatchesNaive drives both implementations with one random
// op sequence and compares the fired sets at every advance. Order
// within one advance is compared as a sorted set — the engine sorts
// fired ids before use, so the set is the contract.
func TestWheelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 64
	w := New(n)
	ref := &naiveScan{deadline: make([]uint64, n), armed: make([]bool, n)}
	for step := 0; step < 5000; step++ {
		switch rng.Intn(4) {
		case 0, 1: // schedule/re-arm
			id := rng.Intn(n)
			var d uint64
			switch rng.Intn(3) {
			case 0:
				d = w.Now() + uint64(rng.Intn(4)) // due / near
			case 1:
				d = w.Now() + uint64(rng.Intn(200)) // cross level 0/1
			default:
				d = w.Now() + uint64(rng.Intn(10000)) // deep levels
			}
			w.Schedule(id, d)
			ref.schedule(id, d)
		case 2:
			id := rng.Intn(n)
			w.Cancel(id)
			ref.cancel(id)
		default:
			to := w.Now() + uint64(rng.Intn(100))
			got := w.Advance(to, nil)
			want := ref.advance(to)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d advance to %d: wheel %v, naive %v", step, to, got, want)
			}
			if w.Len() != countArmed(ref) {
				t.Fatalf("step %d: Len %d, naive %d", step, w.Len(), countArmed(ref))
			}
		}
	}
}

func countArmed(n *naiveScan) int {
	c := 0
	for _, a := range n.armed {
		if a {
			c++
		}
	}
	return c
}

// FuzzWheelVsNaive feeds arbitrary op tapes to the wheel and the naive
// scan reference: every advance must fire the same id set, and the
// armed count must track. Each op byte-pair is (op, arg).
func FuzzWheelVsNaive(f *testing.F) {
	f.Add([]byte{0, 3, 0, 7, 3, 10, 0, 0, 3, 0})
	f.Add([]byte{0, 255, 1, 200, 3, 255, 3, 255, 2, 0, 3, 40})
	f.Fuzz(func(t *testing.T, tape []byte) {
		const n = 16
		w := New(n)
		ref := &naiveScan{deadline: make([]uint64, n), armed: make([]bool, n)}
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i], uint64(tape[i+1])
			id := int(tape[i]>>2) % n
			switch op % 4 {
			case 0: // near schedule
				w.Schedule(id, w.Now()+arg)
				ref.schedule(id, w.Now()+arg)
			case 1: // far schedule (crosses levels; shifts spread deadlines)
				d := w.Now() + arg<<(arg%11)
				w.Schedule(id, d)
				ref.schedule(id, d)
			case 2:
				w.Cancel(id)
				ref.cancel(id)
			default:
				to := w.Now() + arg
				got := w.Advance(to, nil)
				want := ref.advance(to)
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Fatalf("advance(+%d): wheel %v, naive %v", arg, got, want)
				}
			}
			if w.Len() != countArmed(ref) {
				t.Fatalf("armed drift: wheel %d, naive %d", w.Len(), countArmed(ref))
			}
		}
	})
}

// BenchmarkWheelAdvance measures the steady-state advance cost with a
// mostly-idle timer population: 10k armed timers spread over a wide
// deadline range, clock advanced in CFP-sized steps. The wheel's cost
// per advance is the fired timers plus O(levels) bucket checks — not
// the armed population — which is the property the engine's idle-campus
// scaling rides on.
func BenchmarkWheelAdvance(b *testing.B) {
	const n = 10000
	rng := rand.New(rand.NewSource(7))
	w := New(n)
	for i := 0; i < n; i++ {
		w.Schedule(i, 1+uint64(rng.Intn(1_000_000)))
	}
	var fired []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fired = w.Advance(w.Now()+8, fired[:0])
		for _, id := range fired {
			// Re-arm far out, as the engine does, to keep population flat.
			w.Schedule(int(id), w.Now()+1+uint64(rng.Intn(1_000_000)))
		}
	}
}
