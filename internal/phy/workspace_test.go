package phy

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/sig"
)

func TestFrameSamplesWSMatchesSig(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 17, 256} {
		payload := make([]byte, n)
		rng.Read(payload)
		got := frameSamplesWS(ws, payload)
		want := sig.FrameSamples(payload)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frameSamplesWS diverged for %d-byte payload", n)
		}
		ws.Reset()
	}
}

func TestWorkspaceSamplePlaneMatchesHeapPlane(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(2))
	payload := make([]byte, 64)
	rng.Read(payload)
	v := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	s := sig.FrameSamples(payload)

	txHeap := PrecodeSamples(s, v, 0.7)
	txWS := PrecodeSamplesWS(ws, s, v, 0.7)
	if !reflect.DeepEqual(txHeap, txWS) {
		t.Fatal("PrecodeSamplesWS diverged from PrecodeSamples")
	}

	w := cmplxmat.RandomGaussianVector(rng, 2).Normalize()
	if !reflect.DeepEqual(Project(txHeap, w), ProjectWS(ws, txWS, w)) {
		t.Fatal("ProjectWS diverged from Project")
	}
}

func TestAntSamplesContiguousAndZeroed(t *testing.T) {
	ws := NewWorkspace()
	buf := ws.AntSamples(3, 100)
	if len(buf) != 3 {
		t.Fatalf("want 3 rows, got %d", len(buf))
	}
	for a, row := range buf {
		if len(row) != 100 {
			t.Fatalf("row %d has length %d", a, len(row))
		}
		for i, x := range row {
			if x != 0 {
				t.Fatalf("row %d sample %d not zeroed: %v", a, i, x)
			}
		}
	}
	// Rows stride one flat block: row a+1 begins where row a's backing
	// array ends.
	r0 := buf[0][:cap(buf[0])]
	r1 := buf[1]
	if &r0[len(r0)-1] == nil || &r1[0] == nil {
		t.Fatal("unexpected nil row")
	}
	// Writing one row must not bleed into its neighbors.
	for i := range buf[1] {
		buf[1][i] = 9
	}
	for _, a := range []int{0, 2} {
		for i, x := range buf[a] {
			if x != 0 {
				t.Fatalf("row %d sample %d dirtied by neighbor write: %v", a, i, x)
			}
		}
	}
}

func TestWorkspacePoolZeroesBetweenUsers(t *testing.T) {
	ws := GetWorkspace()
	buf := ws.AntSamples(2, 32)
	buf[0][0] = 1
	buf[1][31] = 1
	PutWorkspace(ws)
	ws2 := GetWorkspace()
	defer PutWorkspace(ws2)
	buf2 := ws2.AntSamples(2, 32)
	for a := range buf2 {
		for i, x := range buf2[a] {
			if x != 0 {
				t.Fatalf("pooled sample buffer leaked state at [%d][%d]: %v", a, i, x)
			}
		}
	}
}

// TestWorkspacePoolSurvivesGC pins the free list's point: a returned
// workspace is still there to borrow after garbage collections, where
// a sync.Pool would have dropped it and the next borrower would regrow
// its arenas.
func TestWorkspacePoolSurvivesGC(t *testing.T) {
	ws := GetWorkspace()
	PutWorkspace(ws)
	runtime.GC()
	runtime.GC()
	got := GetWorkspace()
	defer PutWorkspace(got)
	if got != ws {
		t.Fatal("a garbage collection drained the workspace pool")
	}
}

// TestWorkspacePoolBounded checks that the free list keeps at most
// maxFreeWorkspaces workspaces and drops the rest.
func TestWorkspacePoolBounded(t *testing.T) {
	out := make([]*Workspace, maxFreeWorkspaces+8)
	for i := range out {
		out[i] = GetWorkspace()
	}
	for _, ws := range out {
		PutWorkspace(ws)
	}
	poolMu.Lock()
	n := len(poolFree)
	poolMu.Unlock()
	if n != maxFreeWorkspaces {
		t.Fatalf("free list holds %d workspaces, want the bound %d", n, maxFreeWorkspaces)
	}
}

// TestWorkspacePoolConcurrent borrows and returns workspaces from
// several goroutines at once, as the campus runner's workers do; run it
// under -race. No workspace may be handed to two borrowers at a time.
func TestWorkspacePoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	out := map[*Workspace]bool{}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ws := GetWorkspace()
				mu.Lock()
				if out[ws] {
					mu.Unlock()
					t.Error("a workspace was borrowed twice at once")
					return
				}
				out[ws] = true
				mu.Unlock()
				ws.Samples(16)[0] = 1
				mu.Lock()
				delete(out, ws)
				mu.Unlock()
				PutWorkspace(ws)
			}
		}()
	}
	wg.Wait()
}
