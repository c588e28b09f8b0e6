package mimo

import (
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
)

func TestRateTableSelectAndRate(t *testing.T) {
	tb := DefaultRateTable()
	if r := tb.Rate(math.Pow(10, 0.3)); r != 0 { // 3 dB, below the lowest rung
		t.Fatalf("rate %v below the lowest rung", r)
	}
	// 30 dB supports the top rung: 64-QAM at 3/4 -> 4.5 bits.
	if r := tb.Rate(1000); r != 4.5 {
		t.Fatalf("top-rung rate %v, want 4.5", r)
	}
	// Rates are monotone in SINR.
	prev := -1.0
	for db := 0.0; db <= 30; db += 0.5 {
		r := tb.Rate(math.Pow(10, db/10))
		if r < prev {
			t.Fatalf("rate fell from %v to %v at %v dB", prev, r, db)
		}
		prev = r
	}
}

func TestRateTableOutageRule(t *testing.T) {
	tb := DefaultRateTable()
	hi := math.Pow(10, 2.0) // 20 dB: 16-QAM 3/4 (18 dB threshold)
	lo := math.Pow(10, 1.0) // 10 dB: below that threshold
	if !tb.Outage(hi, lo) {
		t.Fatal("planned 20 dB, realized 10 dB must outage")
	}
	if tb.Outage(hi, hi) {
		t.Fatal("realized == planned must not outage")
	}
	// Extra realized SNR never yields extra bits.
	if got := tb.AchievedRate(lo, hi); got != tb.Rate(lo) {
		t.Fatalf("achieved %v, want the planned rung %v", got, tb.Rate(lo))
	}
	if got := tb.AchievedRate(hi, lo); got != 0 {
		t.Fatalf("achieved %v on outage, want 0", got)
	}
	// Below the lowest rung nothing can be sent at all.
	if !tb.Outage(1e-3, 1e9) {
		t.Fatal("unplannable packet must count as outage")
	}
}

func TestAdaptedLinkPerfectCSIMatchesPlan(t *testing.T) {
	tb := DefaultRateTable()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		h := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(math.Sqrt(100), 0))
		planned, achieved := AdaptedLinkWS(cmplxmat.NewWorkspace(), tb, h, h, 1.0, 1.0)
		if planned != achieved {
			t.Fatalf("perfect CSI: achieved %v != planned %v", achieved, planned)
		}
		// Discrete never beats Shannon at the same operating point.
		if shannon := EigenmodeRateWS(ws, h, 1.0, 1.0); planned > shannon {
			t.Fatalf("discrete rate %v above Shannon %v", planned, shannon)
		}
	}
}

func TestAdaptedLinkBadCSICausesOutages(t *testing.T) {
	tb := DefaultRateTable()
	rng := rand.New(rand.NewSource(9))
	sawOutage := false
	for trial := 0; trial < 50 && !sawOutage; trial++ {
		hTrue := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(math.Sqrt(50), 0))
		// A grossly wrong estimate: an independent draw.
		hEst := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(math.Sqrt(50), 0))
		planned, achieved := AdaptedLinkWS(cmplxmat.NewWorkspace(), tb, hTrue, hEst, 1.0, 1.0)
		if achieved > planned {
			t.Fatalf("achieved %v above planned %v", achieved, planned)
		}
		if achieved < planned {
			sawOutage = true
		}
	}
	if !sawOutage {
		t.Fatal("independent-draw estimates never caused an outage")
	}
}

func TestAdaptedBestAPPicksByPlannedRate(t *testing.T) {
	tb := DefaultRateTable()
	rng := rand.New(rand.NewSource(11))
	weak := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(math.Sqrt(2), 0))
	strong := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(math.Sqrt(500), 0))
	planned, achieved := AdaptedBestAPWS(cmplxmat.NewWorkspace(), tb, []*cmplxmat.Matrix{weak, strong}, []*cmplxmat.Matrix{weak, strong}, 1.0, 1.0)
	wantPlanned, _ := AdaptedLinkWS(cmplxmat.NewWorkspace(), tb, strong, strong, 1.0, 1.0)
	if planned != wantPlanned || achieved != wantPlanned {
		t.Fatalf("best-AP (%v, %v), want the strong AP's %v", planned, achieved, wantPlanned)
	}
}

// TestAdaptedLinkWSZeroAlloc pins the adapted baseline link at zero heap
// allocations on a warm workspace: its per-stream direction table comes
// from the arena, so a fallback slot costs the trial nothing.
func TestAdaptedLinkWSZeroAlloc(t *testing.T) {
	tb := DefaultRateTable()
	rng := rand.New(rand.NewSource(13))
	hTrue := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(math.Sqrt(100), 0))
	hEst := cmplxmat.RandomGaussian(rng, 2, 2).Scale(complex(math.Sqrt(100), 0))
	ws := cmplxmat.NewWorkspace()
	AdaptedLinkWS(ws, tb, hTrue, hEst, 1.0, 1.0)
	allocs := testing.AllocsPerRun(100, func() {
		ws.Reset()
		AdaptedLinkWS(ws, tb, hTrue, hEst, 1.0, 1.0)
	})
	if allocs != 0 {
		t.Fatalf("AdaptedLinkWS: %v allocs per call on a warm workspace, want 0", allocs)
	}
}
