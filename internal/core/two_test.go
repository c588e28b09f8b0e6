package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"iaclan/internal/cmplxmat"
)

// campusFadingAlignment reads the 256 pairs (G1, G2) of alignment
// matrices in testdata/campus_fading_dd.bin, sampled evenly from the
// 364,716 M = 2 dependent-direction calls of a seed-1 campus_fading run
// (bench/iacperf's workload, one worker): eight complex values each,
// G1 then G2 row-major, as little-endian float64 pairs.
func campusFadingAlignment(t testing.TB) [][]*cmplxmat.Matrix {
	raw, err := os.ReadFile("testdata/campus_fading_dd.bin")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]*cmplxmat.Matrix
	for ; len(raw) >= 128; raw = raw[128:] {
		var z [8]complex128
		for i := range z {
			re := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:]))
			z[i] = complex(re, im)
		}
		g1, g2 := cmplxmat.View(2, 2, z[:4]), cmplxmat.View(2, 2, z[4:])
		out = append(out, []*cmplxmat.Matrix{g1.Clone(), g2.Clone()})
	}
	return out
}

// TestDependentDirection2MatchesGeneral runs the closed-form M = 2
// dependent direction beside the general path (interpolated LU
// determinants, Durand-Kerner, RankWS; dependentDirectionOracleWS) with
// twin RNGs, on the campus_fading corpus's alignment matrices, on the
// G = H0 H1^-1 products the chain solver prepares from Gaussian
// channels, scaled by 1e-8 and 1e8, and on degenerate pencils (g2 a
// multiple of g1, where every direction is dependent and the
// polynomial vanishes; g1 of rank one). The decisions must match —
// found or not, on the same random line, at the same root — and the
// directions agree to 1e-9 wherever they are determined.
func TestDependentDirection2MatchesGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	corpus := map[string][][]*cmplxmat.Matrix{"campus_fading": campusFadingAlignment(t)}
	ws := cmplxmat.NewWorkspace()
	for i := 0; i < 200; i++ {
		cs := RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR)
		prep := PrepareUplinkChainWS(ws, cs)
		if prep.err != nil {
			t.Fatal(prep.err)
		}
		g := []*cmplxmat.Matrix{prep.gs[0].Clone(), prep.gs[1].Clone()}
		corpus["channels"] = append(corpus["channels"], g)
		for _, s := range []complex128{1e-8, 1e8} {
			corpus["scaled"] = append(corpus["scaled"], []*cmplxmat.Matrix{g[0].Scale(s), g[1].Scale(s)})
		}
		ws.Reset()
	}
	keep := cmplxmat.NewWorkspace()
	for i := 0; i < 20; i++ {
		g1 := cmplxmat.RandomGaussian(rng, 2, 2)
		v, w := cmplxmat.RandomGaussianVector(rng, 2), cmplxmat.RandomGaussianVector(rng, 2)
		rank1 := fromColumnsWS(keep, []cmplxmat.Vector{v, v.Scale(complex(rng.NormFloat64(), 1))})
		corpus["degenerate"] = append(corpus["degenerate"],
			[]*cmplxmat.Matrix{g1, g1},
			[]*cmplxmat.Matrix{g1, g1.Scale(complex(rng.NormFloat64(), rng.NormFloat64()))},
			[]*cmplxmat.Matrix{rank1, fromColumnsWS(keep, []cmplxmat.Vector{w, v})})
	}
	for _, kind := range []string{"campus_fading", "channels", "scaled", "degenerate"} {
		found := 0
		for i, g := range corpus[kind] {
			seed := rng.Int63()
			rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, gotErr := dependentDirectionWS(ws, g, rngA)
			want, wantErr := dependentDirectionOracleWS(ws, g, rngB)
			name := fmt.Sprintf("%s %d", kind, i)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, general path %v", name, gotErr, wantErr)
			}
			if rngA.Int63() != rngB.Int63() {
				t.Fatalf("%s: the paths stopped on different random lines", name)
			}
			if gotErr == nil {
				found++
				// A degenerate pencil makes every direction, or every
				// point of the line, dependent: both answers are right
				// and neither is determined.
				if d := got.Sub(want).Norm(); d > 1e-9 && kind != "degenerate" {
					t.Fatalf("%s: direction %v, general path %v (%.3g apart)", name, got, want, d)
				}
			}
			ws.Reset()
		}
		t.Logf("%s: %d of %d inputs found a direction on both paths", kind, found, len(corpus[kind]))
	}
}

// BenchmarkDependentDirectionM2 times one M = 2 dependent-direction
// search, the alignment step of every uplink-chain solver attempt, on
// the G matrices the chain solver prepares from a Gaussian channel set.
func BenchmarkDependentDirectionM2(b *testing.B) {
	rng := rand.New(rand.NewSource(109))
	ws := cmplxmat.NewWorkspace()
	prep := PrepareUplinkChainWS(ws, RandomChannelSet(rng, UplinkChainAssignment{M: 2}.NumClients(), 3, 2, testSNR))
	g := []*cmplxmat.Matrix{prep.gs[0].Clone(), prep.gs[1].Clone()}
	run := cmplxmat.NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run.Reset()
		if _, err := dependentDirectionWS(run, g, rng); err != nil {
			b.Fatal(err)
		}
	}
}
