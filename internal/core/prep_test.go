package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iaclan/internal/cmplxmat"
)

// Bitwise pins for the planner's prepared uplink solver and the
// zero-forcing fast path. The oracles below are the solver and the
// decoding-vector routine as they were before the prepare/attempt
// split: every attempt re-inverted the aligned packets' channels,
// interpolated and rooted the determinant polynomial on the heap, and
// zero-forcing ran a full SVDWS.

// addWS returns v + w in the arena.
func addWS(ws *cmplxmat.Workspace, v, w cmplxmat.Vector) cmplxmat.Vector {
	out := ws.Vector(len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// fromColumnsWS returns the arena matrix whose columns are cols.
func fromColumnsWS(ws *cmplxmat.Workspace, cols []cmplxmat.Vector) *cmplxmat.Matrix {
	m := ws.Matrix(len(cols[0]), len(cols))
	for j, c := range cols {
		for i, x := range c {
			m.SetAt(i, j, x)
		}
	}
	return m
}

// solveUplinkChainOracleWS is the historical one-shot chain solver.
func solveUplinkChainOracleWS(ws *cmplxmat.Workspace, cs ChannelSet, rng *rand.Rand) (*Plan, error) {
	m := cs.Antennas()
	if m < 2 {
		return nil, fmt.Errorf("core: chain construction needs M >= 2")
	}
	asgn := UplinkChainAssignment{M: m}
	if cs.NumTx() != asgn.NumClients() {
		return nil, fmt.Errorf("core: chain construction needs %d clients for M=%d, got %d", asgn.NumClients(), m, cs.NumTx())
	}
	if cs.NumRx() < 3 {
		return nil, fmt.Errorf("core: chain construction needs >= 3 APs, got %d", cs.NumRx())
	}
	aps := cs.NumRx()
	if max := UplinkChainMaxAPs(m); aps > max {
		aps = max
	}
	layout, ok := chainLayouts[chainKey{m, aps}]
	if !ok {
		layout = makeChainLayout(m, aps)
	}
	owners, aSet, bSet := layout.owners, layout.aSet, layout.bSet
	gs := ws.MatrixPtrs(len(aSet))
	for i, a := range aSet {
		inv, err := cs[owners[a]][1].InverseWS(ws)
		if err != nil {
			return nil, fmt.Errorf("%w: H[%d][1] singular", ErrInfeasible, owners[a])
		}
		gs[i] = cs[owners[a]][0].MulWS(ws, inv)
	}
	d, err := dependentDirectionOracleWS(ws, gs, rng)
	if err != nil {
		return nil, err
	}
	enc := ws.Vectors(2 * m)
	ap0Dirs := ws.Vectors(m)[:0]
	for i, a := range aSet {
		inv, _ := cs[owners[a]][1].InverseWS(ws)
		enc[a] = inv.MulVecWS(ws, d).NormalizeWS(ws)
		ap0Dirs = append(ap0Dirs, gs[i].MulVecWS(ws, d))
	}
	basis := cmplxmat.OrthonormalBasisWS(ws, 1e-9, ap0Dirs)
	if len(basis) != m-1 {
		return nil, fmt.Errorf("%w: aligned subspace has dim %d, want %d", ErrInfeasible, len(basis), m-1)
	}
	u1 := cmplxmat.OrthogonalComplementVectorWS(ws, m, 1e-9, basis)
	if u1 == nil {
		return nil, fmt.Errorf("%w: no subspace normal", ErrInfeasible)
	}
	for _, b := range bSet {
		row := ws.Matrix(1, m)
		hb := cs[owners[b]][0]
		for j := 0; j < m; j++ {
			row.SetAt(0, j, u1.Dot(hb.ColWS(ws, j)))
		}
		ns := row.NullSpaceWS(ws, 1e-9)
		if len(ns) == 0 {
			return nil, fmt.Errorf("%w: empty null space for packet %d", ErrInfeasible, b)
		}
		v := ws.Vector(m)
		for _, n := range ns {
			c := complex(rng.NormFloat64()/math.Sqrt2, rng.NormFloat64()/math.Sqrt2)
			v = addWS(ws, v, n.ScaleWS(ws, c))
		}
		enc[b] = v.NormalizeWS(ws)
	}
	hu := ws.Vector(m)
	cs[owners[0]][0].MulHVecInto(hu, u1)
	enc[0] = hu.NormalizeWS(ws)
	if enc[0].Norm() == 0 {
		enc[0] = randUnitWS(ws, rng, m)
	}
	return &Plan{M: m, Owner: owners, Encoding: enc, Schedule: layout.schedule, Wired: true}, nil
}

// dependentDirectionOracleWS is dependentDirectionWS with the heap root
// finding it used before the arena twins.
func dependentDirectionOracleWS(ws *cmplxmat.Workspace, g []*cmplxmat.Matrix, rng *rand.Rand) (cmplxmat.Vector, error) {
	m := g[0].Rows()
	detAt := func(d cmplxmat.Vector) complex128 {
		cols := ws.Vectors(m)
		for i := range g {
			cols[i] = g[i].MulVecWS(ws, d)
		}
		return fromColumnsWS(ws, cols).DetWS(ws)
	}
	for attempt := 0; attempt < 8; attempt++ {
		x := cmplxmat.RandomGaussianVectorWS(ws, rng, m)
		y := cmplxmat.RandomGaussianVectorWS(ws, rng, m)
		ts := ws.Complexes(m + 1)
		vals := ws.Complexes(m + 1)
		for i := range ts {
			ts[i] = complex(float64(i)-float64(m)/2, float64(i%2)+0.5)
			vals[i] = detAt(addWS(ws, x, y.ScaleWS(ws, ts[i])))
		}
		coeffs := cmplxmat.Poly(ws.Complexes(m + 1))
		cmplxmat.InterpolatePolyInto(ws, coeffs, ts, vals)
		roots, err := coeffs.Roots()
		if err != nil {
			continue
		}
		for _, t := range roots {
			d := addWS(ws, x, y.ScaleWS(ws, t))
			if d.Norm() < 1e-9 {
				continue
			}
			d = d.NormalizeWS(ws)
			cols := ws.Vectors(m)
			for i := range g {
				cols[i] = g[i].MulVecWS(ws, d)
			}
			if fromColumnsWS(ws, cols).RankWS(ws, 1e-7) == m-1 {
				return d, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: no dependent direction found", ErrInfeasible)
}

// zfDecodingVectorOracleWS is the historical zero-forcing routine built
// on a full SVDWS.
func zfDecodingVectorOracleWS(ws *cmplxmat.Workspace, sigDir cmplxmat.Vector, interf []cmplxmat.Vector, m int) cmplxmat.Vector {
	if sigDir.Norm() == 0 {
		return nil
	}
	var basis []cmplxmat.Vector
	switch {
	case len(interf) == 0:
		return sigDir.NormalizeWS(ws)
	case len(interf) <= m-1:
		basis = cmplxmat.OrthonormalBasisWS(ws, 1e-12, interf)
	default:
		u, s, _ := fromColumnsWS(ws, interf).SVDWS(ws)
		pcs := ws.Vectors(m - 1)
		n := 0
		for j := 0; j < m-1 && j < len(s); j++ {
			if s[j] <= 1e-12*s[0] {
				break
			}
			pcs[n] = u.ColWS(ws, j)
			n++
		}
		basis = pcs[:n]
	}
	w := ws.Vector(len(sigDir))
	copy(w, sigDir)
	for _, b := range basis {
		w.RejectInPlace(b)
	}
	if w.Norm() < 1e-9*sigDir.Norm() {
		return nil
	}
	return w.NormalizeWS(ws)
}

// planBitEqual compares two plans field by field, encoding vectors by
// bit pattern.
func planBitEqual(a, b *Plan) error {
	if a.M != b.M || a.Wired != b.Wired || fmt.Sprint(a.Owner) != fmt.Sprint(b.Owner) || fmt.Sprint(a.Schedule) != fmt.Sprint(b.Schedule) {
		return fmt.Errorf("layout differs: %+v vs %+v", a, b)
	}
	if len(a.Encoding) != len(b.Encoding) {
		return fmt.Errorf("%d vs %d encodings", len(a.Encoding), len(b.Encoding))
	}
	for i := range a.Encoding {
		if !evalBitEqualV(a.Encoding[i], b.Encoding[i]) {
			return fmt.Errorf("encoding %d differs: %v vs %v", i, a.Encoding[i], b.Encoding[i])
		}
	}
	return nil
}

// TestPreparedChainMatchesOneShot runs the role search's pattern — one
// PrepareUplinkChainWS per channel set, three SolveWS attempts — against
// three calls of the historical one-shot solver with a twin RNG, for
// M = 2..5 (M = 5 runs past the local-storage limit) and 3..6 APs,
// plus channel sets whose aligned-packet channel is singular. Plans,
// errors and the RNG streams must agree exactly.
func TestPreparedChainMatchesOneShot(t *testing.T) {
	setRNG := rand.New(rand.NewSource(61))
	for m := 2; m <= 5; m++ {
		clients := UplinkChainAssignment{M: m}.NumClients()
		for aps := 3; aps <= 6; aps++ {
			for trial := 0; trial < 6; trial++ {
				cs := RandomChannelSet(setRNG, clients, aps, m, 10)
				if trial == 5 {
					// An aligned packet's AP-1 channel is singular: every
					// attempt fails before drawing.
					asgn := UplinkChainAssignment{M: m}
					cs[asgn.Owners()[asgn.ASet()[0]]][1] = cmplxmat.New(m, m)
				}
				seed := setRNG.Int63()
				rngA, rngB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				wsA, wsB := cmplxmat.NewWorkspace(), cmplxmat.NewWorkspace()
				prep := PrepareUplinkChainWS(wsA, cs)
				for attempt := 0; attempt < 3; attempt++ {
					got, gotErr := prep.SolveWS(wsA, rngA)
					want, wantErr := solveUplinkChainOracleWS(wsB, cs, rngB)
					name := fmt.Sprintf("M=%d APs=%d trial %d attempt %d", m, aps, trial, attempt)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, one-shot %v", name, gotErr, wantErr)
					}
					if wantErr == nil {
						if err := planBitEqual(&got, want); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					if rngA.Int63() != rngB.Int63() {
						t.Fatalf("%s: RNG streams diverged", name)
					}
				}
			}
		}
	}
}

// TestZFDecodingVectorMatchesSVD pins the leading-singular zero-forcing
// path against the full-SVDWS routine on interference sets wider than
// M-1 — generic, rank-deficient (repeated or aligned directions) and
// with a zero direction — and the Gram-Schmidt path on narrower ones,
// from M = 2 up to M = 5, past the local-storage limit.
func TestZFDecodingVectorMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for m := 2; m <= 5; m++ {
		for nInt := 1; nInt <= 2*m+1; nInt++ {
			for trial := 0; trial < 8; trial++ {
				interf := make([]cmplxmat.Vector, nInt)
				for i := range interf {
					interf[i] = cmplxmat.RandomGaussianVector(rng, m)
				}
				switch trial {
				case 5:
					if nInt > 1 {
						interf[1] = interf[0].Scale(complex(0, 2))
					}
				case 6:
					for i := range interf {
						interf[i] = interf[0].Scale(complex(float64(i+1), 0))
					}
				case 7:
					interf[nInt-1] = cmplxmat.NewVector(m)
				}
				sig := cmplxmat.RandomGaussianVector(rng, m)
				got := zfDecodingVectorWS(cmplxmat.NewWorkspace(), sig, interf, m)
				want := zfDecodingVectorOracleWS(cmplxmat.NewWorkspace(), sig, interf, m)
				if (got == nil) != (want == nil) || !evalBitEqualV(got, want) {
					t.Fatalf("M=%d interferers=%d trial %d: %v, SVDWS path %v", m, nInt, trial, got, want)
				}
			}
		}
	}
}
