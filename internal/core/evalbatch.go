package core

import (
	"fmt"
	"math"

	"iaclan/internal/cmplxmat"
	"iaclan/internal/stats"
)

// Batched slot evaluation. EvaluateOptsWS spends most of its time on
// small received-direction products H v — and recomputes many of them:
// within one evaluation the same interference direction is re-derived
// for every packet of a step, and the cancellation-residual loop
// re-multiplies every decoded packet's channels at every later packet.
// EvaluateJobsWS instead gathers the full (packet, receiver) direction
// table of every job — estimated, true, and (true - est) difference
// products — into one contiguous strided buffer, dispatches the batched
// cmplxmat.EvaluateBatchWS kernel once, and then runs each plan's SINR
// recursion off the precomputed table. Jobs whose true channels ARE the
// estimates (every candidate-scoring job) gather only the est kind; the
// other two kinds are served by remapped reads, since they would be
// bitwise copies and exact zeros respectively.
//
// The contract is bitwise identity with per-job EvaluateOptsWS calls:
// every product is computed by the same shared inner loop (mulVecData)
// on the same operands, every scale/projection/dot happens in the same
// order with the same inputs, and reusing a precomputed direction is
// indistinguishable from re-deriving it because the derivation is
// deterministic. TestEvaluateJobsWS pins this across every slot shape.

// Direction kinds in the gathered table, in gather order.
const (
	kindEst  = 0 // estimated channel product (zero-forcing inputs)
	kindTrue = 1 // true channel product (realized signal/interference)
	kindDiff = 2 // (true - est) product (cancellation leakage)
	numKinds = 3
)

// EvalJob is one slot evaluation in a batch: a plan with the channel
// sets and options it should be measured under. EvaluateJobsWS fills
// Ev, Err, and Products.
type EvalJob struct {
	Plan          *Plan
	TrueCS, EstCS ChannelSet
	Opts          EvalOptions
	Ev            Evaluation
	Err           error
	// Products is how many direction products the batch gathered for
	// this job — the per-slot tally the observability plane distributes.
	// Filled by EvaluateJobsWS beside the gather itself, so it cannot
	// drift from what the kernel dispatched.
	Products int
	// meta is EvaluateJobsWS's gather bookkeeping for the job. It rides
	// in the caller's job slice, so a caller that reuses its jobs
	// reuses this scratch too; its slices point into the arena.
	meta jobMeta
}

// jobMeta is the per-job gather bookkeeping: where the job's direction
// table starts in the batch buffer and how its receivers map to table
// slots. A zero rxSlot marks a job the current group did not gather.
type jobMeta struct {
	base   int   // first product index of this job's table
	np     int   // packets in the plan
	kinds  int   // kinds gathered: numKinds, or 1 when TrueCS aliases EstCS
	rxSlot []int // receiver index -> dense table slot, -1 if unused
	powers []float64
	scaled []cmplxmat.Vector // amplitude-weighted est dirs, slot*np+pkt
	zero   cmplxmat.Vector   // shared all-zero direction for collapsed diff reads
}

// dir returns the job's direction vector of the given kind for
// (packet, receiver) as a view into the batch result buffer.
func (jm *jobMeta) dir(y []complex128, m, kind, pkt, rx int) cmplxmat.Vector {
	if kind >= jm.kinds {
		// Collapsed table (TrueCS aliases EstCS): the true direction IS
		// the est direction — same operands through the same kernel would
		// give the same bits — and every diff product is exactly zero,
		// which is what mulVecData produces from the (t - t) zero matrix.
		if kind == kindDiff {
			return jm.zero
		}
		kind = kindEst
	}
	off := (jm.base + (jm.rxSlot[rx]*jm.np+pkt)*jm.kinds + kind) * m
	return cmplxmat.Vector(y[off : off+m])
}

// sameChannels reports whether two channel sets hold identical matrices,
// entry by pointer-equal entry. Scoring jobs measure a plan under the
// planner's own estimates — the same set passed as both TrueCS and
// EstCS — and the gather collapses their table to the est kind alone.
func sameChannels(a, b ChannelSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// EvaluateJobsWS evaluates every job with the direction products
// gathered into one flat strided buffer and dispatched through the
// batched kernel, bitwise-identically to calling Plan.EvaluateOptsWS
// per job. It returns the number of direction products batched (the
// batch size the observability plane distributes). Results and scratch
// live in the arena; jobs with structurally invalid plans or infeasible
// decoding report per-job errors exactly as the scalar path would.
func EvaluateJobsWS(ws *cmplxmat.Workspace, jobs []EvalJob) int {
	if len(jobs) == 0 {
		return 0
	}
	total := 0
	processed := ws.Bools(len(jobs))
	// Jobs with different antenna counts cannot share one strided
	// buffer; group by M and run one gather/dispatch per group. In
	// practice every job of a slot batch shares the world's antenna
	// count, so this loop runs once.
	for first := 0; first < len(jobs); first++ {
		if processed[first] {
			continue
		}
		m := jobs[first].Plan.M
		total += evaluateJobGroup(ws, jobs, processed, m)
	}
	return total
}

// evaluateJobGroup gathers and evaluates every unprocessed job whose
// plan has antenna count m, returning the group's product count.
func evaluateJobGroup(ws *cmplxmat.Workspace, jobs []EvalJob, processed []bool, m int) int {
	// inGroup reports whether pass 1 below gathered job i: a job of
	// another antenna count keeps the meta an earlier group gave it.
	inGroup := func(i int) bool { return jobs[i].meta.rxSlot != nil && jobs[i].Plan.M == m }
	// Pass 1: validate and size the table. Validation failures become
	// per-job errors before any product is gathered, matching the scalar
	// path's early return. Jobs whose true and estimated sets are the
	// same matrices (every scoring job) gather only the est kind: the
	// true products would duplicate it bit for bit and the diff products
	// are exactly zero, so dir() serves those reads without the gather
	// or kernel ever touching them.
	products := 0
	var zero cmplxmat.Vector
	for i := range jobs {
		j := &jobs[i]
		if processed[i] || j.Plan.M != m {
			continue
		}
		processed[i] = true
		j.meta = jobMeta{}
		np := j.Plan.NumPackets()
		if err := j.Plan.validateWith(ws.Bools(np)); err != nil {
			j.Ev, j.Err, j.Products = Evaluation{}, err, 0
			continue
		}
		jm := &j.meta
		jm.np = np
		numRx := j.TrueCS.NumRx()
		jm.rxSlot = ws.Ints(numRx)
		for r := range jm.rxSlot {
			jm.rxSlot[r] = -1
		}
		nrx := 0
		for _, step := range j.Plan.Schedule {
			if jm.rxSlot[step.Rx] < 0 {
				jm.rxSlot[step.Rx] = nrx
				nrx++
			}
		}
		jm.kinds = numKinds
		if sameChannels(j.TrueCS, j.EstCS) {
			jm.kinds = 1
			if zero == nil {
				zero = cmplxmat.Vector(ws.Complexes(m))
			}
			jm.zero = zero
		}
		jm.base = products
		j.Products = nrx * np * jm.kinds
		products += j.Products
	}
	if products == 0 {
		return 0
	}

	// Pass 2: gather the est/true/diff channel products of every
	// (packet, receiver) pair into the strided batch buffers and
	// dispatch the kernel once.
	h := ws.Complexes(products * m * m)
	v := ws.Complexes(products * m)
	for i := range jobs {
		if !inGroup(i) {
			continue
		}
		jm := &jobs[i].meta
		p := jobs[i].Plan
		for rx, slot := range jm.rxSlot {
			if slot < 0 {
				continue
			}
			for pkt := 0; pkt < jm.np; pkt++ {
				e := jobs[i].EstCS[p.Owner[pkt]][rx]
				base := jm.base + (slot*jm.np+pkt)*jm.kinds
				e.PackInto(h[(base+kindEst)*m*m : (base+kindEst+1)*m*m])
				if jm.kinds == numKinds {
					t := jobs[i].TrueCS[p.Owner[pkt]][rx]
					t.PackInto(h[(base+kindTrue)*m*m : (base+kindTrue+1)*m*m])
					cmplxmat.PackDiffInto(h[(base+kindDiff)*m*m:(base+kindDiff+1)*m*m], t, e)
				}
				for k := 0; k < jm.kinds; k++ {
					cmplxmat.PackVecInto(v[(base+k)*m:(base+k+1)*m], p.Encoding[pkt])
				}
			}
		}
	}
	y := cmplxmat.EvaluateBatchWS(ws, m, m, products, h, v)

	// Pass 3: per-job amplitude weighting and the SINR recursion off the
	// table.
	for i := range jobs {
		if !inGroup(i) {
			continue
		}
		j := &jobs[i]
		jm := &j.meta
		jm.powers = ws.Floats(jm.np)
		j.Plan.packetPowersInto(jm.powers, j.Opts.NodePower)
		nslots := 0
		for _, s := range jm.rxSlot {
			if s >= 0 {
				nslots++
			}
		}
		jm.scaled = ws.Vectors(nslots * jm.np)
		flat := ws.Complexes(nslots * jm.np * m)
		for rx, slot := range jm.rxSlot {
			if slot < 0 {
				continue
			}
			for pkt := 0; pkt < jm.np; pkt++ {
				at := slot*jm.np + pkt
				jm.scaled[at] = flat[at*m : (at+1)*m : (at+1)*m]
				jm.dir(y, m, kindEst, pkt, rx).ScaleInto(jm.scaled[at], complex(math.Sqrt(jm.powers[pkt]), 0))
			}
		}
		j.Ev, j.Err = evalFromDirs(ws, j.Plan, j.Opts, jm, y, m)
	}
	return products
}

// evalFromDirs is EvaluateOptsWS's SINR recursion with every channel
// product read from the precomputed direction table instead of being
// re-derived: same operations, same order, same bits. The plan is
// already validated.
func evalFromDirs(ws *cmplxmat.Workspace, p *Plan, opts EvalOptions, jm *jobMeta, y []complex128, m int) (Evaluation, error) {
	noise := opts.Noise
	k := p.NumPackets()
	ev := Evaluation{
		SINR:       ws.Floats(k),
		PacketRate: ws.Floats(k),
		Decoding:   ws.Vectors(k),
	}
	decoded := ws.Bools(k)
	residual := ws.Ints(k)
	interfDirs := ws.Vectors(k)
	for _, step := range p.Schedule {
		nRes := 0
		for pkt := range p.Owner {
			if p.Wired && decoded[pkt] {
				continue // cancelled via backend
			}
			residual[nRes] = pkt
			nRes++
		}
		slot := jm.rxSlot[step.Rx]
		for _, pkt := range step.Packets {
			nInt := 0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				interfDirs[nInt] = jm.scaled[slot*jm.np+q]
				nInt++
			}
			sigDir := jm.dir(y, m, kindEst, pkt, step.Rx)
			w := zfDecodingVectorWS(ws, sigDir, interfDirs[:nInt], p.M)
			if w == nil {
				return Evaluation{}, fmt.Errorf("%w: no decoding vector for packet %d at rx %d", ErrInfeasible, pkt, step.Rx)
			}
			ev.Decoding[pkt] = w

			sig := cmplxAbs2(w.Dot(jm.dir(y, m, kindTrue, pkt, step.Rx))) * jm.powers[pkt]
			interf := 0.0
			for _, q := range residual[:nRes] {
				if q == pkt {
					continue
				}
				interf += cmplxAbs2(w.Dot(jm.dir(y, m, kindTrue, q, step.Rx))) * jm.powers[q]
			}
			if p.Wired {
				for q := range p.Owner {
					if !decoded[q] {
						continue
					}
					interf += cmplxAbs2(w.Dot(jm.dir(y, m, kindDiff, q, step.Rx))) * jm.powers[q]
					if opts.ResidualCancel {
						interf += cmplxAbs2(w.Dot(jm.dir(y, m, kindTrue, q, step.Rx))) * jm.powers[q] / (1 + ev.SINR[q])
					}
				}
			}
			sinr := sig / (noise + interf)
			ev.SINR[pkt] = sinr
			if opts.Rate != nil {
				ev.PacketRate[pkt] = opts.Rate(sinr)
			} else {
				ev.PacketRate[pkt] = stats.ShannonRate(sinr)
			}
			ev.SumRate += ev.PacketRate[pkt]
		}
		for _, pkt := range step.Packets {
			if opts.Decodes == nil || opts.Decodes(pkt, ev.SINR[pkt]) {
				decoded[pkt] = true
			}
		}
	}
	return ev, nil
}
