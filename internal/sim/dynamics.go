package sim

import (
	"cmp"
	"fmt"
	"math"
)

// roomMeters is the side of the square room every trial's testbed world
// is scattered over (the paper's single-room Fig. 11 layout); waypoint
// mobility keeps clients inside it.
const roomMeters = 12

// Dynamics configures time-varying channel state for a trial — the
// coherence-time axis of the paper's Section 8 measurements, where IAC's
// gains hinge on how fast the channel decorrelates relative to training.
// The zero value freezes the channel for the whole trial (the static
// model earlier revisions always ran).
//
// Two clocks drive the model. Every CoherenceCycles CFP cycles the world
// ages: block fading mixes in an innovation of weight Eps
// (channel.World.Perturb) and mobile clients take one random-waypoint
// step (channel.World.MoveNode). Every RetrainCycles cycles the APs
// re-survey the channel: planners get fresh training estimates and the
// MAC clock is charged TrainSlots of pure-overhead airtime
// (mac.Simulator.ChargeSlots). Between surveys planners keep working
// from the last one — stale CSI — while slots are evaluated on the true,
// drifted channel; a packet whose achieved rate falls below
// outageFraction of its planned rate is lost.
type Dynamics struct {
	// Eps is the block-fading innovation per coherence interval, in
	// [0, 1]: H' = sqrt(1-Eps^2) H + Eps W with W fresh. 0 keeps the
	// fading frozen; 1 redraws it every interval.
	Eps float64
	// CoherenceCycles is the coherence interval in CFP cycles (how often
	// the channel moves). Zero means 1: the channel ages every cycle.
	CoherenceCycles int
	// RetrainCycles is the re-training period in CFP cycles. Zero means
	// CoherenceCycles: re-train whenever the channel moves. Larger
	// values model CSI growing stale between surveys.
	RetrainCycles int
	// TrainSlots is the airtime charged per re-training round.
	TrainSlots int
	// Mobility moves every client by random waypoint: each coherence
	// interval the client advances SpeedMetersPerInterval toward its
	// waypoint, drawing a fresh uniform waypoint in the room on arrival.
	// Moves re-draw the fading and shadowing of the moved pairs.
	Mobility bool
	// SpeedMetersPerInterval is the per-interval step of mobile clients
	// in meters. Zero means the default 0.5 m.
	SpeedMetersPerInterval float64
}

// outageFraction is the loss threshold under dynamics: a packet whose
// achieved rate falls below outageFraction times the rate it was
// planned at is lost (the modulation chosen from the last survey outran
// the drifted channel).
const outageFraction = 0.5

// enabled reports whether the trial has any channel dynamics to apply.
// Scheduled training (TrainSlots alone) counts: the APs cannot know the
// channel stood still, so the airtime is spent either way.
func (d Dynamics) enabled() bool {
	return d.Eps > 0 || d.Mobility || d.TrainSlots > 0
}

// validate rejects parameters outside the model.
func (d Dynamics) validate() error {
	if err := cmp.Or(
		finite("Dynamics.Eps", d.Eps),
		finite("Dynamics.SpeedMetersPerInterval", d.SpeedMetersPerInterval),
	); err != nil {
		return err
	}
	if d.Eps < 0 || d.Eps > 1 {
		return fmt.Errorf("sim: Dynamics.Eps %v outside [0, 1]", d.Eps)
	}
	if d.CoherenceCycles < 0 {
		return fmt.Errorf("sim: Dynamics.CoherenceCycles must be >= 0")
	}
	if d.RetrainCycles < 0 {
		return fmt.Errorf("sim: Dynamics.RetrainCycles must be >= 0")
	}
	if d.TrainSlots < 0 {
		return fmt.Errorf("sim: Dynamics.TrainSlots must be >= 0")
	}
	if d.SpeedMetersPerInterval < 0 {
		return fmt.Errorf("sim: Dynamics.SpeedMetersPerInterval must be >= 0")
	}
	return nil
}

// normalized fills the documented defaults for the zero-valued knobs.
func (d Dynamics) normalized() Dynamics {
	if d.CoherenceCycles == 0 {
		d.CoherenceCycles = 1
	}
	if d.RetrainCycles == 0 {
		d.RetrainCycles = d.CoherenceCycles
	}
	if d.Mobility && d.SpeedMetersPerInterval == 0 {
		d.SpeedMetersPerInterval = 0.5
	}
	return d
}

// waypoint is a mobile client's current destination.
type waypoint struct{ x, y float64 }

// randWaypoint draws a uniform destination in the room from the trial's
// dedicated dynamics RNG, so enabling mobility never re-orders the
// traffic or planner streams.
func (e *engine) randWaypoint() waypoint {
	return waypoint{e.dynRng.Float64() * roomMeters, e.dynRng.Float64() * roomMeters}
}

// moveClients advances every client one random-waypoint step. Clients
// move in index order (determinism); each MoveNode invalidates the moved
// pairs' fading and shadowing and bumps the world epoch.
func (e *engine) moveClients() {
	step := e.dyn.SpeedMetersPerInterval
	for i, n := range e.scenario.Clients {
		wp := e.waypoints[i]
		dx, dy := wp.x-n.X, wp.y-n.Y
		if d := math.Hypot(dx, dy); d > step {
			e.scenario.World.MoveNode(n, n.X+dx/d*step, n.Y+dy/d*step)
			continue
		}
		e.scenario.World.MoveNode(n, wp.x, wp.y)
		e.waypoints[i] = e.randWaypoint()
	}
}

// applyDynamics ages the channel between CFP cycles and runs the
// re-training schedule. Cycle 0 is skipped: trials start on a fresh
// survey of a fresh channel.
func (e *engine) applyDynamics(cycle int) {
	if !e.dyn.enabled() || cycle == 0 {
		return
	}
	if cycle%e.dyn.CoherenceCycles == 0 {
		if e.dyn.Eps > 0 {
			e.scenario.World.Perturb(e.dyn.Eps)
		}
		if e.dyn.Mobility {
			e.moveClients()
		}
	}
	if cycle%e.dyn.RetrainCycles == 0 {
		// One training round: every pair the planners touch is
		// re-surveyed (fresh estimates), the cache's generation moves so
		// every estimate-derived group plan drops, and the airtime bill
		// lands on the MAC clock. The epoch moves the same generation
		// on its own.
		e.chans.Retrain()
		e.surveyAll()
		e.sim.ChargeSlots(e.dyn.TrainSlots)
		e.retrains++
		e.retrainCost += e.dyn.TrainSlots
		e.emit(Event{Kind: EventRetrain, Cycle: cycle,
			Slot: e.sim.Slots(), Value: float64(e.dyn.TrainSlots)})
	}
}

// surveyAll draws a fresh training estimate for every traffic-direction
// pair a slot planner can touch, in fixed order — one network-wide
// training round. Surveying eagerly matters under manual re-training:
// left to the lazy per-pair path, a pair first used between training
// rounds would be estimated from the already-drifted channel — a free,
// out-of-schedule survey that dodges both the staleness and the
// TrainSlots airtime the model charges for fresh CSI.
func (e *engine) surveyAll() {
	for _, c := range e.scenario.Clients {
		for _, ap := range e.scenario.APs {
			if e.cfg.Uplink {
				e.chans.Estimated(c, ap, e.rng)
			} else {
				e.chans.Estimated(ap, c, e.rng)
			}
		}
	}
}
