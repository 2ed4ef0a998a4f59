package sim

import (
	"errors"
	"fmt"
)

// Typed sentinels for Config.Validate, matching core.ReliableConfig's
// convention: match with errors.Is, wrap with context at the call site.
var (
	// ErrNegativeTxDelay rejects a negative per-transmission latency.
	ErrNegativeTxDelay = errors.New("sim: TxDelay must be >= 0")
	// ErrNegativeJitter rejects a negative jitter bound.
	ErrNegativeJitter = errors.New("sim: JitterMax must be >= 0")
	// ErrBadLossProb rejects a loss probability outside [0, 1].
	ErrBadLossProb = errors.New("sim: LossProb must be in [0, 1]")
	// ErrNegativeMaxEvents rejects a negative event cap. Zero is not an
	// error: it selects the default cap, like every other zero field.
	ErrNegativeMaxEvents = errors.New("sim: MaxEvents must be >= 0")
	// ErrNegativeCollisionWindow rejects a negative collision window.
	ErrNegativeCollisionWindow = errors.New("sim: CollisionWindow must be >= 0")
	// ErrBadMobile rejects a mobile carrier with no path or negative
	// timing parameters.
	ErrBadMobile = errors.New("sim: Mobile needs a Path and non-negative IntervalS/HorizonS")
	// ErrBadAdversary rejects an Adversary with an out-of-range knob or an
	// unknown behavior value.
	ErrBadAdversary = errors.New("sim: Adversary knobs must be non-negative, DropProb in [0, 1], behaviors known")
	// ErrBadDefense rejects a Defense with a negative rate, burst, or
	// geocast radius bound.
	ErrBadDefense = errors.New("sim: Defense rates and radius must be >= 0")
	// ErrNoSourceAP is returned by Engine.Run when the packet's source
	// building is out of range or hosts no AP — there is nowhere to inject
	// the packet, so nothing was simulated.
	ErrNoSourceAP = errors.New("sim: no AP in the packet's source building")
)

// Validate checks the physically meaningless configurations a caller can
// construct: negative delays, probabilities outside [0, 1], a negative
// event cap. Zero values are not errors — they select defaults (zero
// MaxEvents becomes the 5M runaway guard inside Engine.Run), mirroring
// core.ReliableConfig.Validate. Engine.Run validates internally; flag-driven
// callers validate up front to fail fast with a usable message.
func (c Config) Validate() error {
	if c.TxDelay < 0 {
		return fmt.Errorf("%w (got %v)", ErrNegativeTxDelay, c.TxDelay)
	}
	if c.JitterMax < 0 {
		return fmt.Errorf("%w (got %v)", ErrNegativeJitter, c.JitterMax)
	}
	if c.LossProb < 0 || c.LossProb > 1 {
		return fmt.Errorf("%w (got %v)", ErrBadLossProb, c.LossProb)
	}
	if c.MaxEvents < 0 {
		return fmt.Errorf("%w (got %d)", ErrNegativeMaxEvents, c.MaxEvents)
	}
	if c.CollisionWindow < 0 {
		return fmt.Errorf("%w (got %v)", ErrNegativeCollisionWindow, c.CollisionWindow)
	}
	for i, mb := range c.Mobiles {
		if mb.Path == nil || mb.IntervalS < 0 || mb.HorizonS < 0 {
			return fmt.Errorf("%w (mobile %d)", ErrBadMobile, i)
		}
	}
	if a := c.Adversary; a != nil {
		if a.DropProb < 0 || a.DropProb > 1 {
			return fmt.Errorf("%w (DropProb %v)", ErrBadAdversary, a.DropProb)
		}
		if a.ReplayInterval < 0 || a.ReplayHorizon < 0 || a.ReplayBuffer < 0 ||
			a.InjectRate < 0 || a.InjectHorizon < 0 || a.GeocastRadius < 0 {
			return fmt.Errorf("%w (negative knob)", ErrBadAdversary)
		}
		for ap, b := range a.Behaviors {
			if b >= numBehaviors {
				return fmt.Errorf("%w (AP %d behavior %d)", ErrBadAdversary, ap, b)
			}
		}
	}
	if d := c.Defense; d.NeighborRate < 0 || d.NeighborBurst < 0 || d.MaxGeocastRadius < 0 {
		return fmt.Errorf("%w", ErrBadDefense)
	}
	return nil
}
