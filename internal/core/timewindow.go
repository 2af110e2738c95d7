package core

import (
	"errors"
	"math"
	"time"
)

// Time-based windows (§II-B: "there are several options to maintain the
// eigensystem over varying temporal extents, including a damping factor or
// time-based windows ... Both approaches can be implemented"). Observe
// applies the per-observation damping factor α; ObserveAt instead decays
// the running sums by exp(−Δt/τ) for the wall-clock gap Δt since the
// previous observation, making the effective window a fixed span of
// *time* regardless of the arrival rate — the natural choice for sensor
// feeds with irregular cadence.

// ObserveAt absorbs one complete observation stamped with its arrival (or
// measurement) time, using time-based forgetting with the time constant
// Config.TimeWindow. It returns an error when TimeWindow is unset.
// Timestamps should be non-decreasing; a backwards stamp is treated as
// simultaneous (no decay). During warm-up the observation is buffered like
// any other. A rejected observation leaves the clock where it was, so the
// next accepted one decays by the whole gap since the last accepted one.
func (en *Engine) ObserveAt(x []float64, at time.Time) (Update, error) {
	if en.cfg.TimeWindow <= 0 {
		return Update{}, errors.New("core: ObserveAt requires Config.TimeWindow")
	}
	u, err := en.observe(x, en.timeDecay(at))
	if err == nil || u.Warmup { // consumed: absorbed, or buffered in warm-up
		en.lastObserved = at
	}
	return u, err
}

// ObserveMaskedAt is the gappy counterpart of ObserveAt.
func (en *Engine) ObserveMaskedAt(x []float64, mask []bool, at time.Time) (Update, error) {
	if en.cfg.TimeWindow <= 0 {
		return Update{}, errors.New("core: ObserveMaskedAt requires Config.TimeWindow")
	}
	u, err := en.observeMasked(x, mask, en.timeDecay(at))
	if err == nil || u.Warmup { // consumed: absorbed, or buffered in warm-up
		en.lastObserved = at
	}
	return u, err
}

// timeDecay converts the gap since the previous stamped observation into a
// one-step decay factor exp(−Δt/τ); the first stamp decays nothing. It reads
// the clock without moving it.
func (en *Engine) timeDecay(at time.Time) float64 {
	if en.lastObserved.IsZero() {
		return 1
	}
	dt := at.Sub(en.lastObserved)
	if dt < 0 {
		dt = 0
	}
	return math.Exp(-dt.Seconds() / en.cfg.TimeWindow.Seconds())
}
