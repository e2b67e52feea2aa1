package loadgen

import (
	"math"
	"time"
)

// Rate is a time-varying arrival intensity: requests per second as a
// function of elapsed time since the start of the run. A Rate turns the
// generator from a homogeneous Poisson process into a non-homogeneous
// one (sampled by Lewis-Shedler thinning), which is what lets one
// workload definition express ramps, flash crowds, diurnal cycles, and
// replayed production traces.
//
// A Rate must be non-negative; intervals where it returns 0 produce no
// arrivals.
type Rate func(elapsed time.Duration) float64

// ConstantRate arrives at a steady rps — the same process as Config.RPS,
// expressed as a Rate so it composes with Spike and friends.
func ConstantRate(rps float64) Rate {
	return func(time.Duration) float64 { return rps }
}

// RampRate interpolates linearly from `from` rps at elapsed 0 to `to`
// rps at elapsed `over`, holding `to` afterwards. It models gradual
// organic growth (or decay, when to < from).
func RampRate(from, to float64, over time.Duration) Rate {
	return func(elapsed time.Duration) float64 {
		if over <= 0 || elapsed >= over {
			return to
		}
		if elapsed <= 0 {
			return from
		}
		frac := float64(elapsed) / float64(over)
		return from + (to-from)*frac
	}
}

// Spike multiplies base by factor inside the square window
// [start, start+width) — a flash crowd: traffic jumps, holds, and drops
// back. Factors below 1 model brownouts instead.
func Spike(base Rate, factor float64, start, width time.Duration) Rate {
	return func(elapsed time.Duration) float64 {
		r := base(elapsed)
		if elapsed >= start && elapsed < start+width {
			r *= factor
		}
		return r
	}
}

// DiurnalRate is a day/night sinusoid around base: rate(t) =
// base * (1 + amplitude*cos(2π*(t-peak)/period)). Amplitude is clamped
// to [0,1] so the trough never goes negative; peak is the elapsed offset
// of the daily maximum. With period = 24h this is the same shape the
// traffic generator uses for its synthetic profiles, compressed to
// whatever period the scenario can afford.
func DiurnalRate(base, amplitude float64, period, peak time.Duration) Rate {
	if amplitude < 0 {
		amplitude = 0
	}
	if amplitude > 1 {
		amplitude = 1
	}
	return func(elapsed time.Duration) float64 {
		if period <= 0 {
			return base
		}
		phase := 2 * math.Pi * float64(elapsed-peak) / float64(period)
		return base * (1 + amplitude*math.Cos(phase))
	}
}

// maxRateScan is the number of sample points used to bound a Rate for
// thinning. Piecewise-constant and smooth rates are bounded exactly
// enough at this granularity; pathological needle-shaped rates would be
// under-sampled, which only biases a needle's arrivals low — it never
// breaks the generator.
const maxRateScan = 4096

// peakRate estimates max rate(t) over [0, duration] by scanning.
func peakRate(rate Rate, duration time.Duration) float64 {
	step := duration / maxRateScan
	if step <= 0 {
		step = time.Nanosecond
	}
	peak := 0.0
	for el := time.Duration(0); el <= duration; el += step {
		if r := rate(el); r > peak {
			peak = r
		}
	}
	return peak
}
