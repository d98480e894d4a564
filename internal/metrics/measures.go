package metrics

import (
	"fmt"
	"math"
)

// RateChangeTolerance is the relative tolerance under which two
// consecutive rates count as "unchanged" when counting rate changes.
// The basic algorithm holds the previous rate bit-exactly on normal exit,
// so any tiny tolerance works; this guards against float noise.
const RateChangeTolerance = 1e-9

// Measures bundles the four quantitative smoothness measures of Section
// 5.2, evaluated for a smoothed rate function r(t) against the ideal rate
// function R(t).
type Measures struct {
	// AreaDiff is Eq. 16: ∫[r(t) − R(t + (N−K)τ)]⁺ dt normalized by
	// ∫R(t + (N−K)τ) dt, over the duration of the video sequence.
	AreaDiff float64
	// RateChanges is the number of times r(t) changes over [0, T].
	RateChanges int
	// MaxRate is the maximum of r(t) in bits/second.
	MaxRate float64
	// StdDev is the time-weighted standard deviation of r(t).
	StdDev float64
}

// Compute evaluates the four measures. r is the algorithm's rate
// function, ideal is R(t) from ideal smoothing, and advance is the
// (N−K)τ term of Eq. 16: the comparison uses R(t + advance), i.e. the
// ideal curve moved earlier by advance, because with ideal smoothing
// picture 1 begins transmission (N−K)τ seconds later than under the
// basic algorithm. duration T is the integration span [0, T].
func Compute(r, ideal *StepFunc, advance, duration float64) (Measures, error) {
	if duration <= 0 {
		return Measures{}, fmt.Errorf("metrics: non-positive duration %v", duration)
	}
	// Both integrals read the ideal as ideal.Shift(-advance) would hold
	// it, without the copy.
	num := positiveAreaDiff(&cursor{f: r}, &cursor{f: ideal, dt: -advance}, 0, duration)
	den := integralOver(&cursor{f: ideal, dt: -advance}, 0, duration)
	m := Measures{
		RateChanges: r.Changes(RateChangeTolerance),
		MaxRate:     r.Max(),
		StdDev:      r.Std(),
	}
	if den > 0 {
		m.AreaDiff = num / den
	} else {
		m.AreaDiff = math.NaN()
	}
	return m, nil
}

// DelayStats summarizes per-picture delays.
type DelayStats struct {
	Max, Mean float64
	// Violations counts pictures whose delay exceeds the bound.
	Violations int
}

// SummarizeDelays computes delay statistics against a bound D. A NaN
// delay makes Max and Mean NaN and counts as a violation.
func SummarizeDelays(delays []float64, bound float64) DelayStats {
	var s DelayStats
	if len(delays) == 0 {
		return s
	}
	var sum float64
	for _, d := range delays {
		if d > s.Max || math.IsNaN(d) {
			s.Max = d
		}
		sum += d
		if !(d <= bound+1e-9) {
			s.Violations++
		}
	}
	s.Mean = sum / float64(len(delays))
	return s
}
