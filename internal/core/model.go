// Package core implements the lossless smoothing algorithm of Lam, Chow,
// and Yau, "An Algorithm for Lossless Smoothing of MPEG Video" (SIGCOMM
// 1994), together with the ideal smoothing reference of Section 3.2, an
// offline optimal baseline in the spirit of Ott et al., and the system
// model of Section 4.1.
//
// # System model
//
// Pictures arrive to a FIFO queue from an encoder: the S_i bits of picture
// i arrive during the interval ((i−1)τ, iτ]. A server drains the queue at
// a per-picture rate r_i chosen by the algorithm when it can begin sending
// picture i:
//
//	t_i = max(d_{i−1}, (i−1+K)τ)                          (2)
//	d_i = t_i + S_i / r_i                                  (3)
//	delay_i = d_i − (i−1)τ                                 (4)
//
// The algorithm is parameterized by K (pictures with known sizes before
// sending starts), D (per-picture delay bound), and H (lookahead
// interval). Theorem 1 guarantees that for K ≥ 1, choosing every r_i in
// [r_i^L, r_i^U] — equations (5) and (6) — satisfies the delay bound and
// continuous service (t_{i+1} = d_i).
//
// Go code uses 0-based picture indices j = i−1; the equations above are
// translated accordingly and the unit tests pin the translation to
// hand-computed schedules.
package core

import (
	"fmt"
	"math"

	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/trace"
)

// Config parameterizes a smoothing run.
type Config struct {
	// K is the required number of complete pictures buffered before the
	// server may begin sending the next picture. Theorem 1 requires K ≥ 1
	// for the delay bound to be guaranteed; K = 0 is permitted for
	// experiments and may violate the bound.
	K int
	// D is the per-picture delay bound in seconds. Must satisfy
	// D ≥ (K+1)τ for the bound to be satisfiable (Eq. 1).
	D float64
	// H is the lookahead interval in pictures (H ≥ 1). The inner loop
	// examines pictures i .. i+H−1. SmoothAll (only) resolves H = 0 to
	// each trace's pattern length N — the paper's usual choice, and the
	// form that lets one Config serve a batch of traces with different
	// patterns.
	H int
	// Policy owns rate selection within the accumulated Theorem 1 band.
	// nil means BasicPolicy.
	Policy Policy
	// Estimator supplies sizes for pictures that have not arrived.
	// Defaults to PatternEstimator with the paper's initial estimates.
	Estimator Estimator
}

// Validate checks the configuration against the trace's picture period.
func (c Config) Validate(tau float64) error {
	if c.K < 0 {
		return fmt.Errorf("core: K = %d must be >= 0", c.K)
	}
	if c.H < 1 {
		return fmt.Errorf("core: H = %d must be >= 1", c.H)
	}
	if !(c.D > 0) || math.IsInf(c.D, 1) {
		return fmt.Errorf("core: D = %v must be positive and finite", c.D)
	}
	// Eq. (1): D >= (K+1)τ. Required for K >= 1; for the K = 0
	// experiments any positive D is accepted (violations are the point).
	if c.K >= 1 && c.D < float64(c.K+1)*tau-1e-12 {
		return fmt.Errorf("core: D = %v violates D >= (K+1)τ = %v", c.D, float64(c.K+1)*tau)
	}
	if v, ok := c.Policy.(policyValidator); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Schedule is the output of a smoothing run: per-picture rates and the
// resulting timing, all in seconds and bits/second.
type Schedule struct {
	Trace  *trace.Trace
	Config Config
	Rates  []float64 // r_i selected for each picture
	Start  []float64 // t_i: time the server begins sending picture i
	Depart []float64 // d_i: time the last bit of picture i leaves
	Delays []float64 // delay_i = d_i − arrival start of picture i
	// LowerBound and UpperBound record the Theorem 1 bounds r^L, r^U
	// (h = 0, actual S_i) at each t_i, for verification.
	LowerBound []float64
	UpperBound []float64
}

// RateFunc returns r(t) as a step function over [t_1, d_n). Its Times
// and Values are the schedule's own Start and Rates, not copies, when
// the starts strictly increase, as they do in every schedule Smooth and
// PiecewiseCBR build: both sides must then treat them as read-only.
// Only a schedule with a zero-length send, whose start repeats, is
// copied, with that send dropped.
func (s *Schedule) RateFunc() (*metrics.StepFunc, error) {
	return rateFunc(s.Start, s.Rates, s.Depart[len(s.Depart)-1])
}

// rateFunc is the step function that takes rates[i] from start[i] and
// ends at end. It shares start and rates when the starts strictly
// increase; a NaN start stops that test, as a repeat does. Otherwise it
// copies them, dropping each send that starts no later than the last
// one kept (a zero-length send, impossible with positive sizes) and
// keeping a NaN start for NewStepFunc to reject.
func rateFunc(start, rates []float64, end float64) (*metrics.StepFunc, error) {
	i := 1
	for i < len(start) && start[i] > start[i-1] {
		i++
	}
	if i >= len(start) {
		return metrics.NewStepFunc(start, rates, end)
	}
	times := make([]float64, 0, len(start))
	values := make([]float64, 0, len(start))
	for k, t := range start {
		if len(times) > 0 && t <= times[len(times)-1] {
			continue
		}
		times = append(times, t)
		values = append(values, rates[k])
	}
	return metrics.NewStepFunc(times, values, end)
}

// Evaluate computes the paper's four smoothness measures (Section 5.2)
// for the schedule: r(t) against ideal smoothing of the same trace,
// aligned by the (N−K)τ advance of Eq. 16, over the trace's duration
// plus D.
func (s *Schedule) Evaluate() (metrics.Measures, error) {
	idf, err := idealRateFunc(s.Trace)
	if err != nil {
		return metrics.Measures{}, err
	}
	rf, err := s.RateFunc()
	if err != nil {
		return metrics.Measures{}, err
	}
	advance := float64(s.Trace.GOP.N-s.Config.K) * s.Trace.Tau
	return metrics.Compute(rf, idf, advance, s.Trace.Duration()+s.Config.D)
}

// PeakRate returns the largest per-picture transmission rate: the
// schedule's traffic descriptor. A sender declares it in a transport
// StreamHello, and an admission controller reserves it against a shared
// link — the sum of admitted peaks never exceeding the link capacity is
// what makes the multiplexing of Section 5 lossless. A NaN rate makes
// the peak NaN, so such a schedule cannot pass for a quiet one.
func (s *Schedule) PeakRate() float64 {
	peak := 0.0
	for _, r := range s.Rates {
		if r > peak || math.IsNaN(r) {
			peak = r
		}
	}
	return peak
}

// MaxDelay returns the largest per-picture delay; a NaN delay makes it
// NaN.
func (s *Schedule) MaxDelay() float64 {
	max := 0.0
	for _, d := range s.Delays {
		if d > max || math.IsNaN(d) {
			max = d
		}
	}
	return max
}

// The checks below negate an in-range test, so that a NaN, which no
// comparison places in range, is reported as a violation.

// CheckDelayBound verifies delay_i <= D for every picture (Theorem 1,
// property (7)). It returns the first violating picture, or -1.
func (s *Schedule) CheckDelayBound() int {
	for i, d := range s.Delays {
		if !(d <= s.Config.D+1e-9) {
			return i
		}
	}
	return -1
}

// CheckContinuousService verifies t_{i+1} = d_i for every picture
// (Theorem 1, property (9)). It returns the first violating picture
// boundary, or -1.
func (s *Schedule) CheckContinuousService() int {
	for i := 1; i < len(s.Start); i++ {
		if !(math.Abs(s.Start[i]-s.Depart[i-1]) <= 1e-9) {
			return i
		}
	}
	return -1
}

// CheckRatesWithinBounds verifies r_i ∈ [r_i^L, r_i^U] (the hypothesis of
// Theorem 1). It returns the first violating picture, or -1.
func (s *Schedule) CheckRatesWithinBounds() int {
	for i, r := range s.Rates {
		if outOfBand(r, s.LowerBound[i], s.UpperBound[i]) {
			return i
		}
	}
	return -1
}

// PolicyViolations is the policy's violation report: the pictures whose
// selected rate lies outside the Theorem 1 band. For K ≥ 1 and a
// band-respecting policy (BasicPolicy, MovingAveragePolicy,
// MinimumVariability) it is always empty; a CappedRate ceiling below the
// band's lower bound forces entries here — each one a picture whose
// delay bound the cap made unavoidable (Verify reports the resulting
// delay violation too).
func (s *Schedule) PolicyViolations() []int {
	var out []int
	for i, r := range s.Rates {
		if outOfBand(r, s.LowerBound[i], s.UpperBound[i]) {
			out = append(out, i)
		}
	}
	return out
}

// CheckConservation verifies that every picture's bits are fully
// transmitted: (d_i − t_i)·r_i = S_i. It returns the first violating
// picture, or -1.
func (s *Schedule) CheckConservation() int {
	for i := range s.Rates {
		sent := (s.Depart[i] - s.Start[i]) * s.Rates[i]
		if !(math.Abs(sent-float64(s.Trace.Sizes[i])) <= 1e-6*float64(s.Trace.Sizes[i])+1e-3) {
			return i
		}
	}
	return -1
}

// CheckCausality verifies the server never sends bits of a picture that
// has not fully arrived when K >= 1: t_i >= iτ for 0-based i (the picture
// arrives during (iτ, (i+1)τ] ... with K >= 1, t_i >= (i+K)τ >= (i+1)τ).
// It returns the first violating picture, or -1.
func (s *Schedule) CheckCausality() int {
	if s.Config.K < 1 {
		return -1
	}
	tau := s.Trace.Tau
	for i := range s.Start {
		if !(s.Start[i] >= float64(i+1)*tau-1e-9) {
			return i
		}
	}
	return -1
}
