package core

import (
	"math"

	"mpegsmooth/internal/mpeg"
)

// engine is the decision kernel shared by every driver (the offline
// Smooth and Session): one call of decide
// corresponds to one pass of the outer loop in the paper's Figure 2
// specification. The kernel owns the Theorem 1 bound accumulation
// (Eqs. 12–13); rate selection within (or, for CappedRate, against) the
// accumulated band is delegated to the configured Policy.
type engine struct {
	cfg    Config
	policy Policy
	tau    float64
	// view, bounds and state are the per-decision values decide refills
	// for every picture and hands to the estimator and the policy by
	// pointer. They are fields, not locals of decide, because a local
	// passed by address through an interface call escapes to the heap.
	view   View
	bounds Bounds
	state  State
}

// newEngine resolves the configured policy once so decide stays
// allocation-free on the hot path.
func newEngine(cfg Config, tau float64, gop mpeg.GOP) *engine {
	return &engine{cfg: cfg, policy: cfg.policy(), tau: tau, view: View{tau: tau, gop: gop}}
}

// start is t_j, Eq. (2): the server may begin sending picture j once
// the previous picture has departed (depart = d_{j−1}) and pictures
// j .. j+K−1 have arrived (the K-th arrives by (j+K)τ in 0-based
// indexing).
func (e *engine) start(j int, depart float64) float64 {
	return max(depart, float64(j+e.cfg.K)*e.tau)
}

// decide schedules picture j into *d, assigning every field of *d.
//
//	sizes    the prefix of picture sizes the system has learned so far;
//	         must include picture j and every picture visible at t_j
//	depart   d_{j-1} (0 for the first picture)
//	held     the rate selected for picture j−1 (the basic policy holds it)
//	end      total sequence length if known, else -1 (live operation):
//	         bounds the lookahead at the end of a finite sequence
//
// decide reads sizes only for picture j and the pictures that have
// arrived at t_j; the rest of the window is estimated, and the returned
// estimate records which pictures those were, so the caller can score
// the estimator once their actual sizes are known.
func (e *engine) decide(j int, sizes []int64, depart, held float64, end int, d *Decision) estimate {
	cfg := &e.cfg
	tau := e.tau
	now := e.start(j, depart)
	e.view.at(sizes, now)
	arrived := e.view.arrived

	// Inner lookahead loop: accumulate the running max of lower bounds
	// (12) and min of upper bounds (13) for h = 0 .. H−1. Arrivals are
	// a prefix of the window, so the estimated pictures are its tail.
	var (
		sum      float64
		lower    = 0.0
		upper    = math.Inf(1)
		lowerOld = 0.0
		upperOld = math.Inf(1)
		estBits  float64 // estimated bits for the window's tail
	)
	h := 0
	for {
		if end >= 0 && j+h >= end {
			break // finite sequence: nothing to look ahead at
		}
		if i := j + h; i < arrived {
			sum += float64(sizes[i])
		} else {
			bits := float64(cfg.Estimator.Estimate(i, &e.view))
			sum += bits
			estBits += bits
		}
		lowerOld, upperOld = lower, upper
		l := math.Inf(1)
		if den := cfg.D + float64(j+h)*tau - now; den > 0 {
			l = sum / den
		}
		u := math.Inf(1)
		if ub := float64(cfg.K+j+1+h) * tau; now < ub {
			u = sum / (ub - now)
		}
		lower = max(l, lower)
		upper = min(u, upper)
		h++
		if lower > upper || h >= cfg.H {
			break
		}
	}

	// Bounds, State and *d are written field by field, every field on
	// every call: assigning a composite literal copies the whole struct
	// through a temporary.
	b := &e.bounds
	b.Lower, b.Upper = lower, upper
	b.LowerPrev, b.UpperPrev = lowerOld, upperOld
	b.Crossed = lower > upper
	b.Sum = sum
	b.Depth = h
	st := &e.state
	st.Picture = j
	st.Held = held
	st.Now = now
	st.Tau = tau
	st.PatternN = e.view.gop.N
	rate := e.policy.Select(b, st)
	if math.IsInf(rate, 1) || rate <= 0 {
		// Only reachable in K = 0 runs whose delay bound is already
		// unsatisfiable (the lower-bound denominator went negative).
		// Fall back to draining the picture within one period.
		rate = max(float64(sizes[j])/tau, 1)
	}

	// Eqs. (3)–(4) with the picture's ACTUAL size: the transmitter
	// always sends real bits, whatever the estimator believed.
	actual := float64(sizes[j])
	d.Picture = j
	d.Rate = rate
	d.Start = now
	d.Depart = now + actual/rate
	d.Delay = d.Depart - float64(j)*tau
	d.BandLower, d.BandUpper = lower, upper
	d.Depth = h

	// Theorem 1 (h = 0, actual size) bounds for verification.
	d.Lower = math.Inf(1)
	if den := cfg.D + float64(j)*tau - now; den > 0 {
		d.Lower = actual / den
	}
	d.Upper = math.Inf(1)
	if ub := float64(cfg.K+j+1) * tau; now < ub {
		d.Upper = actual / (ub - now)
	}
	// A policy (or the K = 0 fallback) may force a rate outside the
	// Theorem 1 band; record the transgression rather than correct it.
	d.OutOfBand = outOfBand(rate, d.Lower, d.Upper)
	// The window's arrived pictures are [j, from), the rest estimated.
	return estimate{from: min(max(arrived, j), j+h), to: j + h, bits: estBits}
}

// outOfBand reports that rate lies outside the Theorem 1 band
// [lower, upper] beyond float tolerance. It negates the in-band test so
// that a NaN rate, which no comparison places in the band, is out.
func outOfBand(rate, lower, upper float64) bool {
	return !(rate >= lower*(1-1e-12)-1e-9 && rate <= upper*(1+1e-12)+1e-9)
}

// estimate is the part of a decision's lookahead window the kernel had
// to estimate: pictures [from, to) and the bits it estimated for them.
type estimate struct {
	from, to int
	bits     float64
}

// relError is the estimator's relative error over the window,
// (estimated − actual)/actual, given sizes that reach picture to−1;
// 0 when the window held no estimates. It sums the actual sizes in
// window order, as the kernel summed its estimates.
func (e estimate) relError(sizes []int64) float64 {
	var actual float64
	for i := e.from; i < e.to; i++ {
		actual += float64(sizes[i])
	}
	if actual > 0 {
		return (e.bits - actual) / actual
	}
	return 0
}
