package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Bounds is the Theorem 1 band the kernel accumulated over the lookahead
// window before handing rate selection to a Policy: the running max of
// the lower bounds (Eq. 12) and running min of the upper bounds (Eq. 13)
// for h = 0 .. Depth−1.
type Bounds struct {
	// Lower and Upper are the accumulated band at loop exit. When
	// Crossed, they are the values from the crossing iteration
	// (Lower > Upper); exactly one of them moved in that iteration.
	Lower, Upper float64
	// LowerPrev and UpperPrev are the band before the final iteration;
	// on a crossing exit the stale bound (the one that did not move) is
	// still feasible for the window examined so far.
	LowerPrev, UpperPrev float64
	// Crossed reports an early exit: the bounds crossed before the full
	// H-picture lookahead, so no single rate serves the whole window.
	Crossed bool
	// Sum is the accumulated bits (actual + estimated) of the examined
	// window — the numerator of the moving-average rule (Eq. 15).
	Sum float64
	// Depth is the number of pictures the lookahead examined (the h at
	// exit, 1 ≤ Depth ≤ H except at a finite sequence end).
	Depth int
}

// crossingRate is the early-exit rule shared by every bounded policy
// (Section 4.3): the bounds crossed at lookahead h−1, and exactly one of
// them moved in the crossing iteration; selecting the stale bound defers
// the next forced rate change as long as possible.
func (b *Bounds) crossingRate() float64 {
	if b.Lower > b.LowerPrev {
		return b.Upper // upper did not move: upper == UpperPrev
	}
	return b.Lower // lower did not move: lower == LowerPrev
}

// clamp restricts rate to the accumulated band.
func (b *Bounds) clamp(rate float64) float64 {
	if rate > b.Upper {
		return b.Upper
	}
	if rate < b.Lower {
		return b.Lower
	}
	return rate
}

// State is the per-decision context a Policy may consult in addition to
// the accumulated bounds.
type State struct {
	// Picture is the 0-based display index being scheduled.
	Picture int
	// Held is the rate selected for the previous picture (0 before the
	// first decision) — the rate the basic rule holds.
	Held float64
	// Now is t_j, the time transmission of this picture begins.
	Now float64
	// Tau is the picture period in seconds.
	Tau float64
	// PatternN is the GOP pattern length N (the moving-average window).
	PatternN int
}

// Policy owns rate selection: the kernel accumulates the Theorem 1
// bounds over the lookahead window and calls Select exactly once per
// picture, on both early (crossed) and normal exits. Any rate within
// [Bounds.Lower, Bounds.Upper] preserves the Theorem 1 guarantees; a
// policy that returns a rate outside the band (CappedRate under a tight
// ceiling) trades a reported bound violation for its own constraint —
// the kernel records the transgression in Decision.OutOfBand and
// Schedule.PolicyViolations rather than silently correcting it.
//
// b and s point at the kernel's own per-decision Bounds and State,
// which it refills for every picture: they are read-only, valid only
// during the call, and must not be retained.
//
// Policies must be stateless (or at least safe for concurrent use by
// value): SmoothAll shares one Config — and therefore one Policy value —
// across its worker pool.
type Policy interface {
	// Select returns the rate r_j in bits/second for the picture
	// described by s, given the accumulated bounds b.
	Select(b *Bounds, s *State) float64
	// Name identifies the policy in experiment output and flags.
	Name() string
}

// BasicPolicy is the paper's basic rule: hold the previous rate unless
// it falls outside the accumulated band — the selection that minimizes
// the number of rate changes. The first picture starts at the band
// midpoint.
type BasicPolicy struct{}

// Name implements Policy.
func (BasicPolicy) Name() string { return "basic" }

// Select implements Policy.
func (BasicPolicy) Select(b *Bounds, s *State) float64 {
	if b.Crossed {
		return b.crossingRate()
	}
	rate := s.Held
	if s.Picture == 0 {
		rate = (b.Lower + b.Upper) / 2
	}
	return b.clamp(rate)
}

// MovingAveragePolicy is the paper's Section 4.4 modification: on a
// normal exit it proposes the pattern moving average Sum/(Nτ) (Eq. 15)
// instead of holding — more small rate changes, but r(t) tracks ideal
// smoothing more closely.
type MovingAveragePolicy struct{}

// Name implements Policy.
func (MovingAveragePolicy) Name() string { return "moving-average" }

// Select implements Policy.
func (MovingAveragePolicy) Select(b *Bounds, s *State) float64 {
	if b.Crossed {
		return b.crossingRate()
	}
	rate := s.Held
	if s.Picture == 0 {
		rate = (b.Lower + b.Upper) / 2
	} else {
		rate = b.Sum / (float64(s.PatternN) * s.Tau)
	}
	return b.clamp(rate)
}

// CappedRate wraps another policy with a hard bits/second ceiling — the
// negotiated link capacity of a QoS connection (Shuaib et al.). The cap
// is enforced on every picture; when it falls below the Theorem 1 lower
// bound the delay bound becomes unavoidably violated, and the kernel
// reports the transgression through Decision.OutOfBand and
// Schedule.PolicyViolations instead of exceeding the ceiling.
type CappedRate struct {
	// Cap is the ceiling in bits/second; must be positive.
	Cap float64
	// Inner proposes the uncapped rate; nil means BasicPolicy.
	Inner Policy
}

// Name implements Policy.
func (c CappedRate) Name() string {
	inner := "basic"
	if c.Inner != nil {
		inner = c.Inner.Name()
	}
	return fmt.Sprintf("capped:%g(%s)", c.Cap, inner)
}

// Validate reports a non-positive ceiling.
func (c CappedRate) Validate() error {
	if c.Cap <= 0 || math.IsInf(c.Cap, 1) || math.IsNaN(c.Cap) {
		return fmt.Errorf("core: CappedRate ceiling %v must be a positive finite rate", c.Cap)
	}
	return nil
}

// Select implements Policy.
func (c CappedRate) Select(b *Bounds, s *State) float64 {
	inner := c.Inner
	if inner == nil {
		inner = BasicPolicy{}
	}
	rate := inner.Select(b, s)
	if rate > c.Cap {
		rate = c.Cap
	}
	return rate
}

// MinimumVariability centers the rate within the feasible band on every
// normal exit, maximizing the slack to both bounds. Each decision moves
// the rate a little (many small changes), but the distance to the next
// forced excursion is maximized, so the rate function hugs the band
// centre — the playout-smoothing trade-off of Bradai et al., at the
// opposite end of the changes-vs-tracking spectrum from BasicPolicy.
type MinimumVariability struct{}

// Name implements Policy.
func (MinimumVariability) Name() string { return "min-var" }

// Select implements Policy.
func (MinimumVariability) Select(b *Bounds, s *State) float64 {
	if b.Crossed {
		return b.crossingRate()
	}
	if math.IsInf(b.Upper, 1) {
		// Unbounded band (deep delay slack): centring is meaningless;
		// hold if feasible, else rise to the lower bound.
		return b.clamp(s.Held)
	}
	return (b.Lower + b.Upper) / 2
}

// policyValidator is implemented by policies with parameters to check.
type policyValidator interface{ Validate() error }

// policy resolves the effective Policy: Config.Policy, or BasicPolicy
// when it is nil.
func (c Config) policy() Policy {
	if c.Policy != nil {
		return c.Policy
	}
	return BasicPolicy{}
}

// ParsePolicy parses a command-line policy specification:
//
//	basic            hold the previous rate (fewest changes)
//	moving-average   track the pattern moving average (Eq. 15)
//	capped:<bps>     BasicPolicy under a hard ceiling, e.g. capped:2.5e6
//	min-var          centre within the feasible band
//
// "moving" is accepted as an alias for moving-average.
func ParsePolicy(spec string) (Policy, error) {
	s := strings.ToLower(strings.TrimSpace(spec))
	switch s {
	case "basic":
		return BasicPolicy{}, nil
	case "moving", "moving-average":
		return MovingAveragePolicy{}, nil
	case "min-var", "minimum-variability":
		return MinimumVariability{}, nil
	}
	if rest, ok := strings.CutPrefix(s, "capped:"); ok {
		cap, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad capped rate %q: %w", rest, err)
		}
		p := CappedRate{Cap: cap}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return p, nil
	}
	return nil, fmt.Errorf("core: unknown policy %q (want basic, moving-average, capped:<bps>, or min-var)", spec)
}
