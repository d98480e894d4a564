package core

import (
	"fmt"
	"math"

	"mpegsmooth/internal/mpeg"
)

// Session is the unified driver around the decision kernel: every
// consumer — the offline Smooth, the paced transport sender, the batch
// runner SmoothAll — is a thin layer
// over one Session. Picture sizes are pushed in display order as they
// become known, and rate decisions are returned as soon as their inputs
// are determined; Close marks the end of the sequence and flushes the
// remainder, bounding the lookahead at the sequence end exactly as the
// offline algorithm does.
//
// A decision for picture j is computable once
//
//   - pictures j .. j+K−1 have been pushed (Eq. 2's arrival condition),
//   - every picture visible at t_j — i.e. with (i+1)τ ≤ t_j — has been
//     pushed, so the estimator's view is complete, and
//   - the existence of the H-picture lookahead window is settled. A
//     Session built WithLength knows where the sequence ends, so this
//     holds at once; without a length it means pictures j .. j+H−1 have
//     been pushed, or Close was called.
//
// Once every picture of a declared length is pushed, or Close is called,
// the sequence is complete and every remaining decision is computable.
// Either way the decisions equal the offline schedule's, provided the
// pushed sizes are the offline trace (and, with a length, the estimator
// is not OracleEstimator, which needs sizes not yet pushed).
//
// Observations trail decisions: the Observer sees each decision, in
// picture order, once the actual sizes of its whole lookahead window
// have been pushed (at Close at the latest), because its estimator
// error compares the window's estimates with those sizes. Without a
// length that is when the decision is made. A stream abandoned before
// Close never reports the last few.
//
// A Session is single-goroutine by design (it is not safe for
// concurrent use); SmoothAll scales across streams by sharding whole
// sessions over a worker pool, never by sharing one.
type Session struct {
	cfg    Config
	engine *engine
	sizes  []int64
	// end is the sequence length once it is known — declared by
	// WithLength, or fixed by Close at what was pushed — and −1 before.
	end int

	next     int // next picture awaiting a decision
	depart   float64
	rate     float64
	peak     float64
	observer Observer
	// dec is the one Decision drain decides every picture into. It is a
	// field, not a local of drain, because a local passed by address
	// through a func value escapes to the heap.
	dec Decision
	// unobserved holds decided pictures whose Observation waits for the
	// actual sizes of its estimated window, oldest first.
	unobserved []pendingObservation
}

// pendingObservation is a decision's Observation before its estimator
// error is known.
type pendingObservation struct {
	obs Observation
	est estimate
}

// Decision reports one scheduled picture. The first seven fields mirror
// Schedule's per-picture arrays; the rest expose the kernel's view of
// the decision for observers and live consumers. The kernel decides
// every picture of a Session into one Decision it owns: Push and Close
// return copies in a fresh slice, AppendPush appends them to the
// caller's, and Smooth copies the mirrored fields straight into its
// Schedule.
type Decision struct {
	Picture              int
	Rate                 float64
	Start, Depart, Delay float64
	// Lower and Upper are the Theorem 1 (h = 0, actual size) bounds.
	Lower, Upper float64
	// BandLower and BandUpper are the accumulated lookahead band the
	// policy selected within (Eqs. 12–13 at loop exit).
	BandLower, BandUpper float64
	// Depth is the lookahead depth at exit: how many pictures the bound
	// accumulation examined before crossing, exhausting H, or hitting
	// the sequence end.
	Depth int
	// OutOfBand reports that the selected rate violates the Theorem 1
	// band — possible only under a policy that trades bound violations
	// for its own constraint (CappedRate) or in K = 0 runs.
	OutOfBand bool
}

// Observation is the per-decision measurement handed to an Observer.
type Observation struct {
	// Picture and Rate identify the decision.
	Picture int
	Rate    float64
	// LowerSlack and UpperSlack are the margins Rate keeps to the
	// Theorem 1 (h = 0, actual size) bounds — negative exactly when the
	// decision is OutOfBand, i.e. a policy traded a bound violation for
	// its own constraint.
	LowerSlack, UpperSlack float64
	// Depth is the lookahead depth at exit.
	Depth int
	// EstimatorError is the relative error of the estimated bits over
	// the part of the window that had not arrived at t_j,
	// (est − actual)/actual; 0 when the window held no estimates, or
	// when it reached past the end of a stream closed short of its
	// declared length.
	EstimatorError float64
}

// Observer receives one callback per decision, in picture order, from
// inside the Push or Close call that completes the decision's
// lookahead window. Without a declared length that is the call that
// returns the decision, before it returns; with one, observations may
// trail their decisions by up to H pictures. Observations feed metrics
// collectors (see metrics.DecisionStats); the hook must not retain the
// Session.
type Observer func(Observation)

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithObserver installs a per-decision observer hook.
func WithObserver(o Observer) SessionOption {
	return func(s *Session) { s.observer = o }
}

// WithLength declares the sequence length n, binding: Push refuses a
// picture beyond it, and decisions no longer wait for the H-picture
// lookahead window to arrive, only for Eq. 2's arrival condition and
// the estimator's view. n <= 0 means the length is unknown.
func WithLength(n int) SessionOption {
	return func(s *Session) {
		if n > 0 {
			s.end = n
		}
	}
}

// withTypes supplies explicit per-picture types for adaptive-pattern
// traces (used by Smooth; live streams follow the GOP pattern).
func withTypes(types []mpeg.PictureType) SessionOption {
	return func(s *Session) { s.engine.view.types = types }
}

// NewSession prepares a smoothing session for a stream with the given
// picture period and coding pattern.
func NewSession(tau float64, gop mpeg.GOP, cfg Config, opts ...SessionOption) (*Session, error) {
	if !(tau > 0) || math.IsInf(tau, 1) {
		return nil, fmt.Errorf("core: picture period %v must be positive and finite", tau)
	}
	if err := gop.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(tau); err != nil {
		return nil, err
	}
	if cfg.Estimator == nil {
		cfg.Estimator = PatternEstimator{}
	}
	s := &Session{
		cfg:    cfg,
		engine: newEngine(cfg, tau, gop),
		end:    -1,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Push appends the size of the next encoded picture (display order) and
// returns any decisions that became determined, in a fresh slice: it is
// AppendPush(nil, size).
func (s *Session) Push(size int64) ([]Decision, error) {
	return s.AppendPush(nil, size)
}

// AppendPush is Push appending the decisions to dst and returning the
// extended slice, so a caller that reuses one slice across pushes — a
// live stream's ingest loop — allocates nothing per picture. Invalid
// input — a push beyond the declared length or after Close, or a
// non-positive size — is rejected before any state is touched, so a
// failed push never perturbs the schedule; it returns dst unchanged.
func (s *Session) AppendPush(dst []Decision, size int64) ([]Decision, error) {
	if len(s.sizes) == s.end {
		return dst, fmt.Errorf("core: Push past the end of a %d-picture sequence", s.end)
	}
	if size <= 0 {
		return dst, fmt.Errorf("core: non-positive picture size %d", size)
	}
	s.sizes = append(s.sizes, size)
	return s.appendDecisions(dst), nil
}

// Close marks the end of the picture sequence — its length is what was
// pushed — and returns all remaining decisions. Close is idempotent.
func (s *Session) Close() []Decision {
	s.end = len(s.sizes)
	return s.appendDecisions(nil)
}

// appendDecisions drains the Session onto dst, grown first to hold
// every remaining decision when the sequence is complete and all of
// them are decided now.
func (s *Session) appendDecisions(dst []Decision) []Decision {
	if n := s.end - s.next; len(s.sizes) == s.end && cap(dst)-len(dst) < n {
		dst = append(make([]Decision, 0, len(dst)+n), dst...)
	}
	s.drain(func(d *Decision) { dst = append(dst, *d) })
	return dst
}

// Pushed returns the number of picture sizes received so far.
func (s *Session) Pushed() int { return len(s.sizes) }

// Pending returns the number of pushed pictures that do not yet have a
// rate decision.
func (s *Session) Pending() int { return len(s.sizes) - s.next }

// Policy returns the session's effective rate-selection policy.
func (s *Session) Policy() Policy { return s.engine.policy }

// PeakRate returns the maximum transmission rate decided so far in
// bits/second (0 before the first decision): the stream's running
// traffic descriptor, which admission control reserves against a shared
// link. For a completed session it equals Schedule.PeakRate of the
// equivalent offline run.
func (s *Session) PeakRate() float64 { return s.peak }

// runAll consumes a complete, already-validated size sequence in one
// shot — the offline mode: push all, close — handing each decision to
// put. Because the sequence length is known before the first decision,
// every decide call sees the bounded lookahead directly, exactly as the
// paper's Figure 2 loop does.
func (s *Session) runAll(sizes []int64, put func(*Decision)) {
	s.sizes, s.end = sizes, len(sizes)
	s.drain(put)
}

// drain decides every picture whose inputs are determined, then hands
// on every observation whose window's sizes are known. Each decision is
// written into s.dec and passed to put, in picture order; put must copy
// out what it keeps before it returns, since the next decision
// overwrites it.
func (s *Session) drain(put func(*Decision)) {
	for s.next < len(s.sizes) {
		j := s.next
		a := len(s.sizes)
		if a != s.end {
			// Arrival condition: pictures j..j+K−1 pushed.
			if a < j+s.cfg.K {
				break
			}
			// Lookahead existence: the offline algorithm would examine
			// pictures j..j+H−1 unless the sequence ends first; without
			// a length we cannot know it ends, so wait for them.
			if s.end < 0 && a < j+s.cfg.H {
				break
			}
			// View completeness: every picture visible at t_j, which
			// depart and (j+K)τ already determine, must be pushed, so
			// wait while picture a, the first one not pushed, has
			// arrived by t_j.
			if arrivals(s.engine.start(j, s.depart), s.engine.tau, a+1) > a {
				break
			}
		}
		d := &s.dec
		est := s.engine.decide(j, s.sizes, s.depart, s.rate, s.end, d)
		s.depart, s.rate = d.Depart, d.Rate
		if d.Rate > s.peak || math.IsNaN(d.Rate) {
			s.peak = d.Rate
		}
		s.next++
		if s.observer != nil {
			s.unobserved = append(s.unobserved, pendingObservation{
				obs: Observation{
					Picture:    d.Picture,
					Rate:       d.Rate,
					LowerSlack: d.Rate - d.Lower,
					UpperSlack: d.Upper - d.Rate,
					Depth:      d.Depth,
				},
				est: est,
			})
		}
		put(d)
	}
	s.observe()
}

// observe hands the observer every waiting observation, in picture
// order, whose estimated window has been pushed; once the sequence is
// complete, all of them. A window that reaches past a sequence closed
// short of its declared length reports no estimator error.
func (s *Session) observe() {
	done := 0
	for _, p := range s.unobserved {
		if p.est.to > len(s.sizes) {
			if len(s.sizes) != s.end {
				break
			}
			p.est.to = p.est.from // the window's tail was never pushed
		}
		p.obs.EstimatorError = p.est.relError(s.sizes)
		s.observer(p.obs)
		done++
	}
	s.unobserved = s.unobserved[:copy(s.unobserved, s.unobserved[done:])]
}
