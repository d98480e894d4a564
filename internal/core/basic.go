package core

import (
	"fmt"

	"mpegsmooth/internal/trace"
)

// Smooth runs the smoothing algorithm of Figure 2 over a complete trace
// and returns the resulting schedule. The algorithm is online: at each
// picture it sees only the sizes of pictures that have arrived by t_i and
// estimates the rest through cfg.Estimator. Smooth is "new Session, push
// all, close": it drives the same Session kernel as the transport, so
// every driver produces identical schedules.
func Smooth(tr *trace.Trace, cfg Config) (*Schedule, error) {
	return SmoothObserved(tr, cfg, nil)
}

// SmoothObserved is Smooth with a per-decision Observer hook: obs (when
// non-nil) sees every decision as the schedule is computed, exactly as
// a Session observer would.
func SmoothObserved(tr *trace.Trace, cfg Config, obs Observer) (*Schedule, error) {
	var opts []SessionOption
	if obs != nil {
		opts = append(opts, WithObserver(obs))
	}
	sess, err := newTraceSession(tr, cfg, opts...)
	if err != nil {
		return nil, err
	}
	return scheduleFrom(tr, sess.cfg, sess.runAll(tr.Sizes)), nil
}

// newTraceSession builds a Session for a validated complete trace,
// carrying the trace's explicit picture types into the estimator view.
func newTraceSession(tr *trace.Trace, cfg Config, opts ...SessionOption) (*Session, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	opts = append([]SessionOption{withTypes(tr.Types)}, opts...)
	return NewSession(tr.Tau, tr.GOP, cfg, opts...)
}

// scheduleFrom assembles a Schedule from a full decision sequence.
func scheduleFrom(tr *trace.Trace, cfg Config, ds []Decision) *Schedule {
	n := tr.Len()
	s := &Schedule{
		Trace:      tr,
		Config:     cfg,
		Rates:      make([]float64, n),
		Start:      make([]float64, n),
		Depart:     make([]float64, n),
		Delays:     make([]float64, n),
		LowerBound: make([]float64, n),
		UpperBound: make([]float64, n),
	}
	for _, d := range ds {
		j := d.Picture
		s.Rates[j] = d.Rate
		s.Start[j] = d.Start
		s.Depart[j] = d.Depart
		s.Delays[j] = d.Delay
		s.LowerBound[j] = d.Lower
		s.UpperBound[j] = d.Upper
	}
	return s
}

// MustSmooth is Smooth for statically valid inputs; it panics on error.
func MustSmooth(tr *trace.Trace, cfg Config) *Schedule {
	s, err := Smooth(tr, cfg)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	return s
}
