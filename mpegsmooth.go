// Package mpegsmooth implements lossless smoothing of MPEG video, a full
// reproduction of Lam, Chow, and Yau, "An Algorithm for Lossless
// Smoothing of MPEG Video", ACM SIGCOMM 1994.
//
// Interframe compression gives MPEG streams picture sizes that differ by
// an order of magnitude (I ≫ P ≫ B). Sending each picture within its own
// display period therefore produces violent rate fluctuations — an
// unsmoothed 200,000-bit I picture at 30 pictures/s demands 6 Mbps for a
// thirtieth of a second. The smoothing algorithm buffers pictures at the
// sender and chooses a per-picture transmission rate r_i so that
//
//   - every picture's buffering delay stays below a bound D,
//   - the server transmits continuously (never idles), and
//   - the rate changes as rarely as the delay bound permits,
//
// knowing the sizes of only the next K ≥ 1 pictures and estimating the
// rest from the repeating I/P/B pattern with a lookahead of H pictures.
//
// # Quick start
//
//	tr, err := mpegsmooth.Driving1(270, 1)            // a calibrated trace
//	sched, err := mpegsmooth.Smooth(tr, mpegsmooth.Config{
//	    K: 1, H: tr.GOP.N, D: 0.2,                    // the paper's choice
//	})
//	m, err := mpegsmooth.Evaluate(sched)              // the four measures
//	fmt.Printf("max rate %.2f Mbps after smoothing\n", m.MaxRate/1e6)
//
// The package also provides ideal smoothing (the offline per-pattern
// reference of the paper's Section 3.2), an offline-optimal baseline with
// all sizes known a priori (Ott et al.), a simplified MPEG-1 codec for
// generating genuinely encoder-shaped workloads, a finite-buffer
// multiplexer simulator for the statistical-multiplexing motivation, and
// a paced transport that carries a smoothed stream over any net.Conn.
package mpegsmooth

import (
	"fmt"
	"io"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/trace"
)

// Re-exported core types. The aliases keep the implementation in
// internal/ packages while presenting one import path to users.
type (
	// Trace is a picture-size trace: the S_1, S_2, ... sequence the
	// algorithm smooths, with its GOP pattern and picture period.
	Trace = trace.Trace
	// SynthConfig parameterizes synthetic trace generation.
	SynthConfig = trace.SynthConfig
	// ScenePhase is one scene segment of a synthetic trace.
	ScenePhase = trace.ScenePhase
	// MarkovConfig parameterizes a Markov-modulated source model.
	MarkovConfig = trace.MarkovConfig
	// MarkovState is one activity state of a Markov-modulated source.
	MarkovState = trace.MarkovState
	// TypeStats summarizes picture sizes for one picture type.
	TypeStats = trace.TypeStats

	// GOP is the repeating picture-type pattern (M, N).
	GOP = mpeg.GOP
	// PictureType is I, P, or B.
	PictureType = mpeg.PictureType

	// Config parameterizes the smoothing algorithm (K, D, H, policy,
	// estimator).
	Config = core.Config
	// Schedule is a smoothing run's result: per-picture rates and timing.
	Schedule = core.Schedule
	// Policy owns rate selection within the Theorem 1 band the decision
	// kernel accumulates; implement it to add a new selection rule.
	// Select receives pointers to the kernel's own Bounds and State:
	// read them during the call only, and never retain them.
	Policy = core.Policy
	// Bounds is the accumulated Theorem 1 band; Policy.Select gets a
	// pointer to the kernel's copy, refilled for every picture.
	Bounds = core.Bounds
	// State is the per-decision context; Policy.Select gets a pointer
	// to the kernel's copy, refilled for every picture.
	State = core.State
	// BasicPolicy holds the previous rate (fewest rate changes).
	BasicPolicy = core.BasicPolicy
	// MovingAveragePolicy tracks the pattern moving average (Eq. 15).
	MovingAveragePolicy = core.MovingAveragePolicy
	// CappedRate enforces a hard bits/second ceiling, reporting the
	// bound violations the cap makes unavoidable.
	CappedRate = core.CappedRate
	// MinimumVariability centres the rate within the feasible band.
	MinimumVariability = core.MinimumVariability
	// Estimator predicts sizes of pictures that have not arrived.
	Estimator = core.Estimator
	// View is what an estimator may observe at a point in time.
	// Estimator.Estimate gets a pointer to the kernel's View, refilled
	// for every picture: read it during the call only, and never
	// retain it.
	View = core.View
	// PatternEstimator is the paper's S_{j−N} estimator.
	PatternEstimator = core.PatternEstimator
	// NearestTypeEstimator generalizes S_{j−N} to adaptive patterns.
	NearestTypeEstimator = core.NearestTypeEstimator
	// TypeMeanEstimator predicts the running same-type mean.
	TypeMeanEstimator = core.TypeMeanEstimator
	// EWMAEstimator predicts a same-type exponential moving average.
	EWMAEstimator = core.EWMAEstimator
	// OracleEstimator cheats with the true size (experimental bound).
	OracleEstimator = core.OracleEstimator
	// OfflineSchedule is the offline-optimal (taut string) schedule.
	OfflineSchedule = core.OfflineSchedule
	// Session is the unified incremental driver around the decision
	// kernel: push sizes, collect decisions, observe each one.
	Session = core.Session
	// SessionOption configures a Session at construction.
	SessionOption = core.SessionOption
	// Observer is a per-decision hook on a Session.
	Observer = core.Observer
	// Observation is the measurement handed to an Observer.
	Observation = core.Observation
	// Decision is one live rate decision.
	Decision = core.Decision
	// DecisionStats accumulates Observer output into summary statistics.
	DecisionStats = metrics.DecisionStats

	// Measures bundles the paper's four smoothness measures.
	Measures = metrics.Measures
	// StepFunc is a piecewise-constant rate function of time.
	StepFunc = metrics.StepFunc
	// DelayStats summarizes per-picture delays against a bound.
	DelayStats = metrics.DelayStats
)

// Picture types.
const (
	TypeI = mpeg.TypeI
	TypeP = mpeg.TypeP
	TypeB = mpeg.TypeB
)

// ParsePolicy parses a command-line policy specification: basic,
// moving-average, capped:<bps>, or min-var.
func ParsePolicy(spec string) (Policy, error) { return core.ParsePolicy(spec) }

// Smooth runs the smoothing algorithm over a trace.
func Smooth(tr *Trace, cfg Config) (*Schedule, error) { return core.Smooth(tr, cfg) }

// SmoothObserved is Smooth with a per-decision Observer hook.
func SmoothObserved(tr *Trace, cfg Config, obs Observer) (*Schedule, error) {
	return core.SmoothObserved(tr, cfg, obs)
}

// SmoothAll smooths independent traces concurrently on a worker pool of
// the given parallelism (<= 0 means GOMAXPROCS), returning one schedule
// per trace in input order. Results are bit-for-bit identical at any
// parallelism.
func SmoothAll(traces []*Trace, cfg Config, parallelism int) ([]*Schedule, error) {
	return core.SmoothAll(traces, cfg, parallelism)
}

// NewDecisionStats returns an empty per-decision statistics collector,
// meant to be fed from a Session Observer.
func NewDecisionStats() *DecisionStats { return metrics.NewDecisionStats() }

// Ideal computes the ideal per-pattern smoothing of Section 3.2.
func Ideal(tr *Trace) (*Schedule, error) { return core.Ideal(tr) }

// PiecewiseCBR generalizes ideal smoothing to an arbitrary averaging
// window (PCRTT-style): window = N is Ideal; larger windows are smoother
// but buffer longer; no per-picture delay bound is enforced.
func PiecewiseCBR(tr *Trace, window int) (*Schedule, error) {
	return core.PiecewiseCBR(tr, window)
}

// OfflineSmooth computes the offline-optimal schedule with all sizes
// known a priori (the Ott et al. setting), as a taut string through the
// arrival/deadline corridor.
func OfflineSmooth(tr *Trace, d float64) (*OfflineSchedule, error) {
	return core.OfflineSmooth(tr, d)
}

// NewSession prepares the unified incremental smoothing driver: sizes
// are pushed as the encoder produces them, decisions emerge as soon as
// they are determined, and an optional WithObserver hook sees each one.
// It computes exactly the schedule Smooth would.
func NewSession(tau float64, gop GOP, cfg Config, opts ...SessionOption) (*Session, error) {
	return core.NewSession(tau, gop, cfg, opts...)
}

// WithObserver installs a per-decision observer hook on a Session.
func WithObserver(o Observer) SessionOption { return core.WithObserver(o) }

// WithLength declares a Session's sequence length (n <= 0: unknown). A
// declared length is binding, and it lets each decision be made as soon
// as Theorem 1's inputs have arrived instead of waiting for the whole
// H-picture lookahead window.
func WithLength(n int) SessionOption { return core.WithLength(n) }

// The four MPEG video sequences of the paper's Section 5.1, reconstructed
// as deterministic calibrated generators (see DESIGN.md §2).

// Driving1 is the Driving video coded IBBPBBPBB (N=9, M=3) at 640x480.
func Driving1(pictures int, seed int64) (*Trace, error) { return trace.Driving1(pictures, seed) }

// Driving2 is the Driving video coded IBPBPB (N=6, M=2).
func Driving2(pictures int, seed int64) (*Trace, error) { return trace.Driving2(pictures, seed) }

// Tennis is the Tennis video (N=9, M=3): one scene with ramping motion.
func Tennis(pictures int, seed int64) (*Trace, error) { return trace.Tennis(pictures, seed) }

// Backyard is the Backyard video (N=12, M=3) at 352x288.
func Backyard(pictures int, seed int64) (*Trace, error) { return trace.Backyard(pictures, seed) }

// PaperSequences returns all four sequences in the paper's order.
func PaperSequences(pictures int, seed int64) ([]*Trace, error) {
	return trace.PaperSequences(pictures, seed)
}

// GenerateTrace produces a synthetic trace from a scene script.
func GenerateTrace(cfg SynthConfig) (*Trace, error) { return trace.Generate(cfg) }

// ConcatTraces joins pattern-aligned traces end to end.
func ConcatTraces(name string, traces ...*Trace) (*Trace, error) {
	return trace.Concat(name, traces...)
}

// GenerateMarkovTrace produces a Markov-modulated trace: scene activity
// follows a state chain with geometric dwell times, the source model the
// VBR multiplexing literature uses.
func GenerateMarkovTrace(cfg MarkovConfig) (*Trace, error) {
	return trace.GenerateMarkov(cfg)
}

// ReadTraceCSV parses a trace written by Trace.WriteCSV.
func ReadTraceCSV(r io.Reader) (*Trace, error) { return trace.ReadCSV(r) }

// TraceFromPictureSizes builds a trace from encoder or inspector output.
func TraceFromPictureSizes(name string, tau float64, gop GOP, sizes []int64) (*Trace, error) {
	return trace.FromPictureSizes(name, tau, gop, sizes)
}

// RawRateFunc returns the unsmoothed rate function of a trace: picture j
// transmitted at S_j/τ during its own picture period.
func RawRateFunc(tr *Trace) (*StepFunc, error) {
	times := make([]float64, tr.Len())
	values := make([]float64, tr.Len())
	for j := 0; j < tr.Len(); j++ {
		times[j] = float64(j) * tr.Tau
		values[j] = float64(tr.Sizes[j]) / tr.Tau
	}
	return metrics.NewStepFunc(times, values, tr.Duration())
}

// Evaluate computes the paper's four smoothness measures for a schedule,
// comparing its rate function against ideal smoothing with the (N−K)τ
// alignment of Eq. 16.
func Evaluate(s *Schedule) (Measures, error) { return s.Evaluate() }

// SummarizeDelays computes delay statistics for a schedule against its
// configured bound.
func SummarizeDelays(s *Schedule) DelayStats {
	return metrics.SummarizeDelays(s.Delays, s.Config.D)
}

// Verify runs every Theorem 1 invariant check on a schedule and returns
// an error naming the first violation, or nil. For K ≥ 1 and
// D ≥ (K+1)τ, Theorem 1 guarantees this always returns nil.
func Verify(s *Schedule) error {
	if i := s.CheckDelayBound(); i != -1 {
		return fmt.Errorf("mpegsmooth: delay bound violated at picture %d (%.4fs > %.4fs)", i, s.Delays[i], s.Config.D)
	}
	if i := s.CheckContinuousService(); i != -1 {
		return fmt.Errorf("mpegsmooth: continuous service violated at picture %d", i)
	}
	if i := s.CheckRatesWithinBounds(); i != -1 {
		return fmt.Errorf("mpegsmooth: rate outside Theorem 1 bounds at picture %d", i)
	}
	if i := s.CheckConservation(); i != -1 {
		return fmt.Errorf("mpegsmooth: bit conservation violated at picture %d", i)
	}
	if i := s.CheckCausality(); i != -1 {
		return fmt.Errorf("mpegsmooth: causality violated at picture %d", i)
	}
	return nil
}
