package core

import (
	"mpegsmooth/internal/mpeg"
)

// View exposes to an estimator exactly what is observable at a given
// wall-clock time: the sizes of pictures that have finished encoding, and
// the repeating GOP pattern. Estimators must not peek at unarrived sizes
// (the Oracle estimator, used only as an experimental upper bound,
// deliberately cheats through a separate path).
//
// A View holds the prefix of picture sizes the system has learned so far
// — the whole trace for offline smoothing, the pushed prefix for a live
// Session — plus how many of them count as "arrived" at the observation
// time. The kernel hands its estimator a pointer to the one View it
// refills for every decision: the View is read-only, valid only during
// the Estimate call, and must not be retained.
type View struct {
	tau     float64
	gop     mpeg.GOP
	types   []mpeg.PictureType // explicit per-picture types; nil = follow gop
	sizes   []int64
	arrived int // sizes[:arrived] have arrived at the observation time
}

// at points the view at the learned sizes as observed at time now.
func (v *View) at(sizes []int64, now float64) {
	v.sizes = sizes
	v.arrived = arrivals(now, v.tau, len(sizes))
}

// arrivals counts the pictures among the first n that have fully
// arrived (been encoded) by time now. The S_i bits of picture i arrive
// during (iτ, (i+1)τ] in 0-based indexing, so picture i has arrived
// once (i+1)τ ≤ now; (i+1)τ rounds monotonically in i, so the arrived
// pictures are a prefix. This is the kernel's only arrival test: the
// estimator's View and a live Session's wait for that View both count
// through it, so live and offline views agree bit for bit.
func arrivals(now, tau float64, n int) int {
	if n <= 0 || !(now >= tau) { // also false for a NaN now
		return 0
	}
	if now >= float64(n)*tau {
		return n
	}
	c := int(now / tau) // off by at most one; now < nτ keeps it in range
	for c < n && float64(c+1)*tau <= now {
		c++
	}
	for c > 0 && float64(c)*tau > now {
		c--
	}
	return c
}

// Len returns the number of pictures whose sizes the system has learned
// (arrived or not). Arrivals are always a prefix of this.
func (v *View) Len() int { return len(v.sizes) }

// Tau returns the picture period.
func (v *View) Tau() float64 { return v.tau }

// N returns the pattern length.
func (v *View) N() int { return v.gop.N }

// Type returns the picture type at display index j: the explicit type
// when the trace carries one (adaptive-pattern encoders), otherwise the
// repeating pattern's. Types of future pictures come from the pattern —
// the paper's premise that the type sequence is known a priori.
func (v *View) Type(j int) mpeg.PictureType {
	if v.types != nil && j >= 0 && j < len(v.types) {
		return v.types[j]
	}
	return v.gop.TypeOf(j)
}

// Arrived reports whether picture j has fully arrived (encoded) at the
// view's time: the S_j bits arrive during ((j)τ, (j+1)τ] in 0-based
// indexing.
func (v *View) Arrived(j int) bool {
	return j >= 0 && j < v.arrived
}

// Size returns the actual size of picture j if it has arrived.
func (v *View) Size(j int) (int64, bool) {
	if !v.Arrived(j) {
		return 0, false
	}
	return v.sizes[j], true
}

// Estimator predicts the size of a picture that has not yet arrived.
type Estimator interface {
	// Estimate returns the predicted size in bits of picture j (which has
	// not arrived in view v). v points at the kernel's per-decision
	// View: read it during the call only, and never retain it.
	Estimate(j int, v *View) int64
	// Name identifies the estimator in experiment output.
	Name() string
}

// DefaultInitialSizes are the paper's initial estimates for the start of
// a sequence, before a full pattern has been observed: "each I picture is
// estimated to be 200,000 bits, each P picture 100,000 bits, and each B
// picture 20,000 bits. These estimates are far from being accurate for
// some video sequences. But by Theorem 1, they do not need to be."
var DefaultInitialSizes = map[mpeg.PictureType]int64{
	mpeg.TypeI: 200_000,
	mpeg.TypeP: 100_000,
	mpeg.TypeB: 20_000,
}

// NearestTypeEstimator predicts the size of the most recently arrived
// picture of the same type — the natural generalization of the paper's
// S_{j−N} estimator to adaptive-pattern streams, where "one pattern
// earlier" is undefined. For fixed patterns it differs from
// PatternEstimator only for B and P pictures adjacent to a same-type
// neighbour.
type NearestTypeEstimator struct {
	// Initial overrides DefaultInitialSizes when non-nil.
	Initial map[mpeg.PictureType]int64
}

// Name implements Estimator.
func (NearestTypeEstimator) Name() string { return "nearest-type" }

// Estimate implements Estimator.
func (e NearestTypeEstimator) Estimate(j int, v *View) int64 {
	ty := v.Type(j)
	start := j - 1
	if start >= v.Len() {
		start = v.Len() - 1
	}
	for jj := start; jj >= 0; jj-- {
		if v.Type(jj) != ty {
			continue
		}
		if s, ok := v.Size(jj); ok {
			return s
		}
	}
	init := e.Initial
	if init == nil {
		init = DefaultInitialSizes
	}
	return init[ty]
}

// PatternEstimator is the paper's estimator: the size of picture j is
// estimated as S_{j−N} — the most recent picture of the same type, one
// pattern earlier — falling back to per-type initial estimates at the
// start of the sequence. "They are about the same size unless there is a
// scene change in the picture sequence from j−N to j."
type PatternEstimator struct {
	// Initial overrides DefaultInitialSizes when non-nil.
	Initial map[mpeg.PictureType]int64
}

// Name implements Estimator.
func (PatternEstimator) Name() string { return "pattern" }

// Estimate implements Estimator.
func (e PatternEstimator) Estimate(j int, v *View) int64 {
	for jj := j - v.N(); jj >= 0; jj -= v.N() {
		if s, ok := v.Size(jj); ok {
			return s
		}
	}
	init := e.Initial
	if init == nil {
		init = DefaultInitialSizes
	}
	return init[v.Type(j)]
}

// TypeMeanEstimator predicts the running mean size of all arrived
// pictures of the same type — an ablation alternative that adapts more
// slowly to scene changes but is robust to outliers.
type TypeMeanEstimator struct{}

// Name implements Estimator.
func (TypeMeanEstimator) Name() string { return "type-mean" }

// Estimate implements Estimator.
func (TypeMeanEstimator) Estimate(j int, v *View) int64 {
	ty := v.Type(j)
	var sum, n int64
	for jj := 0; jj < v.Len(); jj++ {
		if v.Type(jj) != ty {
			continue
		}
		s, ok := v.Size(jj)
		if !ok {
			break // arrivals are prefix-closed; nothing later has arrived
		}
		sum += s
		n++
	}
	if n == 0 {
		return DefaultInitialSizes[ty]
	}
	return sum / n
}

// EWMAEstimator predicts an exponentially weighted moving average of
// arrived same-type sizes: faster to adapt than the plain mean, smoother
// than the pattern estimator.
type EWMAEstimator struct {
	// Alpha is the smoothing factor in (0, 1]; 0 defaults to 0.5.
	Alpha float64
}

// Name implements Estimator.
func (EWMAEstimator) Name() string { return "ewma" }

// Estimate implements Estimator.
func (e EWMAEstimator) Estimate(j int, v *View) int64 {
	alpha := e.Alpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	ty := v.Type(j)
	est := float64(DefaultInitialSizes[ty])
	seen := false
	for jj := 0; jj < v.Len(); jj++ {
		if v.Type(jj) != ty {
			continue
		}
		s, ok := v.Size(jj)
		if !ok {
			break
		}
		if !seen {
			est = float64(s)
			seen = true
			continue
		}
		est = alpha*float64(s) + (1-alpha)*est
	}
	return int64(est)
}

// OracleEstimator returns the true future size — physically unrealizable,
// used only to bound how much better a perfect predictor could do
// (experiment Ext C). It is offline-only: it reads the sizes the View
// holds beyond its arrivals, so a Session given WithLength, which
// decides before the window's sizes are pushed, sees 0 for them and
// departs from the offline schedule.
type OracleEstimator struct{}

// Name implements Estimator.
func (OracleEstimator) Name() string { return "oracle" }

// Estimate implements Estimator.
func (OracleEstimator) Estimate(j int, v *View) int64 {
	if j >= 0 && j < len(v.sizes) {
		return v.sizes[j]
	}
	return 0
}
