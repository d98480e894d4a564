// Package experiments reproduces every figure of the paper's evaluation
// (Section 5, Figures 3–8) plus the extension experiments listed in
// DESIGN.md, as pure functions returning data series. cmd/experiments
// renders them to CSV and console tables; bench_test.go times them.
//
// All experiments run at 30 pictures/s (τ = 1/30 s), as in the paper.
package experiments

import (
	"fmt"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/trace"
)

// DefaultPictures is the trace length used when regenerating figures:
// 270 pictures = 9 seconds, comparable to the paper's sequences
// (their time axes run to about 10 seconds).
const DefaultPictures = 270

// DefaultSeed keeps every regenerated figure deterministic.
const DefaultSeed = 1994

// Sequences returns the four experimental MPEG sequences.
func Sequences(pictures int, seed int64) ([]*trace.Trace, error) {
	return trace.PaperSequences(pictures, seed)
}

// SweepOption adjusts how a parameter sweep runs: the rate-selection
// policy under test and the batch parallelism.
type SweepOption func(*sweepConfig)

type sweepConfig struct {
	policy      core.Policy
	parallelism int
}

// WithPolicy runs a sweep under a rate-selection policy other than the
// default BasicPolicy.
func WithPolicy(p core.Policy) SweepOption {
	return func(c *sweepConfig) { c.policy = p }
}

// WithParallelism sets the SmoothAll worker count for a sweep
// (<= 0 means GOMAXPROCS). The results are identical at any setting.
func WithParallelism(n int) SweepOption {
	return func(c *sweepConfig) { c.parallelism = n }
}

func applySweepOptions(opts []SweepOption) sweepConfig {
	var c sweepConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// MeasuresFor runs the algorithm with cfg and evaluates the paper's four
// measures against ideal smoothing (Eq. 16 alignment).
func MeasuresFor(tr *trace.Trace, cfg core.Config) (metrics.Measures, *core.Schedule, error) {
	s, err := core.Smooth(tr, cfg)
	if err != nil {
		return metrics.Measures{}, nil, err
	}
	m, err := s.Evaluate()
	if err != nil {
		return metrics.Measures{}, nil, err
	}
	return m, s, nil
}

// batchMeasures smooths every trace under one configuration on the
// SmoothAll worker pool and evaluates the four measures per trace.
func batchMeasures(traces []*trace.Trace, cfg core.Config, parallelism int) ([]metrics.Measures, error) {
	scheds, err := core.SmoothAll(traces, cfg, parallelism)
	if err != nil {
		return nil, err
	}
	out := make([]metrics.Measures, len(scheds))
	for i, s := range scheds {
		m, err := s.Evaluate()
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Figure3 regenerates the trace-characteristics figure: picture size vs
// picture number for Driving1 and Tennis.
func Figure3(pictures int, seed int64) ([]*trace.Trace, error) {
	d1, err := trace.Driving1(pictures, seed)
	if err != nil {
		return nil, err
	}
	tn, err := trace.Tennis(pictures, seed)
	if err != nil {
		return nil, err
	}
	return []*trace.Trace{d1, tn}, nil
}

// Fig4Series is one panel of Figure 4: the smoothed rate function r(t)
// for one delay bound, with the ideal reference R(t).
type Fig4Series struct {
	D        float64
	Rate     *metrics.StepFunc
	Ideal    *metrics.StepFunc
	Measures metrics.Measures
}

// Figure4 regenerates rate-vs-time for Driving1 with K=1, H=9 across
// four delay bounds (the paper names 0.1, 0.2, and 0.3 s; the fourth
// panel's caption is garbled in the source, so 0.15 s completes the
// sweep bracketing them).
func Figure4(pictures int, seed int64) ([]Fig4Series, error) {
	tr, err := trace.Driving1(pictures, seed)
	if err != nil {
		return nil, err
	}
	ideal, err := core.Ideal(tr)
	if err != nil {
		return nil, err
	}
	idf, err := ideal.RateFunc()
	if err != nil {
		return nil, err
	}
	var out []Fig4Series
	for _, d := range []float64{0.1, 0.15, 0.2, 0.3} {
		cfg := core.Config{K: 1, H: 9, D: d}
		m, s, err := MeasuresFor(tr, cfg)
		if err != nil {
			return nil, err
		}
		rf, err := s.RateFunc()
		if err != nil {
			return nil, err
		}
		out = append(out, Fig4Series{D: d, Rate: rf, Ideal: idf, Measures: m})
	}
	return out, nil
}

// Fig5Result holds the per-picture delay comparisons of Figure 5.
type Fig5Result struct {
	// Left graph: basic algorithm at two delay bounds vs ideal.
	DelaysD01   []float64 // D = 0.1, K = 1, H = 9
	DelaysD03   []float64 // D = 0.3, K = 1, H = 9
	DelaysIdeal []float64
	// Right graph: K = 1 vs K = 9 at D = 0.1333 + (K+1)/30, H = 9.
	DelaysK1 []float64
	DelaysK9 []float64
}

// Figure5 regenerates the delay comparisons for Driving1.
func Figure5(pictures int, seed int64) (*Fig5Result, error) {
	tr, err := trace.Driving1(pictures, seed)
	if err != nil {
		return nil, err
	}
	out := &Fig5Result{}
	for _, c := range []struct {
		dst *[]float64
		cfg core.Config
	}{
		{&out.DelaysD01, core.Config{K: 1, H: 9, D: 0.1}},
		{&out.DelaysD03, core.Config{K: 1, H: 9, D: 0.3}},
		{&out.DelaysK1, core.Config{K: 1, H: 9, D: 0.1333 + 2.0/30}},
		{&out.DelaysK9, core.Config{K: 9, H: 9, D: 0.1333 + 10.0/30}},
	} {
		s, err := core.Smooth(tr, c.cfg)
		if err != nil {
			return nil, err
		}
		*c.dst = s.Delays
	}
	ideal, err := core.Ideal(tr)
	if err != nil {
		return nil, err
	}
	out.DelaysIdeal = ideal.Delays
	return out, nil
}

// SweepRow is one point of a Figure 6/7/8 parameter sweep.
type SweepRow struct {
	Sequence string
	X        float64 // the swept parameter value (D seconds, H or K pictures)
	Measures metrics.Measures
}

// Figure6 sweeps the delay bound D with K=1, H=N for all four sequences.
// Each D value is one SmoothAll batch: the four sequences smooth in
// parallel under the shared configuration (H=0 resolves to each trace's
// pattern length).
func Figure6(pictures int, seed int64, opts ...SweepOption) ([]SweepRow, error) {
	sc := applySweepOptions(opts)
	seqs, err := Sequences(pictures, seed)
	if err != nil {
		return nil, err
	}
	// D from just above (K+1)τ = 2/30 up to 0.3 s, as in the figure.
	ds := []float64{0.0667, 0.1, 0.1333, 0.1667, 0.2, 0.2333, 0.2667, 0.3}
	bySeq := make([][]SweepRow, len(seqs))
	for _, d := range ds {
		ms, err := batchMeasures(seqs, core.Config{K: 1, H: 0, D: d, Policy: sc.policy}, sc.parallelism)
		if err != nil {
			return nil, fmt.Errorf("D=%v: %w", d, err)
		}
		for i, tr := range seqs {
			bySeq[i] = append(bySeq[i], SweepRow{Sequence: tr.Name, X: d, Measures: ms[i]})
		}
	}
	return flattenRows(bySeq), nil
}

// Figure7 sweeps the lookahead H with D=0.2, K=1 for all four sequences.
// Each H value batches the sequences whose sweep range (1..2N) reaches
// it through SmoothAll.
func Figure7(pictures int, seed int64, opts ...SweepOption) ([]SweepRow, error) {
	sc := applySweepOptions(opts)
	seqs, err := Sequences(pictures, seed)
	if err != nil {
		return nil, err
	}
	maxH := 0
	for _, tr := range seqs {
		if 2*tr.GOP.N > maxH {
			maxH = 2 * tr.GOP.N
		}
	}
	bySeq := make([][]SweepRow, len(seqs))
	for h := 1; h <= maxH; h++ {
		var batch []*trace.Trace
		var idx []int
		for i, tr := range seqs {
			if h <= 2*tr.GOP.N {
				batch = append(batch, tr)
				idx = append(idx, i)
			}
		}
		ms, err := batchMeasures(batch, core.Config{K: 1, H: h, D: 0.2, Policy: sc.policy}, sc.parallelism)
		if err != nil {
			return nil, fmt.Errorf("H=%d: %w", h, err)
		}
		for b, i := range idx {
			bySeq[i] = append(bySeq[i], SweepRow{Sequence: seqs[i].Name, X: float64(h), Measures: ms[b]})
		}
	}
	return flattenRows(bySeq), nil
}

// Figure8 sweeps K with D = 0.1333 + (K+1)/30 (constant slack 0.1333 s)
// and H = N for all four sequences, one SmoothAll batch per K.
func Figure8(pictures int, seed int64, opts ...SweepOption) ([]SweepRow, error) {
	sc := applySweepOptions(opts)
	seqs, err := Sequences(pictures, seed)
	if err != nil {
		return nil, err
	}
	bySeq := make([][]SweepRow, len(seqs))
	for k := 1; k <= 12; k++ {
		d := 0.1333 + float64(k+1)/30
		ms, err := batchMeasures(seqs, core.Config{K: k, H: 0, D: d, Policy: sc.policy}, sc.parallelism)
		if err != nil {
			return nil, fmt.Errorf("K=%d: %w", k, err)
		}
		for i, tr := range seqs {
			bySeq[i] = append(bySeq[i], SweepRow{Sequence: tr.Name, X: float64(k), Measures: ms[i]})
		}
	}
	return flattenRows(bySeq), nil
}

// flattenRows serializes per-sequence row groups into the sequence-major
// order the CSV outputs have always used.
func flattenRows(bySeq [][]SweepRow) []SweepRow {
	var rows []SweepRow
	for _, g := range bySeq {
		rows = append(rows, g...)
	}
	return rows
}
