package core

import (
	"fmt"
	"math"

	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/trace"
)

// Ideal computes the ideal smoothing of Section 3.2: pictures are grouped
// into pattern-aligned blocks of N, each block is transmitted at its
// average rate ΣS/(Nτ), and a block may begin transmission only after all
// of its pictures have arrived (and the previous block has departed).
//
// Ideal smoothing is the offline reference R(t) the paper compares
// against. Its drawbacks motivate the online algorithm: the first picture
// of each pattern waits for the whole pattern to be encoded, so picture
// delays are large, and no per-picture delay bound is enforced.
func Ideal(tr *trace.Trace) (*Schedule, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return PiecewiseCBR(tr, tr.GOP.N)
}

// PiecewiseCBR generalizes ideal smoothing to an arbitrary averaging
// window: pictures are grouped into blocks of window pictures, each sent
// at its average rate once fully arrived — the piecewise constant-rate
// transmission family from the smoothing literature. window = N gives
// the paper's ideal smoothing; window = 1 degenerates to raw per-picture
// transmission; window = Len gives a single CBR rate (smoothest
// possible, with the largest buffering delay). No per-picture delay
// bound is enforced: the first picture of each window waits for the
// whole window to be encoded.
func PiecewiseCBR(tr *trace.Trace, window int) (*Schedule, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if window < 1 {
		return nil, fmt.Errorf("core: window %d < 1", window)
	}
	n := tr.Len()
	tau := tr.Tau
	s := &Schedule{
		Trace: tr,
		Config: Config{
			K: window,
			H: window,
			D: math.Inf(1), // no delay bound is enforced
		},
		Rates:      make([]float64, n),
		Start:      make([]float64, n),
		Depart:     make([]float64, n),
		Delays:     make([]float64, n),
		LowerBound: make([]float64, n),
		UpperBound: make([]float64, n),
	}
	piecewiseCBR(tr.Sizes, tau, window, s.Start, s.Rates)
	for j, start := range s.Start {
		// piecewiseCBR's clock steps by this same sum, so Depart[j] is
		// its time after picture j, bit for bit.
		s.Depart[j] = start + float64(tr.Sizes[j])/s.Rates[j]
		s.Delays[j] = s.Depart[j] - float64(j)*tau
		s.UpperBound[j] = math.Inf(1)
	}
	return s, nil
}

// piecewiseCBR fills start and rates, one entry per picture, with
// piecewise-CBR transmission of sizes in blocks of window pictures and
// returns the time the last bit leaves.
func piecewiseCBR(sizes []int64, tau float64, window int, start, rates []float64) float64 {
	n := len(sizes)
	depart := 0.0
	for from := 0; from < n; from += window {
		to := min(from+window, n)
		var sum float64
		for j := from; j < to; j++ {
			sum += float64(sizes[j])
		}
		rate := sum / (float64(to-from) * tau)
		// The last picture of the block arrives by (to)τ in 0-based
		// indexing; the block starts after that and after the previous
		// block drains.
		t := max(depart, float64(to)*tau)
		for j := from; j < to; j++ {
			rates[j] = rate
			start[j] = t
			t += float64(sizes[j]) / rate
		}
		depart = t
	}
	return depart
}

// idealRateFunc is Ideal(tr).RateFunc(), ideal smoothing's R(t), read
// straight from the trace: it builds the starts and rates of the step
// function and no Schedule around them.
func idealRateFunc(tr *trace.Trace) (*metrics.StepFunc, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	n := tr.Len()
	buf := make([]float64, 2*n)
	start, rates := buf[:n:n], buf[n:]
	end := piecewiseCBR(tr.Sizes, tr.Tau, tr.GOP.N, start, rates)
	return rateFunc(start, rates, end)
}
