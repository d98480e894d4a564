// Package metrics provides exact piecewise-constant function arithmetic
// and the four smoothness measures the paper uses to evaluate its
// algorithm (Section 5.2): area difference, number of rate changes,
// maximum rate, and the standard deviation of the rate function over time.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// StepFunc is a right-continuous piecewise-constant function of time:
// f(t) = Values[k] for Times[k] <= t < Times[k+1], and 0 outside
// [Times[0], End). Times must be strictly increasing.
type StepFunc struct {
	Times  []float64 // segment start times, strictly increasing
	Values []float64 // len(Values) == len(Times)
	End    float64   // end of the final segment
}

// NewStepFunc validates and constructs a step function. The ordering
// checks negate the increasing test, so a NaN time or end fails them.
func NewStepFunc(times, values []float64, end float64) (*StepFunc, error) {
	if len(times) == 0 || len(times) != len(values) {
		return nil, fmt.Errorf("metrics: %d times vs %d values", len(times), len(values))
	}
	for i := 1; i < len(times); i++ {
		if !(times[i] > times[i-1]) {
			return nil, fmt.Errorf("metrics: times not increasing at %d (%v, %v)", i, times[i-1], times[i])
		}
	}
	if !(end > times[len(times)-1]) {
		return nil, fmt.Errorf("metrics: end %v not after last time %v", end, times[len(times)-1])
	}
	return &StepFunc{Times: times, Values: values, End: end}, nil
}

// At evaluates f(t).
func (f *StepFunc) At(t float64) float64 {
	if t < f.Times[0] || t >= f.End {
		return 0
	}
	// Index of the last segment starting at or before t.
	k := sort.SearchFloat64s(f.Times, t)
	if k == len(f.Times) || f.Times[k] > t {
		k--
	}
	return f.Values[k]
}

// Integral returns ∫ f dt over the function's support.
func (f *StepFunc) Integral() float64 {
	var sum float64
	for k, v := range f.Values {
		end := f.End
		if k+1 < len(f.Times) {
			end = f.Times[k+1]
		}
		sum += v * (end - f.Times[k])
	}
	return sum
}

// Max returns the maximum value attained.
func (f *StepFunc) Max() float64 {
	max := math.Inf(-1)
	for _, v := range f.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the time-weighted mean over the support [Times[0], End).
func (f *StepFunc) Mean() float64 {
	dur := f.End - f.Times[0]
	if dur <= 0 {
		return 0
	}
	return f.Integral() / dur
}

// Std returns the time-weighted standard deviation over the support.
func (f *StepFunc) Std() float64 {
	mean := f.Mean()
	var sum float64
	for k, v := range f.Values {
		end := f.End
		if k+1 < len(f.Times) {
			end = f.Times[k+1]
		}
		d := v - mean
		sum += d * d * (end - f.Times[k])
	}
	dur := f.End - f.Times[0]
	if dur <= 0 {
		return 0
	}
	return math.Sqrt(sum / dur)
}

// Changes returns the number of value changes between consecutive
// segments, treating values within rel relative tolerance as equal.
func (f *StepFunc) Changes(rel float64) int {
	n := 0
	for k := 1; k < len(f.Values); k++ {
		if !approxEqual(f.Values[k], f.Values[k-1], rel) {
			n++
		}
	}
	return n
}

func approxEqual(a, b, rel float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*scale
}

// Shift returns f translated right by dt: g(t) = f(t - dt).
func (f *StepFunc) Shift(dt float64) *StepFunc {
	times := make([]float64, len(f.Times))
	for i, t := range f.Times {
		times[i] = t + dt
	}
	return &StepFunc{Times: times, Values: append([]float64(nil), f.Values...), End: f.End + dt}
}

// Compact merges adjacent segments with exactly equal values.
func (f *StepFunc) Compact() *StepFunc {
	times := []float64{f.Times[0]}
	values := []float64{f.Values[0]}
	for k := 1; k < len(f.Times); k++ {
		if f.Values[k] != values[len(values)-1] {
			times = append(times, f.Times[k])
			values = append(values, f.Values[k])
		}
	}
	return &StepFunc{Times: times, Values: values, End: f.End}
}

// PositiveAreaDiff computes ∫ [f(t) - g(t)]⁺ dt over [from, to), the
// numerator of the paper's area-difference measure (Eq. 16). Both
// functions are evaluated as 0 outside their support.
func PositiveAreaDiff(f, g *StepFunc, from, to float64) (float64, error) {
	if to <= from {
		return 0, errEmptyInterval
	}
	return positiveAreaDiff(&cursor{f: f}, &cursor{f: g}, from, to), nil
}

// IntegralOver computes ∫ f dt over [from, to), evaluating f as 0 outside
// its support.
func IntegralOver(f *StepFunc, from, to float64) (float64, error) {
	if to <= from {
		return 0, errEmptyInterval
	}
	return integralOver(&cursor{f: f}, from, to), nil
}

var errEmptyInterval = errors.New("metrics: empty interval")

// positiveAreaDiff is PositiveAreaDiff over two cursors, for from < to.
// Like integralOver, it cuts [from, to) at every breakpoint inside it,
// found by merging the cursors' breakpoints, and sums gap by gap in
// ascending order the integrand read at each gap's midpoint (a+b)/2.
// The cuts, the order of the sum, the midpoint and At's tie rule decide
// the result's float bits; the tests hold both integrals to that
// definition bit for bit.
func positiveAreaDiff(f, g *cursor, from, to float64) float64 {
	var sum float64
	for a := from; a < to; {
		b := to
		if c := f.cutAfter(a); c < b {
			b = c
		}
		if c := g.cutAfter(a); c < b {
			b = c
		}
		mid := (a + b) / 2
		if d := f.at(mid) - g.at(mid); d > 0 {
			sum += d * (b - a)
		}
		a = b
	}
	return sum
}

// integralOver is IntegralOver over a cursor, for from < to.
func integralOver(f *cursor, from, to float64) float64 {
	var sum float64
	for a := from; a < to; {
		b := to
		if c := f.cutAfter(a); c < b {
			b = c
		}
		sum += f.at((a+b)/2) * (b - a)
		a = b
	}
	return sum
}

// cursor reads f translated right by dt, as f.Shift(dt) would hold it
// (breakpoints Times[k]+dt and End+dt), without copying f. Both of its
// methods only move forward: successive calls must pass non-decreasing
// times.
type cursor struct {
	f    *StepFunc
	dt   float64
	next int // Times before next are at or before the last cutAfter's t
	lo   int // Times before lo lie strictly before the last at's t
}

// cutAfter returns the first breakpoint after t, or +Inf.
func (c *cursor) cutAfter(t float64) float64 {
	n := len(c.f.Times)
	for ; c.next < n; c.next++ {
		if x := c.f.Times[c.next] + c.dt; x > t {
			return x
		}
	}
	if end := c.f.End + c.dt; end > t {
		return end
	}
	return math.Inf(1)
}

// at returns the value At(t) gives on the translated function. Where
// rounding in the translation made breakpoints equal, the first of them
// owns t, as sort.SearchFloat64s finds it.
func (c *cursor) at(t float64) float64 {
	times := c.f.Times
	if t < times[0]+c.dt || t >= c.f.End+c.dt {
		return 0
	}
	for c.lo < len(times) && times[c.lo]+c.dt < t {
		c.lo++
	}
	k := c.lo
	if k == len(times) || times[k]+c.dt > t {
		k--
	}
	return c.f.Values[k]
}
