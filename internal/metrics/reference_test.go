package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The reference integrals: the cut-and-search definition that
// PositiveAreaDiff and IntegralOver must reproduce bit for bit. Every
// breakpoint of both functions inside (from, to) joins from and to in
// one slice, which is sorted and deduplicated; each gap's integrand is
// read at its midpoint through At's binary search.

func refPositiveAreaDiff(f, g *StepFunc, from, to float64) float64 {
	cuts := mergeCuts(f, g, from, to)
	var sum float64
	for i := 0; i+1 < len(cuts); i++ {
		mid := (cuts[i] + cuts[i+1]) / 2
		if d := f.At(mid) - g.At(mid); d > 0 {
			sum += d * (cuts[i+1] - cuts[i])
		}
	}
	return sum
}

func refIntegralOver(f *StepFunc, from, to float64) float64 {
	cuts := mergeCuts(f, f, from, to)
	var sum float64
	for i := 0; i+1 < len(cuts); i++ {
		mid := (cuts[i] + cuts[i+1]) / 2
		sum += f.At(mid) * (cuts[i+1] - cuts[i])
	}
	return sum
}

// mergeCuts returns the sorted, deduplicated breakpoints of f and g
// clipped to [from, to], including both endpoints.
func mergeCuts(f, g *StepFunc, from, to float64) []float64 {
	cuts := []float64{from, to}
	for _, fn := range []*StepFunc{f, g} {
		for _, t := range fn.Times {
			if t > from && t < to {
				cuts = append(cuts, t)
			}
		}
		if fn.End > from && fn.End < to {
			cuts = append(cuts, fn.End)
		}
	}
	sort.Float64s(cuts)
	out := cuts[:1]
	for _, c := range cuts[1:] {
		if c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// ReferenceCompute is Compute over the reference integrals and Shift's
// copy of the ideal. The external test of core's Evaluate uses it too.
func ReferenceCompute(r, ideal *StepFunc, advance, duration float64) Measures {
	shifted := ideal.Shift(-advance)
	num := refPositiveAreaDiff(r, shifted, 0, duration)
	den := refIntegralOver(shifted, 0, duration)
	m := Measures{
		RateChanges: r.Changes(RateChangeTolerance),
		MaxRate:     r.Max(),
		StdDev:      r.Std(),
	}
	if den > 0 {
		m.AreaDiff = num / den
	} else {
		m.AreaDiff = math.NaN()
	}
	return m
}

// SameMeasures reports whether a and b hold the same float64 bits and
// the same rate-change count.
func SameMeasures(a, b Measures) bool {
	return math.Float64bits(a.AreaDiff) == math.Float64bits(b.AreaDiff) &&
		a.RateChanges == b.RateChanges &&
		math.Float64bits(a.MaxRate) == math.Float64bits(b.MaxRate) &&
		math.Float64bits(a.StdDev) == math.Float64bits(b.StdDev)
}

// randStep returns a random step function of 1 to 12 segments. Its
// breakpoints lie on a picture-period grid, at irregular gaps, or in
// runs of floats one ulp apart; some values repeat the previous one or
// are 0.
func randStep(rng *rand.Rand) *StepFunc {
	n := 1 + rng.Intn(12)
	bps := make([]float64, n+1) // the segment starts, then End
	tau := []float64{1.0 / 24, 1.0 / 25, 1.0 / 30}[rng.Intn(3)]
	k := rng.Intn(40) - 20
	t := 4*rng.Float64() - 2
	if rng.Intn(4) == 0 {
		t = 0
	}
	kind := rng.Intn(3)
	for i := range bps {
		switch {
		case kind == 0:
			k += 1 + rng.Intn(3)
			t = float64(k) * tau
		case i == 0:
		case kind == 2 && rng.Intn(3) > 0:
			t = math.Nextafter(t, math.Inf(1))
		default:
			t += rng.ExpFloat64() / 4
		}
		bps[i] = t
	}
	values := make([]float64, n)
	for i := range values {
		switch r := rng.Intn(5); {
		case r == 0:
			values[i] = 0
		case r == 1 && i > 0:
			values[i] = values[i-1]
		default:
			values[i] = rng.Float64() * 4e6
		}
	}
	f, err := NewStepFunc(bps[:n], values, bps[n])
	if err != nil {
		panic(err)
	}
	return f
}

// breakpoints returns f's segment starts and End.
func breakpoints(f *StepFunc) []float64 {
	return append(append([]float64(nil), f.Times...), f.End)
}

// randShift returns a translation for f: a picture-period multiple, a
// difference of two of its breakpoints (so shifted breakpoints land on
// unshifted ones), a few ulps, an arbitrary offset, or a large one whose
// rounding merges breakpoints that lie one ulp apart.
func randShift(rng *rand.Rand, f *StepFunc) float64 {
	bps := breakpoints(f)
	switch rng.Intn(5) {
	case 0:
		return float64(rng.Intn(9)-4) / 30
	case 1:
		return bps[rng.Intn(len(bps))] - bps[rng.Intn(len(bps))]
	case 2:
		return float64(rng.Intn(5)-2) * 1e-16
	case 3:
		return 2*rng.Float64() - 1
	default:
		return []float64{-1e3, -3, 1, 3, 7, 100}[rng.Intn(6)]
	}
}

// randInterval returns from < to: both on breakpoints of f or g
// (adjacent ones included), one on a breakpoint, both outside the two
// supports, covering both, or arbitrary.
func randInterval(rng *rand.Rand, f, g *StepFunc) (from, to float64) {
	bps := append(breakpoints(f), breakpoints(g)...)
	sort.Float64s(bps)
	lo, hi := bps[0], bps[len(bps)-1]
	pick := func() float64 { return bps[rng.Intn(len(bps))] }
	for {
		switch rng.Intn(6) {
		case 0:
			i := rng.Intn(len(bps) - 1)
			from, to = bps[i], bps[i+1]
		case 1:
			from, to = pick(), pick()
		case 2:
			from, to = pick(), lo-1+(hi-lo+2)*rng.Float64()
		case 3:
			from, to = hi+rng.Float64(), hi+1+rng.Float64()
			if rng.Intn(2) == 0 {
				from, to = lo-2-rng.Float64(), lo-1
			}
		case 4:
			from, to = lo-1, hi+1
		default:
			from, to = lo-1+(hi-lo+2)*rng.Float64(), lo-1+(hi-lo+2)*rng.Float64()
		}
		if from > to {
			from, to = to, from
		}
		if from < to {
			return from, to
		}
	}
}

// TestIntegralsMatchReference holds PositiveAreaDiff, IntegralOver and
// Compute to the reference definition with exact float equality, on
// random pairs: two independent functions, a function and its own Shift
// (whose rounding can make breakpoints equal), and a function and
// itself.
func TestIntegralsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pairs := 20000
	if testing.Short() {
		pairs = 4000
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for p := 0; p < pairs; p++ {
		f := randStep(rng)
		g, dt := f, 0.0
		switch rng.Intn(3) {
		case 0:
			g = randStep(rng)
		case 1:
			dt = randShift(rng, f)
			g = f.Shift(dt)
		}
		for i := 0; i < 4; i++ {
			from, to := randInterval(rng, f, g)
			for _, c := range []struct {
				name string
				a, b *StepFunc
			}{{"f−g", f, g}, {"g−f", g, f}} {
				got, err := PositiveAreaDiff(c.a, c.b, from, to)
				if want := refPositiveAreaDiff(c.a, c.b, from, to); err != nil || !same(got, want) {
					t.Fatalf("pair %d: PositiveAreaDiff(%s, %v, %v) = %v (%v), want %v\nf = %+v\ng = %+v",
						p, c.name, from, to, got, err, want, f, g)
				}
			}
			for _, h := range []*StepFunc{f, g} {
				got, err := IntegralOver(h, from, to)
				if want := refIntegralOver(h, from, to); err != nil || !same(got, want) {
					t.Fatalf("pair %d: IntegralOver(%+v, %v, %v) = %v (%v), want %v", p, h, from, to, got, err, want)
				}
			}
		}
		// Compute translates the ideal inside its sweep: put the ideal's
		// breakpoints on or around 0, where the span [0, T) starts, and
		// end the span on a breakpoint or past both supports.
		bps := breakpoints(g)
		for _, advance := range []float64{0, -dt, dt, bps[rng.Intn(len(bps))], 2*rng.Float64() - 1} {
			duration := 4 * rng.Float64()
			if rng.Intn(2) == 0 {
				duration = bps[rng.Intn(len(bps))] - advance
			}
			if !(duration > 0) {
				continue
			}
			for _, c := range [][2]*StepFunc{{f, g}, {g, f}} {
				got, err := Compute(c[0], c[1], advance, duration)
				if want := ReferenceCompute(c[0], c[1], advance, duration); err != nil || !SameMeasures(got, want) {
					t.Fatalf("pair %d: Compute(advance %v, duration %v) = %+v (%v), want %+v\nr = %+v\nideal = %+v",
						p, advance, duration, got, err, want, c[0], c[1])
				}
			}
		}
	}
}
