package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustStep(t *testing.T, times, values []float64, end float64) *StepFunc {
	t.Helper()
	f, err := NewStepFunc(times, values, end)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewStepFuncValidation(t *testing.T) {
	if _, err := NewStepFunc(nil, nil, 1); err == nil {
		t.Error("empty should fail")
	}
	if _, err := NewStepFunc([]float64{0, 1}, []float64{1}, 2); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewStepFunc([]float64{0, 0}, []float64{1, 2}, 2); err == nil {
		t.Error("non-increasing times should fail")
	}
	if _, err := NewStepFunc([]float64{0, 1}, []float64{1, 2}, 1); err == nil {
		t.Error("end before last time should fail")
	}
	if _, err := NewStepFunc([]float64{0, math.NaN()}, []float64{1, 2}, 2); err == nil {
		t.Error("NaN time should fail")
	}
	if _, err := NewStepFunc([]float64{0, 1}, []float64{1, 2}, math.NaN()); err == nil {
		t.Error("NaN end should fail")
	}
}

func TestAt(t *testing.T) {
	f := mustStep(t, []float64{0, 1, 3}, []float64{10, 20, 5}, 4)
	cases := []struct{ t, want float64 }{
		{-0.5, 0}, {0, 10}, {0.99, 10}, {1, 20}, {2.5, 20}, {3, 5}, {3.999, 5}, {4, 0}, {10, 0},
	}
	for _, c := range cases {
		if got := f.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestIntegralMaxMeanStd(t *testing.T) {
	f := mustStep(t, []float64{0, 1, 3}, []float64{10, 20, 5}, 4)
	// 10*1 + 20*2 + 5*1 = 55
	if got := f.Integral(); math.Abs(got-55) > 1e-12 {
		t.Errorf("Integral = %v", got)
	}
	if got := f.Max(); got != 20 {
		t.Errorf("Max = %v", got)
	}
	if got := f.Mean(); math.Abs(got-13.75) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	// variance = (1*(10-13.75)^2 + 2*(20-13.75)^2 + 1*(5-13.75)^2)/4
	wantVar := (1*3.75*3.75 + 2*6.25*6.25 + 1*8.75*8.75) / 4
	if got := f.Std(); math.Abs(got-math.Sqrt(wantVar)) > 1e-12 {
		t.Errorf("Std = %v, want %v", got, math.Sqrt(wantVar))
	}
}

func TestChanges(t *testing.T) {
	f := mustStep(t, []float64{0, 1, 2, 3}, []float64{5, 5, 7, 5}, 4)
	if got := f.Changes(RateChangeTolerance); got != 2 {
		t.Errorf("Changes = %d, want 2", got)
	}
	g := mustStep(t, []float64{0, 1}, []float64{5, 5 * (1 + 1e-12)}, 2)
	if got := g.Changes(RateChangeTolerance); got != 0 {
		t.Errorf("near-equal values should not count: %d", got)
	}
}

func TestShift(t *testing.T) {
	f := mustStep(t, []float64{0, 1}, []float64{3, 4}, 2)
	g := f.Shift(0.5)
	if g.At(0.25) != 0 || g.At(0.75) != 3 || g.At(1.75) != 4 || g.At(2.5) != 0 {
		t.Errorf("shifted function wrong: %v %v %v %v", g.At(0.25), g.At(0.75), g.At(1.75), g.At(2.5))
	}
	if math.Abs(g.Integral()-f.Integral()) > 1e-12 {
		t.Error("shift must preserve integral")
	}
}

func TestCompact(t *testing.T) {
	f := mustStep(t, []float64{0, 1, 2, 3}, []float64{5, 5, 5, 7}, 4)
	c := f.Compact()
	if len(c.Times) != 2 || c.Times[1] != 3 {
		t.Fatalf("Compact gave %+v", c)
	}
	if math.Abs(c.Integral()-f.Integral()) > 1e-12 {
		t.Error("Compact changed the integral")
	}
}

func TestPositiveAreaDiff(t *testing.T) {
	f := mustStep(t, []float64{0}, []float64{10}, 4)
	g := mustStep(t, []float64{0, 2}, []float64{5, 15}, 4)
	// On [0,2): f-g = 5 (positive). On [2,4): f-g = -5 (clipped to 0).
	got, err := PositiveAreaDiff(f, g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Errorf("PositiveAreaDiff = %v, want 10", got)
	}
	// Outside both supports everything is zero.
	got, err = PositiveAreaDiff(f, g, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("area beyond support = %v", got)
	}
	if _, err := PositiveAreaDiff(f, g, 2, 2); err == nil {
		t.Error("empty interval should fail")
	}
}

func TestIntegralOverClipsSupport(t *testing.T) {
	f := mustStep(t, []float64{1}, []float64{10}, 3)
	got, err := IntegralOver(f, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-20) > 1e-12 {
		t.Errorf("IntegralOver = %v, want 20", got)
	}
	got, err = IntegralOver(f, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Errorf("clipped IntegralOver = %v, want 10", got)
	}
}

func TestComputeMeasures(t *testing.T) {
	r := mustStep(t, []float64{0, 1}, []float64{10, 20}, 2)
	ideal := mustStep(t, []float64{0}, []float64{15}, 2)
	m, err := Compute(r, ideal, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// [r-R]+ = 0 on [0,1), 5 on [1,2) -> 5. Denominator: 15*2 = 30.
	if math.Abs(m.AreaDiff-5.0/30) > 1e-12 {
		t.Errorf("AreaDiff = %v", m.AreaDiff)
	}
	if m.RateChanges != 1 {
		t.Errorf("RateChanges = %d", m.RateChanges)
	}
	if m.MaxRate != 20 {
		t.Errorf("MaxRate = %v", m.MaxRate)
	}
	if m.StdDev != 5 {
		t.Errorf("StdDev = %v", m.StdDev)
	}
	if _, err := Compute(r, ideal, 0, 0); err == nil {
		t.Error("zero duration should fail")
	}
}

func TestComputeWithShift(t *testing.T) {
	// r equals the ideal curve started 0.5 s EARLIER (as the basic
	// algorithm starts (N−K)τ before ideal smoothing): with advance 0.5,
	// the area difference must vanish.
	ideal := mustStep(t, []float64{1, 2}, []float64{10, 20}, 4)
	r := ideal.Shift(-0.5)
	m, err := Compute(r, ideal, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.AreaDiff > 1e-12 {
		t.Errorf("AreaDiff = %v, want 0", m.AreaDiff)
	}
}

func TestSummarizeDelays(t *testing.T) {
	s := SummarizeDelays([]float64{0.1, 0.2, 0.05}, 0.15)
	if math.Abs(s.Max-0.2) > 1e-12 {
		t.Errorf("Max = %v", s.Max)
	}
	if math.Abs(s.Mean-0.35/3) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Violations != 1 {
		t.Errorf("Violations = %d", s.Violations)
	}
	if z := SummarizeDelays(nil, 1); z.Max != 0 || z.Mean != 0 || z.Violations != 0 {
		t.Errorf("empty delays: %+v", z)
	}
	// A NaN delay propagates into Max and Mean wherever it sits, and
	// counts as a violation.
	for _, delays := range [][]float64{{math.NaN(), 0.1, 0.2}, {0.1, 0.2, math.NaN()}} {
		n := SummarizeDelays(delays, 0.15)
		if !math.IsNaN(n.Max) || !math.IsNaN(n.Mean) || n.Violations != 2 {
			t.Errorf("delays %v: %+v; want NaN max and mean, 2 violations", delays, n)
		}
	}
}

// Property: PositiveAreaDiff(f,g) - PositiveAreaDiff(g,f) == ∫f - ∫g
// over any window covering both supports.
func TestAreaDiffAntisymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *StepFunc {
			n := rng.Intn(10) + 1
			times := make([]float64, n)
			values := make([]float64, n)
			t := rng.Float64()
			for i := 0; i < n; i++ {
				times[i] = t
				t += rng.Float64() + 0.01
				values[i] = rng.Float64() * 100
			}
			sf, err := NewStepFunc(times, values, t)
			if err != nil {
				panic(err)
			}
			return sf
		}
		a, b := mk(), mk()
		from, to := -1.0, 25.0
		pab, err1 := PositiveAreaDiff(a, b, from, to)
		pba, err2 := PositiveAreaDiff(b, a, from, to)
		ia, err3 := IntegralOver(a, from, to)
		ib, err4 := IntegralOver(b, from, to)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return math.Abs((pab-pba)-(ia-ib)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Std is invariant under time shift and zero for constants.
func TestStdShiftInvarianceProperty(t *testing.T) {
	f := func(v float64, shift float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		v = math.Mod(math.Abs(v), 1e6)
		shift = math.Mod(shift, 1e3)
		c, err := NewStepFunc([]float64{0}, []float64{v}, 1)
		if err != nil {
			return false
		}
		if c.Std() != 0 {
			return false
		}
		g, err := NewStepFunc([]float64{0, 0.5}, []float64{v, v * 2}, 1)
		if err != nil {
			return false
		}
		return math.Abs(g.Std()-g.Shift(shift).Std()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sawtooth returns a step function of n unit segments whose values
// cycle through 0..16.
func sawtooth(n int) *StepFunc {
	times := make([]float64, n)
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		times[i] = float64(i)
		values[i] = float64(i % 17)
	}
	f, err := NewStepFunc(times, values, float64(n))
	if err != nil {
		panic(err)
	}
	return f
}

// TestIntegralsZeroAlloc pins PositiveAreaDiff, IntegralOver and Compute
// at zero allocations: the sweep reads both functions, and Compute's
// translated ideal, where they lie.
func TestIntegralsZeroAlloc(t *testing.T) {
	f := sawtooth(270)
	g := f.Shift(0.25)
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"PositiveAreaDiff", func() error { _, err := PositiveAreaDiff(f, g, 0, 270); return err }},
		{"IntegralOver", func() error { _, err := IntegralOver(g, 0, 270); return err }},
		{"Compute", func() error { _, err := Compute(f, g, 0.3, 270); return err }},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f objects, want 0", c.name, allocs)
		}
	}
}

func BenchmarkPositiveAreaDiff(b *testing.B) {
	n := 1000
	f := sawtooth(n)
	g := f.Shift(0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PositiveAreaDiff(f, g, 0, float64(n)); err != nil {
			b.Fatal(err)
		}
	}
}
