package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/trace"
)

// flatTrace builds a trace with constant picture size for hand-checkable
// schedules.
func flatTrace(n int, size int64, tau float64) *trace.Trace {
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = size
	}
	return &trace.Trace{Name: "flat", Tau: tau, GOP: mpeg.GOP{M: 1, N: 1}, Sizes: sizes}
}

func paperTrace(t testing.TB, n int) *trace.Trace {
	t.Helper()
	tr, err := trace.Driving1(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConfigValidate(t *testing.T) {
	tau := 1.0 / 30
	good := Config{K: 1, D: 0.2, H: 9}
	if err := good.Validate(tau); err != nil {
		t.Fatalf("good config: %v", err)
	}
	for name, bad := range map[string]Config{
		"negative K":       {K: -1, D: 0.2, H: 9},
		"zero H":           {K: 1, D: 0.2, H: 0},
		"zero D":           {K: 1, D: 0, H: 9},
		"D below (K+1)tau": {K: 5, D: 0.1, H: 9},
		"NaN D":            {K: 1, D: math.NaN(), H: 9},
		"infinite D":       {K: 1, D: math.Inf(1), H: 9},
		"NaN D, K=0":       {K: 0, D: math.NaN(), H: 9},
		"infinite D, K=0":  {K: 0, D: math.Inf(1), H: 9},
	} {
		if err := bad.Validate(tau); err == nil {
			t.Errorf("%s should fail", name)
		}
	}
	// K = 0 with small D is allowed (the violation experiment).
	if err := (Config{K: 0, D: 0.01, H: 1}).Validate(tau); err != nil {
		t.Errorf("K=0 small D should be allowed: %v", err)
	}
	// D exactly (K+1)τ is allowed.
	if err := (Config{K: 1, D: 2 * tau, H: 9}).Validate(tau); err != nil {
		t.Errorf("D = (K+1)τ should be allowed: %v", err)
	}
}

// TestHandComputedSchedule pins the 0-based translation of Eqs. (2)-(4)
// to a schedule computed by hand.
//
// Trace: 3 pictures of 1000 bits, τ = 0.1 s, K = 1, H = 1, D = 0.3 s.
// H = 1 means no lookahead: bounds come from h = 0 only.
//
// Picture 0: t_0 = max(0, (0+1)·0.1) = 0.1.
//
//	lower = 1000/(0.3 + 0 − 0.1) = 5000.
//	upper = 1000/((1+0+1)·0.1 − 0.1) = 10000.
//	First picture: rate = (5000+10000)/2 = 7500.
//	d_0 = 0.1 + 1000/7500 = 0.2333…, delay_0 = 0.2333….
//
// Picture 1: t_1 = max(0.2333…, 0.2) = 0.2333….
//
//	lower = 1000/(0.3 + 0.1 − 0.2333…) = 1000/0.1666… = 6000.
//	upper = 1000/(0.3 − 0.2333…) = 1000/0.0666… = 15000.
//	Basic: hold 7500 (inside bounds). d_1 = 0.2333… + 0.1333… = 0.3666….
//	delay_1 = 0.3666… − 0.1 = 0.2666….
//
// Picture 2: t_2 = max(0.3666…, 0.3) = 0.3666….
//
//	lower = 1000/(0.3+0.2−0.3666…) = 1000/0.1333… = 7500.
//	upper = 1000/(0.4−0.3666…) = 30000. Hold 7500.
//	d_2 = 0.3666… + 0.1333… = 0.5, delay_2 = 0.3.
func TestHandComputedSchedule(t *testing.T) {
	tr := flatTrace(3, 1000, 0.1)
	s, err := Smooth(tr, Config{K: 1, H: 1, D: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	approx := func(got, want float64, what string) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %.10f, want %.10f", what, got, want)
		}
	}
	approx(s.Start[0], 0.1, "t_0")
	approx(s.Rates[0], 7500, "r_0")
	approx(s.Depart[0], 0.1+1000.0/7500, "d_0")
	approx(s.Delays[0], 0.1+1000.0/7500, "delay_0")
	approx(s.Start[1], s.Depart[0], "t_1")
	approx(s.Rates[1], 7500, "r_1")
	approx(s.Delays[1], s.Depart[1]-0.1, "delay_1")
	approx(s.Rates[2], 7500, "r_2")
	approx(s.Depart[2], 0.5, "d_2")
	approx(s.Delays[2], 0.3, "delay_2")
	if v := s.CheckDelayBound(); v != -1 {
		t.Errorf("delay bound violated at %d", v)
	}
	if v := s.CheckContinuousService(); v != -1 {
		t.Errorf("continuous service violated at %d", v)
	}
	if v := s.CheckRatesWithinBounds(); v != -1 {
		t.Errorf("rate bounds violated at %d", v)
	}
	if v := s.CheckConservation(); v != -1 {
		t.Errorf("conservation violated at %d", v)
	}
}

func TestFlatTraceSettlesToConstantRate(t *testing.T) {
	// A constant-size trace should quickly settle to a constant rate with
	// very few rate changes.
	tr := flatTrace(100, 50_000, 1.0/30)
	s, err := Smooth(tr, Config{K: 1, H: 1, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.RateFunc()
	if err != nil {
		t.Fatal(err)
	}
	if ch := f.Changes(1e-9); ch > 3 {
		t.Errorf("flat trace produced %d rate changes", ch)
	}
}

func TestTheorem1OnPaperTrace(t *testing.T) {
	tr := paperTrace(t, 270)
	for _, cfg := range []Config{
		{K: 1, H: 9, D: 0.1},
		{K: 1, H: 9, D: 0.2},
		{K: 1, H: 9, D: 0.3},
		{K: 1, H: 1, D: 0.0667},
		{K: 9, H: 9, D: 0.1333 + 10.0/30},
		{K: 2, H: 18, D: 0.15},
		{K: 1, H: 9, D: 0.2, Policy: MovingAveragePolicy{}},
	} {
		s, err := Smooth(tr, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if v := s.CheckDelayBound(); v != -1 {
			t.Errorf("%+v: delay bound violated at picture %d (delay %.4f)", cfg, v, s.Delays[v])
		}
		if v := s.CheckContinuousService(); v != -1 {
			t.Errorf("%+v: continuous service violated at %d", cfg, v)
		}
		if v := s.CheckRatesWithinBounds(); v != -1 {
			t.Errorf("%+v: rate outside Theorem 1 bounds at %d (r=%.1f, [%.1f, %.1f])",
				cfg, v, s.Rates[v], s.LowerBound[v], s.UpperBound[v])
		}
		if v := s.CheckConservation(); v != -1 {
			t.Errorf("%+v: conservation violated at %d", cfg, v)
		}
		if v := s.CheckCausality(); v != -1 {
			t.Errorf("%+v: causality violated at %d", cfg, v)
		}
	}
}

func TestSmoothingActuallySmooths(t *testing.T) {
	// The smoothed max rate must be far below the unsmoothed peak
	// (sending each picture in one period).
	tr := paperTrace(t, 270)
	s, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.RateFunc()
	if err != nil {
		t.Fatal(err)
	}
	unsmoothedPeak := tr.PeakPictureRate()
	if f.Max() > unsmoothedPeak/2 {
		t.Errorf("smoothed max %.2f Mbps not well below unsmoothed peak %.2f Mbps",
			f.Max()/1e6, unsmoothedPeak/1e6)
	}
	// And the mean must match the trace's mean rate (lossless: all bits
	// sent), over the schedule span.
	sent := f.Integral()
	if math.Abs(sent-float64(tr.TotalBits())) > 1e-3*float64(tr.TotalBits()) {
		t.Errorf("sent %.0f bits, trace has %d", sent, tr.TotalBits())
	}
}

func TestRelaxingDImprovesSmoothness(t *testing.T) {
	// Figure 6's qualitative content: larger D → fewer rate changes,
	// lower S.D., lower max rate.
	tr := paperTrace(t, 270)
	var prevStd, prevMax float64
	for i, D := range []float64{0.0667, 0.1333, 0.2667} {
		s, err := Smooth(tr, Config{K: 1, H: tr.GOP.N, D: D})
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.RateFunc()
		if err != nil {
			t.Fatal(err)
		}
		std, max := f.Std(), f.Max()
		if i > 0 {
			if std > prevStd*1.05 {
				t.Errorf("D=%v: S.D. %.0f worse than tighter bound's %.0f", D, std, prevStd)
			}
			if max > prevMax*1.05 {
				t.Errorf("D=%v: max %.0f worse than tighter bound's %.0f", D, max, prevMax)
			}
		}
		prevStd, prevMax = std, max
	}
}

func TestK0CanViolateDelayBound(t *testing.T) {
	// Section 5.2: "For K = 0, however, we did observe some delay bound
	// violations when the slack in the delay bound was deliberately made
	// very small." Build a trace whose first picture is enormous relative
	// to the initial estimate, so the K=0 rate (based on the estimate) is
	// far too low.
	sizes := make([]int64, 18)
	for i := range sizes {
		sizes[i] = 30_000
	}
	sizes[0] = 2_000_000 // much larger than the 200k initial estimate
	tr := &trace.Trace{Name: "adversarial", Tau: 1.0 / 30, GOP: mpeg.GOP{M: 3, N: 9}, Sizes: sizes}
	s, err := Smooth(tr, Config{K: 0, H: 1, D: 0.034})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.CheckDelayBound(); v == -1 {
		t.Error("expected a delay-bound violation with K=0 and tiny slack")
	}
	// The same trace with K = 1 must satisfy the bound (Theorem 1).
	s1, err := Smooth(tr, Config{K: 1, H: 1, D: 0.0667})
	if err != nil {
		t.Fatal(err)
	}
	if v := s1.CheckDelayBound(); v != -1 {
		t.Errorf("K=1 violated the bound at %d (delay %.4f)", v, s1.Delays[v])
	}
}

func TestMovingAverageTracksIdealMoreClosely(t *testing.T) {
	// Section 4.4: the modified algorithm "produces numerous small rate
	// changes over time, but its rate r(t) ... tracks the rate function of
	// ideal smoothing more closely ... In particular, the area difference
	// is smaller."
	tr := paperTrace(t, 270)
	cfgB := Config{K: 1, H: tr.GOP.N, D: 0.2, Policy: BasicPolicy{}}
	cfgM := cfgB
	cfgM.Policy = MovingAveragePolicy{}
	mb := measuresFor(t, tr, cfgB)
	mm := measuresFor(t, tr, cfgM)
	if mm.AreaDiff >= mb.AreaDiff {
		t.Errorf("moving average area diff %.4f not smaller than basic %.4f", mm.AreaDiff, mb.AreaDiff)
	}
	if mm.RateChanges <= mb.RateChanges {
		t.Errorf("moving average should change rate more often: %d vs %d", mm.RateChanges, mb.RateChanges)
	}
}

func TestIdealSmoothing(t *testing.T) {
	// Hand-check: 4 pictures, N = 2, τ = 0.1, sizes 300/100/200/200.
	tr := &trace.Trace{Name: "tiny", Tau: 0.1, GOP: mpeg.GOP{M: 1, N: 2}, Sizes: []int64{300, 100, 200, 200}}
	s, err := Ideal(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Block 0: pictures 0,1; rate (300+100)/0.2 = 2000 b/s; starts at
	// 2·0.1 = 0.2 (both arrived).
	if math.Abs(s.Rates[0]-2000) > 1e-9 || math.Abs(s.Rates[1]-2000) > 1e-9 {
		t.Fatalf("block 0 rate %v/%v", s.Rates[0], s.Rates[1])
	}
	if math.Abs(s.Start[0]-0.2) > 1e-9 {
		t.Fatalf("block 0 start %v", s.Start[0])
	}
	// d_0 = 0.2 + 300/2000 = 0.35; d_1 = 0.35 + 0.05 = 0.4.
	if math.Abs(s.Depart[0]-0.35) > 1e-9 || math.Abs(s.Depart[1]-0.4) > 1e-9 {
		t.Fatalf("block 0 departs %v/%v", s.Depart[0], s.Depart[1])
	}
	// Block 1: rate 400/0.2 = 2000; arrivals complete at 0.4; prev depart
	// 0.4 → start 0.4.
	if math.Abs(s.Start[2]-0.4) > 1e-9 {
		t.Fatalf("block 1 start %v", s.Start[2])
	}
	// delay_0 = 0.35 − 0 = 0.35.
	if math.Abs(s.Delays[0]-0.35) > 1e-9 {
		t.Fatalf("delay_0 %v", s.Delays[0])
	}
}

func TestIdealDelaysExceedBasic(t *testing.T) {
	// Figure 5: ideal smoothing delays are much larger than the basic
	// algorithm's with K=1 (pictures wait for the whole pattern).
	tr := paperTrace(t, 270)
	basic, err := Smooth(tr, Config{K: 1, H: 9, D: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := Ideal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var meanBasic, meanIdeal float64
	for i := range basic.Delays {
		meanBasic += basic.Delays[i]
		meanIdeal += ideal.Delays[i]
	}
	if meanIdeal <= meanBasic {
		t.Errorf("ideal mean delay %.4f not larger than basic %.4f",
			meanIdeal/float64(tr.Len()), meanBasic/float64(tr.Len()))
	}
}

func TestIdealPartialLastBlock(t *testing.T) {
	tr := &trace.Trace{Name: "partial", Tau: 0.1, GOP: mpeg.GOP{M: 1, N: 3}, Sizes: []int64{100, 100, 100, 600}}
	s, err := Ideal(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Last block has one picture: rate 600/0.1 = 6000.
	if math.Abs(s.Rates[3]-6000) > 1e-9 {
		t.Fatalf("partial block rate %v", s.Rates[3])
	}
}

// TestIdealRateFuncMatchesIdeal: Evaluate reads ideal smoothing's R(t)
// straight from the trace, and it must be Ideal(tr).RateFunc() bit for
// bit: on the paper sequences, on an adaptive-pattern trace, and at
// lengths that end mid-pattern (5 and 271 pictures).
func TestIdealRateFuncMatchesIdeal(t *testing.T) {
	traces := []*trace.Trace{adaptiveTrace(271, 1)}
	for _, n := range []int{5, 270, 271} {
		seqs, err := trace.PaperSequences(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, seqs...)
	}
	for _, tr := range traces {
		ideal, err := Ideal(tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ideal.RateFunc()
		if err != nil {
			t.Fatal(err)
		}
		got, err := idealRateFunc(tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameStepBits(got, want); err != nil {
			t.Errorf("%s, %d pictures: %v", tr.Name, tr.Len(), err)
		}
	}
}

// TestRateFuncDropsRepeatedStart: RateFunc shares a schedule's Start and
// Rates when the starts strictly increase, and copies a schedule whose
// start repeats (a zero-length send), dropping that send.
func TestRateFuncDropsRepeatedStart(t *testing.T) {
	s := &Schedule{
		Start:  []float64{0, 1, 1, 2},
		Rates:  []float64{10, 20, 30, 40},
		Depart: []float64{1, 1, 2, 3},
	}
	f, err := s.RateFunc()
	if err != nil {
		t.Fatal(err)
	}
	want := &metrics.StepFunc{Times: []float64{0, 1, 2}, Values: []float64{10, 20, 40}, End: 3}
	if err := sameStepBits(f, want); err != nil {
		t.Errorf("repeated start: %v", err)
	}

	s.Start[2] = 1.5
	f, err = s.RateFunc()
	if err != nil {
		t.Fatal(err)
	}
	if &f.Times[0] != &s.Start[0] || &f.Values[0] != &s.Rates[0] {
		t.Error("strictly increasing starts: RateFunc copied Start and Rates")
	}
}

func TestEstimators(t *testing.T) {
	tr := paperTrace(t, 90)
	now := 30 * tr.Tau // pictures 0..29 arrived
	v := viewAt(tr, now)

	if !v.Arrived(29) || v.Arrived(30) {
		t.Fatal("arrival horizon wrong")
	}

	// Pattern estimator returns S_{j-N} when available.
	pat := PatternEstimator{}
	if got := pat.Estimate(35, v); got != tr.Sizes[35-9] {
		t.Errorf("pattern estimate %d, want S_26 = %d", got, tr.Sizes[26])
	}
	// Deep future: walks back pattern by pattern to the newest arrived.
	if got := pat.Estimate(35+9, v); got != tr.Sizes[35-9] {
		t.Errorf("deep pattern estimate %d, want %d", got, tr.Sizes[26])
	}
	// Start of sequence with nothing arrived: defaults.
	v0 := viewAt(tr, 0)
	if got := pat.Estimate(0, v0); got != DefaultInitialSizes[mpeg.TypeI] {
		t.Errorf("initial I estimate %d", got)
	}
	if got := pat.Estimate(1, v0); got != DefaultInitialSizes[mpeg.TypeB] {
		t.Errorf("initial B estimate %d", got)
	}
	if got := pat.Estimate(3, v0); got != DefaultInitialSizes[mpeg.TypeP] {
		t.Errorf("initial P estimate %d", got)
	}
	custom := PatternEstimator{Initial: map[mpeg.PictureType]int64{mpeg.TypeI: 7}}
	if got := custom.Estimate(0, v0); got != 7 {
		t.Errorf("custom initial estimate %d", got)
	}

	// Type-mean averages arrived same-type pictures.
	tm := TypeMeanEstimator{}
	var sum, n int64
	for j := 0; j < 30; j++ {
		if tr.GOP.TypeOf(j) == mpeg.TypeI {
			sum += tr.Sizes[j]
			n++
		}
	}
	if got := tm.Estimate(36, v); got != sum/n {
		t.Errorf("type-mean estimate %d, want %d", got, sum/n)
	}
	if got := tm.Estimate(0, v0); got != DefaultInitialSizes[mpeg.TypeI] {
		t.Errorf("type-mean cold start %d", got)
	}

	// EWMA lies between min and max of arrived same-type sizes.
	ew := EWMAEstimator{Alpha: 0.5}
	est := ew.Estimate(36, v)
	var min, max int64 = math.MaxInt64, 0
	for j := 0; j < 30; j++ {
		if tr.GOP.TypeOf(j) == mpeg.TypeI {
			if tr.Sizes[j] < min {
				min = tr.Sizes[j]
			}
			if tr.Sizes[j] > max {
				max = tr.Sizes[j]
			}
		}
	}
	if est < min || est > max {
		t.Errorf("EWMA estimate %d outside [%d, %d]", est, min, max)
	}

	// Oracle returns the true size.
	or := OracleEstimator{}
	if got := or.Estimate(50, v); got != tr.Sizes[50] {
		t.Errorf("oracle estimate %d", got)
	}

	for _, e := range []Estimator{pat, tm, ew, or} {
		if e.Name() == "" {
			t.Error("estimator has empty name")
		}
	}
}

func TestSmoothRejectsBadInput(t *testing.T) {
	tr := flatTrace(5, 1000, 0.1)
	if _, err := Smooth(tr, Config{K: 1, H: 0, D: 0.3}); err == nil {
		t.Error("H=0 should fail")
	}
	bad := &trace.Trace{Name: "bad", Tau: 0, GOP: mpeg.GOP{M: 1, N: 1}, Sizes: []int64{1}}
	if _, err := Smooth(bad, Config{K: 1, H: 1, D: 0.3}); err == nil {
		t.Error("invalid trace should fail")
	}
	if _, err := Ideal(bad); err == nil {
		t.Error("Ideal with invalid trace should fail")
	}
}

func TestPiecewiseCBR(t *testing.T) {
	tr := paperTrace(t, 270)
	// Window 1: every picture at its own rate (raw transmission shape).
	w1, err := PiecewiseCBR(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Window = trace length: a single CBR rate — SD exactly 0.
	wAll, err := PiecewiseCBR(tr, tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	fAll, err := wAll.RateFunc()
	if err != nil {
		t.Fatal(err)
	}
	if fAll.Std() > 1e-6 {
		t.Fatalf("full-window CBR has SD %v", fAll.Std())
	}
	// SD shrinks and delay grows monotonically across windows.
	var prevStd = math.Inf(1)
	var prevDelay float64
	for _, w := range []int{1, 9, 27, 90, 270} {
		s, err := PiecewiseCBR(tr, w)
		if err != nil {
			t.Fatal(err)
		}
		f, err := s.RateFunc()
		if err != nil {
			t.Fatal(err)
		}
		if v := s.CheckConservation(); v != -1 {
			t.Fatalf("window %d: conservation violated at %d", w, v)
		}
		std := f.Std()
		if std > prevStd*1.01 {
			t.Errorf("window %d: SD %.0f worse than smaller window's %.0f", w, std, prevStd)
		}
		maxDelay := s.MaxDelay()
		if maxDelay < prevDelay*0.99 {
			t.Errorf("window %d: max delay %.3f below smaller window's %.3f", w, maxDelay, prevDelay)
		}
		prevStd, prevDelay = std, maxDelay
	}
	// Ideal is exactly PiecewiseCBR at the pattern length.
	ideal, err := Ideal(tr)
	if err != nil {
		t.Fatal(err)
	}
	wN, err := PiecewiseCBR(tr, tr.GOP.N)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ideal.Rates {
		if ideal.Rates[j] != wN.Rates[j] {
			t.Fatalf("Ideal != PiecewiseCBR(N) at %d", j)
		}
	}
	_ = w1
	if _, err := PiecewiseCBR(tr, 0); err == nil {
		t.Fatal("window 0 should fail")
	}
}

func TestScheduleWriteCSV(t *testing.T) {
	tr := paperTrace(t, 27)
	for _, tc := range []struct {
		policy Policy
		meta   string
	}{
		{nil, "# name=Driving1 K=1 H=9 D=0.200000000 policy=basic"},
		{MovingAveragePolicy{}, "# name=Driving1 K=1 H=9 D=0.200000000 policy=moving-average"},
	} {
		s, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2, Policy: tc.policy})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		// Metadata line + header + one row per picture.
		if len(lines) != 2+tr.Len() {
			t.Fatalf("%d lines, want %d", len(lines), 2+tr.Len())
		}
		// The metadata names the policy that made the schedule.
		if lines[0] != tc.meta {
			t.Errorf("metadata line %q, want %q", lines[0], tc.meta)
		}
		if !strings.HasPrefix(lines[2], "0,I,") {
			t.Fatalf("first row %q", lines[2])
		}
	}
}

func TestSmoothScalesToLongTraces(t *testing.T) {
	// An hour-ish workload: 36,000 pictures (20 minutes at 30 pic/s).
	short := paperTrace(t, 360)
	long, err := short.Repeat(100)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Smooth(long, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.CheckDelayBound(); v != -1 {
		t.Fatalf("delay bound violated at %d", v)
	}
	if v := s.CheckContinuousService(); v != -1 {
		t.Fatalf("continuous service violated at %d", v)
	}
}
