package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/trace"
)

// adaptiveTrace builds a trace whose coding pattern changes mid-sequence
// — IBBPBBPBB for the first half, IPPPP afterwards — as an encoder that
// adapts M and N to scene content would produce.
func adaptiveTrace(n int, seed int64) *trace.Trace {
	g1 := mpeg.GOP{M: 3, N: 9}
	g2 := mpeg.GOP{M: 1, N: 5}
	half := n / 2
	half -= half % g1.N // switch at a pattern boundary
	rng := rand.New(rand.NewSource(seed))
	types := make([]mpeg.PictureType, n)
	sizes := make([]int64, n)
	for i := 0; i < n; i++ {
		if i < half {
			types[i] = g1.TypeOf(i)
		} else {
			types[i] = g2.TypeOf(i - half)
		}
		switch types[i] {
		case mpeg.TypeI:
			sizes[i] = 180_000 + int64(rng.Intn(60_000))
		case mpeg.TypeP:
			sizes[i] = 70_000 + int64(rng.Intn(30_000))
		default:
			sizes[i] = 20_000 + int64(rng.Intn(15_000))
		}
	}
	return &trace.Trace{
		Name:  "adaptive",
		Tau:   1.0 / 30,
		GOP:   g1, // nominal pattern
		Sizes: sizes,
		Types: types,
	}
}

func TestAdaptiveTraceValidates(t *testing.T) {
	tr := adaptiveTrace(90, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mismatched type count must fail.
	bad := *tr
	bad.Types = bad.Types[:10]
	if err := bad.Validate(); err == nil {
		t.Fatal("short Types should fail validation")
	}
	// TypeOf follows explicit types, not the nominal pattern.
	half := 90 / 2
	half -= half % 9
	if tr.TypeOf(half) != mpeg.TypeI || tr.TypeOf(half+1) != mpeg.TypeP {
		t.Fatalf("pattern switch not visible: %v %v", tr.TypeOf(half), tr.TypeOf(half+1))
	}
}

// TestTheorem1HoldsAcrossPatternChange: the paper claims the algorithm
// "does not depend on M, and uses N only in picture size estimation" —
// so the guarantees must survive an adaptive pattern switch even though
// the estimator's pattern assumption is briefly wrong.
func TestTheorem1HoldsAcrossPatternChange(t *testing.T) {
	tr := adaptiveTrace(135, 3)
	for _, est := range []Estimator{
		PatternEstimator{},     // briefly wrong after the switch — allowed
		NearestTypeEstimator{}, // pattern-free generalization
		TypeMeanEstimator{},
	} {
		s, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2, Estimator: est})
		if err != nil {
			t.Fatalf("%s: %v", est.Name(), err)
		}
		if v := s.CheckDelayBound(); v != -1 {
			t.Errorf("%s: delay bound violated at %d", est.Name(), v)
		}
		if v := s.CheckContinuousService(); v != -1 {
			t.Errorf("%s: continuous service violated at %d", est.Name(), v)
		}
		if v := s.CheckRatesWithinBounds(); v != -1 {
			t.Errorf("%s: rate bounds violated at %d", est.Name(), v)
		}
	}
}

func TestNearestTypeEstimator(t *testing.T) {
	tr := adaptiveTrace(90, 5)
	now := 40 * tr.Tau // pictures 0..39 arrived
	v := viewAt(tr, now)
	est := NearestTypeEstimator{}
	// The estimate for a future picture equals the most recent arrived
	// picture of the same type.
	target := 50
	want := int64(-1)
	for jj := 39; jj >= 0; jj-- {
		if tr.TypeOf(jj) == tr.TypeOf(target) {
			want = tr.Sizes[jj]
			break
		}
	}
	if got := est.Estimate(target, v); got != want {
		t.Fatalf("estimate %d, want %d", got, want)
	}
	// Cold start: defaults.
	v0 := viewAt(tr, 0)
	if got := est.Estimate(0, v0); got != DefaultInitialSizes[tr.TypeOf(0)] {
		t.Fatalf("cold-start estimate %d", got)
	}
	custom := NearestTypeEstimator{Initial: map[mpeg.PictureType]int64{mpeg.TypeI: 99}}
	if got := custom.Estimate(0, v0); got != 99 {
		t.Fatalf("custom initial %d", got)
	}
}

// TestAdaptivePatternProperty: Theorem 1 for completely random type
// sequences — the strongest form of "the algorithm does not depend on
// the pattern".
func TestAdaptivePatternProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 2
		types := make([]mpeg.PictureType, n)
		sizes := make([]int64, n)
		for i := range types {
			types[i] = mpeg.PictureType(rng.Intn(3))
			sizes[i] = int64(rng.Intn(300_000) + 500)
		}
		tr := &trace.Trace{
			Name: "random-types", Tau: 1.0 / 30,
			GOP: mpeg.GOP{M: 3, N: 9}, Sizes: sizes, Types: types,
		}
		k := rng.Intn(4) + 1
		cfg := Config{
			K:         k,
			H:         rng.Intn(12) + 1,
			D:         float64(k+1)*tr.Tau + rng.Float64()*0.2,
			Estimator: NearestTypeEstimator{},
		}
		s, err := Smooth(tr, cfg)
		if err != nil {
			return false
		}
		return s.CheckDelayBound() == -1 &&
			s.CheckContinuousService() == -1 &&
			s.CheckRatesWithinBounds() == -1 &&
			s.CheckConservation() == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveCSVRoundTrip(t *testing.T) {
	tr := adaptiveTrace(45, 7)
	var err error
	tr, err = tr.Slice(0, 45)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Types == nil {
		t.Fatal("Slice dropped explicit types")
	}
}
