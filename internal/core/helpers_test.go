package core

import (
	"fmt"
	"math"
	"testing"

	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/trace"
)

// measuresFor runs the algorithm and evaluates the paper's four measures
// against ideal smoothing with the (N−K)τ shift of Eq. 16.
func measuresFor(t testing.TB, tr *trace.Trace, cfg Config) metrics.Measures {
	t.Helper()
	s, err := Smooth(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// viewAt is the View the kernel hands an estimator at time now when it
// has learned all of tr's sizes.
func viewAt(tr *trace.Trace, now float64) *View {
	v := &View{tau: tr.Tau, gop: tr.GOP, types: tr.Types}
	v.at(tr.Sizes, now)
	return v
}

// sameStepBits returns the first difference between two step functions'
// Times, Values and End, compared by their float bits, or nil.
func sameStepBits(got, want *metrics.StepFunc) error {
	if len(got.Times) != len(want.Times) {
		return fmt.Errorf("%d segments, want %d", len(got.Times), len(want.Times))
	}
	for k := range got.Times {
		if math.Float64bits(got.Times[k]) != math.Float64bits(want.Times[k]) ||
			math.Float64bits(got.Values[k]) != math.Float64bits(want.Values[k]) {
			return fmt.Errorf("segment %d: (%v, %v), want (%v, %v)",
				k, got.Times[k], got.Values[k], want.Times[k], want.Values[k])
		}
	}
	if math.Float64bits(got.End) != math.Float64bits(want.End) {
		return fmt.Errorf("end %v, want %v", got.End, want.End)
	}
	return nil
}
