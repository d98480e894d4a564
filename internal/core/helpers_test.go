package core

import (
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
