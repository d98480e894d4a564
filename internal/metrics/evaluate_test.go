package metrics_test

import (
	"testing"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/trace"
)

// TestEvaluateMatchesReference holds Evaluate, the one evaluation path of
// the façade, cmd/smooth and the figure sweeps, to the reference
// definition of the measures bit for bit on the four paper sequences.
func TestEvaluateMatchesReference(t *testing.T) {
	seqs, err := trace.PaperSequences(270, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range seqs {
		ideal, err := core.Ideal(tr)
		if err != nil {
			t.Fatal(err)
		}
		idf, err := ideal.RateFunc()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []float64{0.1, 0.2, 0.3} {
			s, err := core.Smooth(tr, core.Config{K: 1, H: tr.GOP.N, D: d})
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			rf, err := s.RateFunc()
			if err != nil {
				t.Fatal(err)
			}
			advance := float64(tr.GOP.N-1) * tr.Tau
			want := metrics.ReferenceCompute(rf, idf, advance, tr.Duration()+d)
			if !metrics.SameMeasures(got, want) {
				t.Errorf("%s, D = %v: Evaluate = %+v, reference %+v", tr.Name, d, got, want)
			}
		}
	}
}
