package mpegsmooth

// One benchmark per figure of the paper's evaluation section (Figures
// 3–8) plus the extension experiments: each bench regenerates its
// figure's complete data from scratch, so `go test -bench .` both times
// the reproduction and re-derives every reported series. Run
// cmd/experiments to render the same data as CSV.

import (
	"testing"

	"mpegsmooth/internal/experiments"
)

const (
	benchPictures = experiments.DefaultPictures
	benchSeed     = experiments.DefaultSeed
)

// BenchmarkFigure3_TraceGeneration regenerates the picture-size traces of
// Figure 3 (Driving1 and Tennis size-vs-picture-number series).
func BenchmarkFigure3_TraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		traces, err := experiments.Figure3(benchPictures, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(traces) != 2 {
			b.Fatal("wrong trace count")
		}
	}
}

// BenchmarkFigure4_RateVsTime regenerates the four rate-vs-time panels of
// Figure 4 (Driving1, K=1, H=9, D in {0.1, 0.15, 0.2, 0.3}).
func BenchmarkFigure4_RateVsTime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure4(benchPictures, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 4 {
			b.Fatal("wrong panel count")
		}
	}
}

// BenchmarkFigure5_Delays regenerates the per-picture delay comparisons
// of Figure 5 (D=0.1/0.3 vs ideal; K=1 vs K=9 at constant slack).
func BenchmarkFigure5_Delays(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(benchPictures, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6_SweepD regenerates the four-measures-vs-D sweep of
// Figure 6 across all four sequences.
func BenchmarkFigure6_SweepD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchPictures, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7_SweepH regenerates the four-measures-vs-H sweep of
// Figure 7 (H = 1 .. 2N, D=0.2, K=1).
func BenchmarkFigure7_SweepH(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(benchPictures, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8_SweepK regenerates the four-measures-vs-K sweep of
// Figure 8 (K = 1 .. 12 at constant slack, H=N).
func BenchmarkFigure8_SweepK(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(benchPictures, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtA_ModifiedVsBasic regenerates the basic vs moving-average
// variant comparison (Section 4.4's trade-off).
func BenchmarkExtA_ModifiedVsBasic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtA(benchPictures, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtB_Multiplexing regenerates the loss-vs-streams simulation
// (the statistical multiplexing motivation of refs [10, 11]).
func BenchmarkExtB_Multiplexing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtB(6, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtC_Estimators regenerates the size-estimator ablation.
func BenchmarkExtC_Estimators(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtC(benchPictures, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtE_EncoderPipeline regenerates the end-to-end experiment:
// synthetic video through the MPEG codec, stream inspection, smoothing.
func BenchmarkExtE_EncoderPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtE(96, 64, 36, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmoothPerPicture times the core algorithm itself: one full
// smoothing pass over Driving1, reported per picture.
func BenchmarkSmoothPerPicture(b *testing.B) {
	tr, err := Driving1(benchPictures, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{K: 1, H: tr.GOP.N, D: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Smooth(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/picture")
}

// BenchmarkSessionPush times the live path smoothd runs: a Session that
// knows Driving1's length, fed one picture per Push and then closed,
// reported per picture.
func BenchmarkSessionPush(b *testing.B) {
	tr, err := Driving1(benchPictures, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{K: 1, H: tr.GOP.N, D: 0.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := NewSession(tr.Tau, tr.GOP, cfg, WithLength(tr.Len()))
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range tr.Sizes {
			if _, err := sess.Push(size); err != nil {
				b.Fatal(err)
			}
		}
		sess.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Len()), "ns/picture")
}

// BenchmarkEvaluatePerPicture times Evaluate, the four measures against
// ideal smoothing, over the benchmark's offline_mux trace set: the four
// paper sequences at eight seeds, 270 pictures each, smoothed with K=1,
// H=N, D=0.2. It reports ns per evaluated picture.
func BenchmarkEvaluatePerPicture(b *testing.B) {
	var scheds []*Schedule
	pictures := 0
	for seed := int64(1); seed <= 8; seed++ {
		seqs, err := PaperSequences(benchPictures, seed)
		if err != nil {
			b.Fatal(err)
		}
		for _, tr := range seqs {
			s, err := Smooth(tr, Config{K: 1, H: tr.GOP.N, D: 0.2})
			if err != nil {
				b.Fatal(err)
			}
			scheds = append(scheds, s)
			pictures += tr.Len()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scheds {
			if _, err := Evaluate(s); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pictures), "ns/picture")
}

// BenchmarkSmoothAll times the concurrent batch runner over many
// streams, serial vs parallel, to show the worker pool's speedup.
func BenchmarkSmoothAll(b *testing.B) {
	seqs, err := PaperSequences(benchPictures, 1)
	if err != nil {
		b.Fatal(err)
	}
	// Replicate the four sequences so the pool has enough work per
	// picture of parallelism to amortize goroutine overhead.
	var traces []*Trace
	for i := 0; i < 4; i++ {
		traces = append(traces, seqs...)
	}
	cfg := Config{K: 1, H: 0, D: 0.2}
	for _, bc := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel8", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SmoothAll(traces, cfg, bc.parallelism); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOfflineSmooth times the taut-string offline optimum.
func BenchmarkOfflineSmooth(b *testing.B) {
	tr, err := Driving1(benchPictures, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OfflineSmooth(tr, 0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdeal times ideal smoothing.
func BenchmarkIdeal(b *testing.B) {
	tr, err := Driving1(benchPictures, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Ideal(tr); err != nil {
			b.Fatal(err)
		}
	}
}
