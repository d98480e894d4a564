package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/soaktest"
)

// benchIngest pushes 8 concurrent streams through the full admission +
// smoothing + shared-egress path per iteration. TimeScale 1e6 on both
// sides collapses pacing so the benchmark measures the server
// machinery, not the schedule clock.
func benchIngest(b *testing.B, j *journal.Journal) {
	const streams = 8
	kit := soaktest.NewKit(b, 54)
	var streamBytes int64
	for _, p := range kit.Payloads {
		streamBytes += int64(len(p))
	}
	cfg := Config{
		LinkRate:  float64(streams) * kit.Hello.PeakRate,
		TimeScale: 1e6,
	}
	if j != nil {
		// ResumeWindow turns on resume tokens, and only tokened streams
		// are journaled — without it the journal sits idle and the
		// benchmark measures nothing durable.
		cfg.Journal = j
		cfg.ResumeWindow = 10 * time.Second
	}
	srv, addr := startServer(b, cfg)

	b.SetBytes(streams * streamBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < streams; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := kit.StreamWith(context.Background(), addr, 1e6, nil)
				if err != nil {
					b.Error(err)
				} else if !v.IsAdmitted() {
					b.Errorf("rejected: %+v", v)
				}
			}()
		}
		wg.Wait()
		soaktest.WaitFor(b, "iteration drain", func() bool {
			s := srv.Snapshot()
			return s.Streams.Completed == int64(i+1)*streams && s.Streams.Active == 0
		})
	}
	b.StopTimer()
	if j != nil {
		st := j.Stats()
		b.ReportMetric(float64(st.Fsyncs)/float64(b.N), "fsyncs/op")
		b.ReportMetric(float64(st.CommitNanos)/float64(b.N), "commit-ns/op")
		if st.CommitBatches > 0 {
			b.ReportMetric(float64(st.CommitBatchRecords)/float64(st.CommitBatches), "recs/batch")
		}
	}
}

// BenchmarkServerIngest is the journal-less (no durability) ingest
// path: the floor the journal benchmarks are compared against.
func BenchmarkServerIngest(b *testing.B) { benchIngest(b, nil) }

// BenchmarkServerIngestJournal is BenchmarkServerIngest with the crash
// journal engaged (resume tokens on, every admission and completion
// fsynced before its ack). Group commit coalesces the 8-way bursts:
// committers that arrive while an fsync is in flight ride the next
// batch, so the durability tax is a couple of fsyncs per iteration
// rather than sixteen.
func BenchmarkServerIngestJournal(b *testing.B) {
	j, err := journal.Open(journal.Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	benchIngest(b, j)
}
