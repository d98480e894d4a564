package journal

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// holdLeader starts an admission of token whose fsync — faulty's Nth
// Sync — is held, and returns once that batch leader is parked inside
// the fsync, with its result channel. Committers that arrive now queue
// behind the leader and form the next batch when release is called.
func holdLeader(t *testing.T, j *Journal, faulty *FaultFS, n int, token uint64) (release func(), result <-chan error) {
	t.Helper()
	held, release := faulty.HoldSync(n)
	done := make(chan error, 1)
	go func() {
		_, err := j.Admitted(testStream(token))
		done <- err
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatalf("sync %d never arrived", n)
	}
	return release, done
}

// waitPending polls until n committers are parked on j's commit queue.
func waitPending(t *testing.T, j *Journal, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.Stats().CommitPending < n {
		if time.Now().After(deadline) {
			t.Fatalf("CommitPending = %d after 10s, want %d", j.Stats().CommitPending, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCommitBatchFsyncFailureNeverSplits: four concurrent
// admissions are forced into one commit batch (they queue behind a
// blocker admission whose fsync is held), and that batch's fsync is
// made to fail deterministically. Every committer must see the
// failure, the stats must count all four, and a replay must show none
// of them — the batch fails whole, never splits into a durable prefix.
func TestGroupCommitBatchFsyncFailureNeverSplits(t *testing.T) {
	mem := NewMemFS()
	// Sync 1 is Open's snapshot; sync 2 is the blocker's admit, held
	// until the four committers queue; sync 3 is their batch.
	faulty := NewFaultFS(mem, FaultConfig{FailSync: 3})
	j, err := Open(Config{FS: faulty, FlushInterval: noFlush, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	const blocker = 100
	release, blocked := holdLeader(t, j, faulty, 2, blocker)

	const committers = 4
	errs := make([]error, committers)
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = j.Admitted(testStream(uint64(i + 1)))
		}(i)
	}
	waitPending(t, j, committers)
	release()
	wg.Wait()
	if err := <-blocked; err != nil {
		t.Fatalf("blocker admission: %v", err)
	}

	for i, err := range errs {
		if err == nil {
			t.Errorf("committer %d in the failed batch saw no error", i)
		}
	}
	st := j.Stats()
	if st.AppendErrors != committers {
		t.Errorf("AppendErrors = %d, want %d (every record in the failed batch)", st.AppendErrors, committers)
	}
	if st.CommitBatches != 1 {
		t.Errorf("CommitBatches = %d after the blocker and a failed batch, want 1", st.CommitBatches)
	}

	// The failure was repaired (truncated), not fatal: the journal keeps
	// accepting, and sync 4 lands.
	if _, err := j.Admitted(testStream(9)); err != nil {
		t.Fatalf("append after failed batch: %v", err)
	}

	j2, state := reopen(t, j, mem)
	defer j2.Close()
	if len(state.Streams) != 2 || state.Streams[9] == nil || state.Streams[blocker] == nil {
		t.Fatalf("replay after failed batch: want exactly streams 9 and %d, got %+v", blocker, state.Streams)
	}
}

// TestGroupCommitWindowBatches: a burst of concurrent admissions that
// queues behind an in-flight fsync coalesces into fewer fsyncs than
// records, and the batch counters stay consistent (records sum, max ≥
// avg, leader time accrued, queue drained).
func TestGroupCommitWindowBatches(t *testing.T) {
	mem := NewMemFS()
	faulty := NewFaultFS(mem, FaultConfig{})
	j, err := Open(Config{FS: faulty, FlushInterval: noFlush, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	// The first admission leads alone, held in its fsync (sync 2, after
	// Open's snapshot); the rest of the burst queues behind it.
	const burst = 8
	release, first := holdLeader(t, j, faulty, 2, 1)
	var wg sync.WaitGroup
	for i := 1; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := j.Admitted(testStream(uint64(i + 1))); err != nil {
				t.Errorf("admit %d: %v", i, err)
			}
		}(i)
	}
	waitPending(t, j, burst-1)
	release()
	wg.Wait()
	if err := <-first; err != nil {
		t.Fatalf("admit 0: %v", err)
	}

	st := j.Stats()
	if st.CommitBatchRecords != burst {
		t.Errorf("CommitBatchRecords = %d, want %d", st.CommitBatchRecords, burst)
	}
	if st.CommitBatches != 2 {
		t.Errorf("CommitBatches = %d, want 2: the held leader alone, then everything queued behind it",
			st.CommitBatches)
	}
	if st.CommitMaxBatch != burst-1 {
		t.Errorf("CommitMaxBatch = %d, want %d", st.CommitMaxBatch, burst-1)
	}
	if st.CommitNanos <= 0 {
		t.Errorf("CommitNanos = %d, want > 0 after %d batches", st.CommitNanos, st.CommitBatches)
	}
	if st.CommitPending != 0 {
		t.Errorf("CommitPending = %d at rest, want 0", st.CommitPending)
	}
	if st.Appends != burst {
		t.Errorf("Appends = %d, want %d", st.Appends, burst)
	}
}

// TestAppendRecordsSingleFsync: a follower-style batch of decoded
// records — admits, a watermark, an epoch — costs exactly one fsync for
// its durable kinds, coalesces the watermark, and folds everything into
// replayable state.
func TestAppendRecordsSingleFsync(t *testing.T) {
	mem := NewMemFS()
	j := mustOpen(t, mem)
	before := j.Stats()
	recs := []Record{
		{Kind: KindAdmit, Stream: testStream(1)},
		{Kind: KindAdmit, Stream: testStream(2)},
		{Kind: KindWatermark, Token: 1, Watermark: 3, HashState: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Kind: KindEpoch, Epoch: 5},
	}
	if err := j.AppendRecords(recs); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if got := st.Fsyncs - before.Fsyncs; got != 1 {
		t.Errorf("batch of %d records cost %d fsyncs, want 1", len(recs), got)
	}
	if got := st.Appends - before.Appends; got != 3 {
		t.Errorf("Appends grew by %d, want 3 (the watermark coalesces)", got)
	}
	if got := st.WatermarksCoalesced - before.WatermarksCoalesced; got != 1 {
		t.Errorf("WatermarksCoalesced grew by %d, want 1", got)
	}

	j2, state := reopen(t, j, mem)
	defer j2.Close()
	if state.Streams[1] == nil || state.Streams[2] == nil {
		t.Fatalf("admits lost: %+v", state.Streams)
	}
	if state.Streams[1].Watermark != 3 {
		t.Errorf("stream 1 watermark = %d, want 3", state.Streams[1].Watermark)
	}
	if state.Epoch != 5 {
		t.Errorf("epoch = %d, want 5", state.Epoch)
	}
}

// TestCloseDrainsWatermarksExactlyOnce: coalesced watermarks pending at
// Close are written by Close itself — once. The closed journal's final
// segment must hold exactly one watermark record per dirty stream,
// carrying the highest mark.
func TestCloseDrainsWatermarksExactlyOnce(t *testing.T) {
	mem := NewMemFS()
	j := mustOpen(t, mem)
	for tok := uint64(1); tok <= 3; tok++ {
		if _, err := j.Admitted(testStream(tok)); err != nil {
			t.Fatal(err)
		}
	}
	for mark := 1; mark <= 5; mark++ {
		for tok := uint64(1); tok <= 3; tok++ {
			j.Watermark(tok, mark, []byte{8, 7, 6, 5, 4, 3, 2, 1})
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := mem.ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	marks := map[uint64][]int{}
	for _, name := range names {
		if !strings.HasSuffix(name, ".wal") {
			continue
		}
		data, err := mem.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, valid, err := ScanSegment(data)
		if err != nil || valid != len(data) {
			t.Fatalf("segment %s: %d of %d bytes valid: %v", name, valid, len(data), err)
		}
		for _, r := range recs {
			if r.Kind == KindWatermark {
				marks[r.Token] = append(marks[r.Token], r.Watermark)
			}
		}
	}
	for tok := uint64(1); tok <= 3; tok++ {
		if got := marks[tok]; len(got) != 1 || got[0] != 5 {
			t.Errorf("stream %d: watermark records %v, want exactly one carrying mark 5", tok, got)
		}
	}
}

// TestCloseMidCommitRace hammers the journal from concurrent committers
// and watermark writers while Close runs — the shutdown path must fail
// the stragglers cleanly (no deadlock, no double-flush, no race) and
// what replays must be a consistent prefix of what was acknowledged.
func TestCloseMidCommitRace(t *testing.T) {
	for seed := 0; seed < 3; seed++ {
		mem := NewMemFS()
		j, err := Open(Config{FS: mem, FlushInterval: time.Millisecond, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}

		acked := make([]bool, 16)
		var wg sync.WaitGroup
		for i := 0; i < len(acked); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tok := uint64(i + 1)
				if _, err := j.Admitted(testStream(tok)); err != nil {
					return // closed underneath us: fine, just not acked
				}
				acked[i] = true
				for mark := 1; mark <= 4; mark++ {
					j.Watermark(tok, mark, []byte{1, 2, 3, 4, 5, 6, 7, 8})
				}
			}(i)
		}
		// Close races the committers; half of them typically lose.
		time.Sleep(time.Duration(seed) * time.Millisecond)
		if err := j.Close(); err != nil {
			t.Fatalf("seed %d: Close: %v", seed, err)
		}
		wg.Wait()
		if err := j.Close(); err != nil {
			t.Fatalf("seed %d: second Close: %v", seed, err)
		}

		j2 := mustOpen(t, mem)
		state := j2.State()
		for i, ok := range acked {
			if ok && state.Streams[uint64(i+1)] == nil {
				t.Errorf("seed %d: acknowledged admission %d forgotten by replay", seed, i+1)
			}
		}
		// The converse need not hold (a record can be durable without its
		// committer having been woken before Close), so only the
		// acked-then-forgotten direction is asserted.
		j2.Close()
	}
}
