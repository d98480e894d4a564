package journal

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/transport"
)

func testHello(nonce uint64) transport.StreamHello {
	return transport.StreamHello{
		Tau: 1.0 / 30, GOP: mpeg.GOP{M: 3, N: 9},
		K: 1, D: 0.2, Pictures: 60, PeakRate: 2.5e6,
		Nonce: nonce,
	}
}

func testStream(token uint64) StreamRecord {
	return StreamRecord{Token: token, Hello: testHello(token)}
}

func testTomb(token uint64, pictures int) TombstoneRecord {
	return TombstoneRecord{
		Token: token, Nonce: token, Pictures: pictures,
		HashState: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		// Fixed but far-future: compaction drops tombstones past their
		// journaled expiry, and these tests want theirs to survive.
		Expires: time.Unix(4102444800, 0),
	}
}

// noFlush disables the background flusher so tests control batching.
const noFlush = -1 * time.Millisecond

func mustOpen(t *testing.T, fs FS) *Journal {
	t.Helper()
	j, err := Open(Config{FS: fs, FlushInterval: noFlush, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

// reopen closes j and opens a fresh journal over the same FS, returning
// the recovered state — what a restarted server would rebuild from.
func reopen(t *testing.T, j *Journal, fs FS) (*Journal, State) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	next := mustOpen(t, fs)
	return next, next.State()
}

// buildSegment assembles raw segment bytes from records — for crafting
// exact on-disk shapes (boundaries, torn tails) without going through a
// Journal.
func buildSegment(frames ...[]byte) []byte {
	data := append([]byte(nil), segMagic...)
	for _, f := range frames {
		data = append(data, f...)
	}
	return data
}

func TestEmptyJournalOpens(t *testing.T) {
	mem := NewMemFS()
	j := mustOpen(t, mem)
	st := j.State()
	if len(st.Streams) != 0 || len(st.Tombstones) != 0 {
		t.Fatalf("fresh journal recovered state: %+v", st)
	}
	if s := j.Stats(); s.ReplayedRecords != 0 || s.TruncatedTailBytes != 0 {
		t.Fatalf("fresh journal stats: %+v", s)
	}
	// And it is immediately usable.
	if _, err := j.Admitted(testStream(1)); err != nil {
		t.Fatalf("append to fresh journal: %v", err)
	}
	j, st = reopen(t, j, mem)
	defer j.Close()
	if len(st.Streams) != 1 || st.Streams[1] == nil {
		t.Fatalf("admission lost across reopen: %+v", st)
	}
}

// TestRoundTripAcrossReopen: the full record vocabulary survives a
// close/reopen cycle bit-exactly — including hello float bits, which
// the server's nonce dedup compares with struct equality.
func TestRoundTripAcrossReopen(t *testing.T) {
	mem := NewMemFS()
	j := mustOpen(t, mem)

	a, b, c := testStream(1), testStream(2), testStream(3)
	b.Hello.Integrity = transport.IntegrityHMAC
	for _, rec := range []StreamRecord{a, b, c} {
		if _, err := j.Admitted(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Watermark(1, 7, []byte{0xAA, 0xBB})
	j.Watermark(2, 12, []byte{0xCC})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	tomb := testTomb(2, 60)
	if _, err := j.Completed(tomb); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Expired(3, 3, ExpireFailed); err != nil {
		t.Fatal(err)
	}

	j, st := reopen(t, j, mem)
	defer j.Close()
	if len(st.Streams) != 1 {
		t.Fatalf("want 1 live stream, got %+v", st.Streams)
	}
	got := st.Streams[1]
	if got == nil || got.Hello != a.Hello || got.Watermark != 7 ||
		!reflect.DeepEqual(got.HashState, []byte{0xAA, 0xBB}) {
		t.Fatalf("stream 1 recovered wrong: %+v", got)
	}
	if len(st.Tombstones) != 1 {
		t.Fatalf("want 1 tombstone, got %+v", st.Tombstones)
	}
	tb := st.Tombstones[2]
	if tb == nil || tb.Nonce != 2 || tb.Pictures != 60 ||
		!reflect.DeepEqual(tb.HashState, tomb.HashState) ||
		tb.Expires.UnixNano() != tomb.Expires.UnixNano() {
		t.Fatalf("tombstone recovered wrong: %+v", tb)
	}
	if _, live := st.Streams[3]; live {
		t.Fatal("expired stream resurrected")
	}
}

// TestReplayIdempotence: replaying the same journal any number of
// times — including a journal whose every segment is duplicated, the
// crash-during-compaction shape — yields identical state.
func TestReplayIdempotence(t *testing.T) {
	mem := NewMemFS()
	j := mustOpen(t, mem)
	for tok := uint64(1); tok <= 4; tok++ {
		if _, err := j.Admitted(testStream(tok)); err != nil {
			t.Fatal(err)
		}
	}
	j.Watermark(1, 9, []byte{9})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Completed(testTomb(2, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Expired(4, 4, ExpireFailed); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopening twice more yields the same recovered state each time.
	j2 := mustOpen(t, mem)
	s2 := j2.State()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3 := mustOpen(t, mem)
	s3 := j3.State()
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2, s3) {
		t.Fatalf("replay not idempotent across reopens:\n%+v\nvs\n%+v", s2, s3)
	}

	// Stronger: duplicate the surviving segment wholesale and replay
	// both copies — state must not change.
	names, err := mem.ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	dup := NewMemFS()
	for i, n := range names {
		data, err := mem.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		dup.WriteFile(segName(uint64(2*i+1)), data)
		dup.WriteFile(segName(uint64(2*i+2)), data)
	}
	j4 := mustOpen(t, dup)
	s4 := j4.State()
	defer j4.Close()
	if !reflect.DeepEqual(s2, s4) {
		t.Fatalf("duplicated segments changed the state:\n%+v\nvs\n%+v", s2, s4)
	}
}

// TestCrashDuringCompaction: with removes failing, every compaction
// leaves the old segments lying next to the new snapshot — duplicate
// records everywhere. Recovery must fold them to the same state.
func TestCrashDuringCompaction(t *testing.T) {
	mem := NewMemFS()
	faulty := NewFaultFS(mem, FaultConfig{FailRemoves: true})
	j, err := Open(Config{FS: faulty, FlushInterval: noFlush, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admitted(testStream(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admitted(testStream(2)); err != nil {
		t.Fatal(err)
	}
	j.Watermark(1, 5, []byte{5})
	if _, err := j.Completed(testTomb(2, 60)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Compact(); err != nil {
			t.Fatalf("compact %d: %v", i, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := mem.ReadDir()
	if len(names) < 4 {
		t.Fatalf("expected lingering segments after failed removes, got %v", names)
	}

	// Replay over the pile of duplicates (removes now working again).
	j2 := mustOpen(t, mem)
	defer j2.Close()
	st := j2.State()
	if len(st.Streams) != 1 || st.Streams[1] == nil || st.Streams[1].Watermark != 5 {
		t.Fatalf("streams after duplicate-heavy replay: %+v", st.Streams)
	}
	if len(st.Tombstones) != 1 || st.Tombstones[2] == nil {
		t.Fatalf("tombstones after duplicate-heavy replay: %+v", st.Tombstones)
	}
	// The admit duplicates must not have resurrected stream 2 past its
	// completion: tombstones absorb admits.
	if _, live := st.Streams[2]; live {
		t.Fatal("completed stream resurrected by duplicate admit record")
	}
}

// TestOpenEdgeCases covers the on-disk shapes recovery must take in
// stride: empty files, header-only segments, a journal ending exactly
// on a record boundary, torn tails, bad magic, garbage mid-file.
func TestOpenEdgeCases(t *testing.T) {
	admit1 := appendAdmitFrame(nil, testStream(1))
	admit2 := appendAdmitFrame(nil, testStream(2))

	t.Run("empty file", func(t *testing.T) {
		mem := NewMemFS()
		mem.WriteFile(segName(1), nil)
		j := mustOpen(t, mem)
		defer j.Close()
		if st := j.State(); len(st.Streams) != 0 {
			t.Fatalf("state from empty file: %+v", st)
		}
	})

	t.Run("header only", func(t *testing.T) {
		mem := NewMemFS()
		mem.WriteFile(segName(1), buildSegment())
		j := mustOpen(t, mem)
		defer j.Close()
		if s := j.Stats(); s.ReplayedRecords != 0 || s.TruncatedTailBytes != 0 {
			t.Fatalf("header-only segment stats: %+v", s)
		}
	})

	t.Run("exact record boundary", func(t *testing.T) {
		mem := NewMemFS()
		mem.WriteFile(segName(1), buildSegment(admit1, admit2))
		j := mustOpen(t, mem)
		defer j.Close()
		st := j.State()
		if len(st.Streams) != 2 {
			t.Fatalf("want both records from boundary-exact segment, got %+v", st.Streams)
		}
		if s := j.Stats(); s.TruncatedTailBytes != 0 {
			t.Fatalf("boundary-exact segment was truncated: %+v", s)
		}
	})

	t.Run("torn tail", func(t *testing.T) {
		for cut := 1; cut < len(admit2); cut++ {
			mem := NewMemFS()
			mem.WriteFile(segName(1), buildSegment(admit1, admit2[:cut]))
			j := mustOpen(t, mem)
			st := j.State()
			if len(st.Streams) != 1 || st.Streams[1] == nil {
				t.Fatalf("cut %d: want only the intact record, got %+v", cut, st.Streams)
			}
			if s := j.Stats(); s.TruncatedTailBytes != int64(cut) {
				t.Fatalf("cut %d: truncated %d bytes, want %d", cut, s.TruncatedTailBytes, cut)
			}
			j.Close()
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		mem := NewMemFS()
		mem.WriteFile(segName(1), []byte("JUNKJUNKJUNK"))
		j := mustOpen(t, mem)
		defer j.Close()
		if st := j.State(); len(st.Streams) != 0 {
			t.Fatalf("state from bad-magic segment: %+v", st)
		}
	})

	t.Run("garbage mid file", func(t *testing.T) {
		mem := NewMemFS()
		data := buildSegment(admit1)
		data = append(data, 0xDE, 0xAD, 0xBE, 0xEF)
		data = append(data, admit2...)
		mem.WriteFile(segName(1), data)
		j := mustOpen(t, mem)
		defer j.Close()
		st := j.State()
		// Scanning stops at the first damage: record 2 is unreachable,
		// but nothing corrupt is ever surfaced as a record.
		if len(st.Streams) != 1 || st.Streams[1] == nil {
			t.Fatalf("garbage mid-file: got %+v", st.Streams)
		}
	})

	t.Run("non-segment files ignored", func(t *testing.T) {
		mem := NewMemFS()
		mem.WriteFile("README", []byte("not a segment"))
		mem.WriteFile(segName(1), buildSegment(admit1))
		j := mustOpen(t, mem)
		defer j.Close()
		if st := j.State(); len(st.Streams) != 1 {
			t.Fatalf("state with stray file present: %+v", st.Streams)
		}
	})
}

// TestScanSegmentTruncationFixedPoint: for every possible cut of a
// valid segment, the scan's reported valid offset is a fixed point —
// rescanning data[:valid] is clean and yields the identical records.
// This is what makes torn-tail repair deterministic.
func TestScanSegmentTruncationFixedPoint(t *testing.T) {
	data := buildSegment(
		appendAdmitFrame(nil, testStream(1)),
		appendWatermarkFrame(nil, 1, 3, []byte{1, 2}),
		appendCompleteFrame(nil, testTomb(1, 60)),
		appendExpireFrame(nil, 1, 1, ExpireTombstone),
	)
	full, _, err := ScanSegment(data)
	if err != nil || len(full) != 4 {
		t.Fatalf("clean scan: %d records, err %v", len(full), err)
	}
	for cut := 0; cut <= len(data); cut++ {
		recs, valid, err := ScanSegment(data[:cut])
		if cut < len(segMagic) {
			if err == nil {
				t.Fatalf("cut %d: sub-magic data scanned clean", cut)
			}
			continue
		}
		if valid > cut {
			t.Fatalf("cut %d: valid %d past end", cut, valid)
		}
		if cut == len(data) && err != nil {
			t.Fatalf("full data failed scan: %v", err)
		}
		recs2, valid2, err2 := ScanSegment(data[:valid])
		if err2 != nil || valid2 != valid || !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("cut %d: truncation to %d not a fixed point (err %v)", cut, valid, err2)
		}
	}
}

// TestScanSegmentCorruption: flip every byte of a segment, one at a
// time. No corrupted record may ever be surfaced — the scan must return
// a strict prefix of the original records.
func TestScanSegmentCorruption(t *testing.T) {
	data := buildSegment(
		appendAdmitFrame(nil, testStream(1)),
		appendWatermarkFrame(nil, 1, 3, []byte{1, 2}),
		appendCompleteFrame(nil, testTomb(2, 60)),
	)
	orig, _, err := ScanSegment(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		recs, valid, _ := ScanSegment(mut)
		if valid > len(mut) {
			t.Fatalf("flip %d: valid out of range", i)
		}
		if len(recs) > len(orig) {
			t.Fatalf("flip %d: more records than original", i)
		}
		for k, r := range recs {
			if !reflect.DeepEqual(r, orig[k]) {
				t.Fatalf("flip %d: corrupted record %d surfaced: %+v", i, k, r)
			}
		}
	}
}

// TestTornWriteRepair: an injected torn write fails the append, and the
// journal truncates the segment back so the torn bytes never precede a
// later successful record. The failed fact is simply absent after
// recovery; later facts are intact.
func TestTornWriteRepair(t *testing.T) {
	mem := NewMemFS()
	// Write 1 is Open's snapshot; write 2 is stream 1's admit; write 3
	// (stream 2's admit) tears.
	faulty := NewFaultFS(mem, FaultConfig{FailWrite: 3})
	j, err := Open(Config{FS: faulty, FlushInterval: noFlush, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admitted(testStream(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admitted(testStream(2)); err == nil {
		t.Fatal("torn write did not surface an error")
	}
	if _, err := j.Admitted(testStream(3)); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if w, _ := faulty.Injected(); w != 1 {
		t.Fatalf("injected %d write faults, want 1", w)
	}
	if s := j.Stats(); s.AppendErrors != 1 {
		t.Fatalf("append errors: %+v", s)
	}
	// The repaired segment is physically clean: a raw scan finds no
	// damage at all.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := mem.ReadDir()
	for _, n := range names {
		data, _ := mem.ReadFile(n)
		if len(data) == 0 {
			continue
		}
		if _, _, err := ScanSegment(data); err != nil {
			t.Fatalf("segment %s not clean after repair: %v", n, err)
		}
	}
	j2 := mustOpen(t, mem)
	defer j2.Close()
	st := j2.State()
	if st.Streams[1] == nil || st.Streams[3] == nil {
		t.Fatalf("intact admissions lost: %+v", st.Streams)
	}
	if _, ok := st.Streams[2]; ok {
		t.Fatal("torn admission resurrected")
	}
}

// TestFsyncFailureDropsRecord: a failed fsync means the fact was never
// durable, so the journal drops it (truncating the unflushed bytes) and
// reports the error — the caller then refuses to act on the fact.
func TestFsyncFailureDropsRecord(t *testing.T) {
	mem := NewMemFS()
	// Sync 1 is Open's snapshot; sync 2 covers stream 1's admit; sync 3
	// (stream 2's admit) fails.
	faulty := NewFaultFS(mem, FaultConfig{FailSync: 3})
	j, err := Open(Config{FS: faulty, FlushInterval: noFlush, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admitted(testStream(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admitted(testStream(2)); err == nil {
		t.Fatal("fsync failure did not surface an error")
	}
	if _, err := j.Admitted(testStream(3)); err != nil {
		t.Fatalf("append after fsync failure: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, mem)
	defer j2.Close()
	st := j2.State()
	if st.Streams[1] == nil || st.Streams[3] == nil {
		t.Fatalf("durable admissions lost: %+v", st.Streams)
	}
	if _, ok := st.Streams[2]; ok {
		t.Fatal("unsynced admission recovered as fact")
	}
}

// truncFailFS makes every Truncate fail — the double-fault shape where
// even repair is impossible and the journal must go read-only rather
// than risk appending after torn bytes.
type truncFailFS struct{ FS }

func (truncFailFS) Truncate(string, int64) error {
	return errors.New("injected truncate failure")
}

func TestUnrepairableAppendBreaksJournal(t *testing.T) {
	mem := NewMemFS()
	faulty := truncFailFS{NewFaultFS(mem, FaultConfig{FailWrite: 2})}
	j, err := Open(Config{FS: faulty, FlushInterval: noFlush, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admitted(testStream(1)); err == nil {
		t.Fatal("torn write did not surface an error")
	}
	if _, err := j.Admitted(testStream(2)); err == nil {
		t.Fatal("broken journal accepted an append")
	}
	j.Abandon()
	// The disk still holds torn bytes (repair failed), but recovery
	// handles that: it is just a torn tail.
	j2 := mustOpen(t, mem)
	defer j2.Close()
	if st := j2.State(); len(st.Streams) != 0 {
		t.Fatalf("torn record recovered as fact: %+v", st.Streams)
	}
}

// TestWatermarkCoalescing: many watermark notes for one stream cost one
// record per flush, and a stale (lower) mark can never roll state back.
func TestWatermarkCoalescing(t *testing.T) {
	mem := NewMemFS()
	j := mustOpen(t, mem)
	if _, err := j.Admitted(testStream(1)); err != nil {
		t.Fatal(err)
	}
	before := j.Stats().Appends
	for mark := 1; mark <= 50; mark++ {
		j.Watermark(1, mark, []byte{byte(mark)})
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	s := j.Stats()
	if got := s.Appends - before; got != 1 {
		t.Fatalf("50 coalesced watermarks took %d appends, want 1", got)
	}
	if s.WatermarksCoalesced != 50 || s.WatermarkBatches != 1 {
		t.Fatalf("coalescing stats: %+v", s)
	}
	// A stale mark after the fact must not regress the journaled state.
	j.Watermark(1, 10, []byte{10})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	j, st := reopen(t, j, mem)
	defer j.Close()
	if st.Streams[1].Watermark != 50 {
		t.Fatalf("stale watermark regressed state to %d", st.Streams[1].Watermark)
	}
}

// TestBackgroundFlusher: with a real flush interval, watermarks reach
// the disk without any explicit Flush call.
func TestBackgroundFlusher(t *testing.T) {
	mem := NewMemFS()
	j, err := Open(Config{FS: mem, FlushInterval: 2 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Admitted(testStream(1)); err != nil {
		t.Fatal(err)
	}
	j.Watermark(1, 42, []byte{42})
	deadline := time.Now().Add(5 * time.Second)
	for j.Stats().WatermarkBatches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	j, st := reopen(t, j, mem)
	defer j.Close()
	if st.Streams[1].Watermark != 42 {
		t.Fatalf("flushed watermark lost: %+v", st.Streams[1])
	}
}

// TestRotationCompacts: appends past SegmentBytes trigger rotation, and
// rotation is compaction — dead state does not survive into the new
// segment, and old segments are removed.
func TestRotationCompacts(t *testing.T) {
	mem := NewMemFS()
	j, err := Open(Config{FS: mem, SegmentBytes: 512, FlushInterval: noFlush, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for tok := uint64(1); tok <= 40; tok++ {
		if _, err := j.Admitted(testStream(tok)); err != nil {
			t.Fatal(err)
		}
		if tok%2 == 0 {
			if _, err := j.Completed(testTomb(tok, 60)); err != nil {
				t.Fatal(err)
			}
			if _, err := j.Expired(tok, tok, ExpireTombstone); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := j.Stats()
	if s.Rotations < 2 { // at least Open's compaction plus one size-triggered
		t.Fatalf("no size-triggered rotation: %+v", s)
	}
	names, _ := mem.ReadDir()
	if len(names) != 1 {
		t.Fatalf("old segments not removed: %v", names)
	}
	j, st := reopen(t, j, mem)
	defer j.Close()
	if len(st.Streams) != 20 || len(st.Tombstones) != 0 {
		t.Fatalf("recovered %d streams / %d tombstones, want 20 / 0",
			len(st.Streams), len(st.Tombstones))
	}
}

// TestAbandonDropsPending: Abandon is the crash-style close — pending
// watermarks die with it, exactly as a real SIGKILL would drop them.
func TestAbandonDropsPending(t *testing.T) {
	mem := NewMemFS()
	j := mustOpen(t, mem)
	if _, err := j.Admitted(testStream(1)); err != nil {
		t.Fatal(err)
	}
	j.Watermark(1, 5, []byte{5})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	j.Watermark(1, 30, []byte{30})
	j.Abandon() // no flush: mark 30 must not survive
	j2 := mustOpen(t, mem)
	defer j2.Close()
	if got := j2.State().Streams[1].Watermark; got != 5 {
		t.Fatalf("abandoned watermark recovered: %d, want 5", got)
	}
}

// TestCrashRecoverySoak drives generations of journal activity under
// the power-loss model: after every crash, every fsynced fact must
// survive, no unsynced fact may appear, and recovered watermarks land
// between the last flushed and last noted mark.
func TestCrashRecoverySoak(t *testing.T) {
	type fact struct {
		completed bool
		gone      bool
		pictures  int
		flushed   int
		latest    int
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfs := NewCrashFS(NewMemFS())
			durable := map[uint64]*fact{}
			next := uint64(1)
			live := func() []uint64 {
				var out []uint64
				for tok, f := range durable {
					if !f.completed && !f.gone {
						out = append(out, tok)
					}
				}
				return out
			}
			for gen := 0; gen < 12; gen++ {
				j, err := Open(Config{FS: cfs, SegmentBytes: 2048, FlushInterval: noFlush, Logf: t.Logf})
				if err != nil {
					t.Fatalf("gen %d: Open: %v", gen, err)
				}
				st := j.State()
				for tok, f := range durable {
					switch {
					case f.gone:
						_, s := st.Streams[tok]
						_, tb := st.Tombstones[tok]
						if s || tb {
							t.Fatalf("gen %d: expired token %d resurrected", gen, tok)
						}
					case f.completed:
						tb := st.Tombstones[tok]
						if tb == nil || tb.Pictures != f.pictures {
							t.Fatalf("gen %d: durable completion %d lost or wrong: %+v", gen, tok, tb)
						}
					default:
						s := st.Streams[tok]
						if s == nil {
							t.Fatalf("gen %d: durable admission %d lost", gen, tok)
						}
						if s.Watermark < f.flushed || s.Watermark > f.latest {
							t.Fatalf("gen %d: token %d watermark %d outside [%d, %d]",
								gen, tok, s.Watermark, f.flushed, f.latest)
						}
						// The server resumes the stream from here.
						f.flushed, f.latest = s.Watermark, s.Watermark
					}
				}
				for tok := range st.Streams {
					if f := durable[tok]; f == nil || f.completed || f.gone {
						t.Fatalf("gen %d: unknown or dead stream %d recovered", gen, tok)
					}
				}
				pending := map[uint64]int{}
				for i, ops := 0, 8+rng.Intn(12); i < ops; i++ {
					switch candidates := live(); {
					case len(candidates) == 0 || rng.Intn(4) == 0:
						tok := next
						next++
						if _, err := j.Admitted(testStream(tok)); err != nil {
							t.Fatalf("gen %d: admit %d: %v", gen, tok, err)
						}
						durable[tok] = &fact{}
					default:
						tok := candidates[rng.Intn(len(candidates))]
						f := durable[tok]
						switch rng.Intn(4) {
						case 0, 1:
							f.latest += 1 + rng.Intn(6)
							j.Watermark(tok, f.latest, []byte{byte(f.latest)})
							pending[tok] = f.latest
							if rng.Intn(2) == 0 {
								if err := j.Flush(); err != nil {
									t.Fatalf("gen %d: flush: %v", gen, err)
								}
								for ptok, mark := range pending {
									durable[ptok].flushed = mark
								}
								pending = map[uint64]int{}
							}
						case 2:
							tomb := testTomb(tok, f.latest)
							if _, err := j.Completed(tomb); err != nil {
								t.Fatalf("gen %d: complete %d: %v", gen, tok, err)
							}
							f.completed, f.pictures = true, f.latest
							delete(pending, tok)
						case 3:
							if _, err := j.Expired(tok, tok, ExpireFailed); err != nil {
								t.Fatalf("gen %d: expire %d: %v", gen, tok, err)
							}
							f.gone = true
							delete(pending, tok)
						}
					}
				}
				j.Abandon()
				if err := cfs.Crash(rng); err != nil {
					t.Fatalf("gen %d: crash: %v", gen, err)
				}
			}
		})
	}
}

// TestCloseIsIdempotent: double Close and post-Close appends behave.
func TestCloseIsIdempotent(t *testing.T) {
	mem := NewMemFS()
	j := mustOpen(t, mem)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := j.Admitted(testStream(1)); err == nil {
		t.Fatal("append after Close accepted")
	}
	j.Watermark(1, 1, nil) // must not panic
}
