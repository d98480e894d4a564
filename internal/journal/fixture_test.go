package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fixtureSegment holds the bytes fixtureSequence wrote when the fixture
// was committed. It pins the on-disk format: a mismatch means a record
// encoding or the write path changed the segment, and the fixture must
// not be regenerated to hide that.
var fixtureSegment = filepath.Join("testdata", "seg-00000001.wal")

// fixtureSequence drives one journal through every record kind and
// leaves a dirty watermark for Close to drain, then returns the single
// segment it wrote. Nothing in it depends on the clock or on map order:
// each flush carries one stream's watermark, and the journal never
// rotates past its opening snapshot.
func fixtureSequence(t *testing.T) []byte {
	t.Helper()
	mem := NewMemFS()
	j := mustOpen(t, mem)
	if _, err := j.AppendEpoch(3); err != nil {
		t.Fatal(err)
	}
	for tok := uint64(1); tok <= 3; tok++ {
		if _, err := j.Admitted(testStream(tok)); err != nil {
			t.Fatal(err)
		}
	}
	j.Watermark(1, 4, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	tomb := testTomb(2, 60)
	tomb.Expires = time.Date(2200, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := j.Completed(tomb); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Expired(3, 3, ExpireFailed); err != nil {
		t.Fatal(err)
	}
	j.Watermark(1, 7, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := mem.ReadDir()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != filepath.Base(fixtureSegment) {
		t.Fatalf("segments %v, want exactly %s", names, filepath.Base(fixtureSegment))
	}
	data, err := mem.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSegmentFixture pins the journal's on-disk bytes: the fixed call
// sequence must write the committed fixture byte for byte, and a
// journal opened over the fixture must replay it to the expected state.
func TestSegmentFixture(t *testing.T) {
	want, err := os.ReadFile(fixtureSegment)
	if err != nil {
		t.Fatal(err)
	}
	if got := fixtureSequence(t); !bytes.Equal(got, want) {
		t.Fatalf("segment differs from %s:\n got %d bytes %x\nwant %d bytes %x",
			fixtureSegment, len(got), got, len(want), want)
	}

	mem := NewMemFS()
	mem.WriteFile(filepath.Base(fixtureSegment), want)
	j := mustOpen(t, mem)
	defer j.Close()
	st := j.State()
	if st.Epoch != 3 {
		t.Errorf("epoch %d, want 3", st.Epoch)
	}
	if len(st.Streams) != 1 || st.Streams[1] == nil || st.Streams[1].Watermark != 7 ||
		!bytes.Equal(st.Streams[1].HashState, []byte{8, 7, 6, 5, 4, 3, 2, 1}) {
		t.Errorf("streams %+v, want only stream 1 at watermark 7", st.Streams)
	}
	if len(st.Tombstones) != 1 || st.Tombstones[2] == nil || st.Tombstones[2].Pictures != 60 {
		t.Errorf("tombstones %+v, want only token 2", st.Tombstones)
	}
	if _, live := st.Streams[3]; live {
		t.Error("expired stream 3 replayed as live")
	}
}
