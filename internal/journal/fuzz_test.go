package journal

import (
	"reflect"
	"testing"
)

// FuzzJournalReplay throws arbitrary bytes at the segment scanner and
// checks the recovery invariants that every crash shape depends on:
// the scan never panics, never reads past the data, reports a valid
// offset that is a fixed point under truncation (rescanning the kept
// prefix is clean and yields identical records), and the records it
// does surface apply idempotently.
func FuzzJournalReplay(f *testing.F) {
	clean := buildSegment(
		appendAdmitFrame(nil, testStream(1)),
		appendWatermarkFrame(nil, 1, 3, []byte{1, 2}),
		appendCompleteFrame(nil, testTomb(2, 60)),
		appendExpireFrame(nil, 2, 2, ExpireTombstone),
	)
	f.Add(clean)
	f.Add(clean[:len(clean)-3]) // torn tail
	f.Add(clean[:len(segMagic)])
	f.Add([]byte{})
	f.Add([]byte("JUNKJUNK"))
	corrupt := append([]byte(nil), clean...)
	corrupt[len(segMagic)+7] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, err := ScanSegment(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d out of [0, %d]", valid, len(data))
		}
		if err == nil && valid != len(data) {
			t.Fatalf("clean scan stopped early: %d of %d", valid, len(data))
		}
		if err == nil || valid >= len(segMagic) {
			recs2, valid2, err2 := ScanSegment(data[:valid])
			if err2 != nil || valid2 != valid || !reflect.DeepEqual(recs, recs2) {
				t.Fatalf("truncation to %d not a fixed point: err %v", valid, err2)
			}
		}
		// Applying whatever was recovered is total and idempotent:
		// replaying the same records twice changes nothing.
		once, twice := newState(), newState()
		for _, r := range recs {
			once.apply(r)
		}
		for i := 0; i < 2; i++ {
			for _, r := range recs {
				twice.apply(r)
			}
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatal("replay is not idempotent")
		}
	})
}
