// Journal tailing: the replication feed. A follower calls Follow to
// get a consistent snapshot of the live state plus a channel carrying
// every subsequently committed record frame. Frames are published under
// the journal lock at commit time — after the write (and, for fsynced
// kinds, the fsync) succeeds — so a frame on the feed is always a whole,
// CRC-valid record in commit order. Segment rotation republishes no
// facts (a rotation snapshot is a compaction of records the feed
// already carried), which is why a rotation boundary can never tear a
// frame across the feed: the feed is a logical record stream, not a
// byte tail of the segment files.
package journal

import "errors"

// Exported record-kind bytes, matching Record.Kind, for feed consumers
// that account records by kind.
const (
	KindAdmit     = kindAdmit
	KindWatermark = kindWatermark
	KindComplete  = kindComplete
	KindExpire    = kindExpire
	KindEpoch     = kindEpoch
)

// DefaultFollowBuffer is the per-subscriber frame buffer when Follow is
// called with a non-positive buffer size.
const DefaultFollowBuffer = 4096

// Offsets is the feed's publish cursor: the active segment sequence
// plus the cumulative committed records and bytes published since Open.
// A follower subtracts its own applied counts from the primary's cursor
// to report replication lag.
type Offsets struct {
	SegmentSeq uint64 `json:"segment_seq"`
	Records    uint64 `json:"records"`
	Bytes      uint64 `json:"bytes"`
}

// Follow subscribes to the record feed. It returns a snapshot — one
// segment image (magic plus framed records) encoding the live state at
// subscription time, scannable with ScanSegment — the cursor that
// snapshot corresponds to, and a channel of every record frame
// committed after it. A subscriber that falls more than buffer frames
// behind is dropped: its channel closes, and it re-attaches with a
// fresh Follow (a resync), so a slow follower can never block the
// commit path. cancel unsubscribes (idempotent).
func (j *Journal) Follow(buffer int) (snapshot []byte, at Offsets, frames <-chan []byte, cancel func(), err error) {
	if buffer <= 0 {
		buffer = DefaultFollowBuffer
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, Offsets{}, nil, nil, errors.New("journal: closed")
	}
	snapshot = j.snapshotLocked()
	at = Offsets{SegmentSeq: j.seq, Records: j.pubRecs, Bytes: j.pubBytes}
	ch := make(chan []byte, buffer)
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	cancel = func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if c, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(c)
		}
	}
	return snapshot, at, ch, cancel, nil
}

// FollowOffsets reports the current publish cursor — the payload of a
// replication heartbeat.
func (j *Journal) FollowOffsets() Offsets {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Offsets{SegmentSeq: j.seq, Records: j.pubRecs, Bytes: j.pubBytes}
}

// publishLocked hands one committed frame to every live subscriber.
// Subscribers with a full channel are dropped (channel closed) rather
// than waited on. Caller holds j.mu.
func (j *Journal) publishLocked(frame []byte) {
	j.pubRecs++
	j.pubBytes += uint64(len(frame))
	if len(j.subs) == 0 {
		return
	}
	cp := append([]byte(nil), frame...)
	for id, ch := range j.subs {
		select {
		case ch <- cp:
		default:
			delete(j.subs, id)
			close(ch)
		}
	}
}

// closeSubsLocked ends every subscription; Close and Abandon call it so
// followers observe the journal's death promptly. Caller holds j.mu.
func (j *Journal) closeSubsLocked() {
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
}

// AppendRecords commits a run of decoded records — the follower side
// of the feed — as one group-commit batch. Records replicated from a
// primary land in the standby journal under the same durability rules
// as locally originated facts: watermarks coalesce for the flusher
// exactly as in Watermark, and every durable kind (admit, complete,
// expire, epoch) rides a single batch fsync. A follower that drained
// several replication frames off its socket applies them all for the
// price of one sync — its cumulative ack then acknowledges the whole
// run. An error fails the entire durable run (the batch never splits).
func (j *Journal) AppendRecords(recs []Record) error {
	_, err := j.commit(recs...)
	return err
}

// ResetTo replaces the journal's live state wholesale with the state
// the given records fold to — a Follow snapshot the follower just
// scanned — and compacts it into a fresh segment. This is the resync
// entry point: a follower that was dropped from the feed (or connected
// to a new primary) starts over from the primary's snapshot instead of
// reconciling diverged histories.
func (j *Journal) ResetTo(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Rotation swaps the active file and the reset replaces the state a
	// batch leader would fold its records into; wait out any in-flight
	// batch first.
	for j.committing {
		j.commitCond.Wait()
	}
	if err := j.appendableLocked(); err != nil {
		return err
	}
	j.dirty = map[uint64]wmEntry{}
	j.state = newState()
	for _, r := range recs {
		j.state.apply(r)
	}
	return j.rotateLocked()
}
