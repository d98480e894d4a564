// Package journal is smoothd's write-ahead log: an append-only,
// CRC-framed, fsync-on-commit record of the exactly-once session facts
// — stream admitted, watermark advanced, stream completed, state
// expired — so the nonce ledger, admission reservations, parked-stream
// table, and completion tombstones survive a server crash. PR 4 made
// the session protocol exactly-once in memory; this package extends the
// state machine across process death: a ResumableSender that redials
// after a crash finds its stream parked at the journaled watermark (or
// tombstoned with its final hash) instead of rejected as unknown.
//
// Layout: the journal directory holds numbered segments
// (seg-00000001.wal …), each starting with a magic header and holding
// records, each a length-prefixed frame of package frame
//
//	kind (1) | bodyLen (4) | body | crc32 (4)
//
// where the CRC covers kind|len|body. Records that commit a fact a
// peer may act on (admission, completion, expiry) are fsynced before
// the corresponding verdict or ack leaves the server; watermark records
// are coalesced per stream and flushed on a timer, so the per-picture
// hot path never waits on a disk. Losing the last flush interval of
// watermarks is safe: the sender replays from an older watermark and
// the server re-accepts idempotently.
//
// Every record enters through one function, commit, and durable
// records go through a group commit (see DESIGN.md §14): concurrent
// committers enqueue their pre-encoded frames on a commit queue and the
// caller at the front becomes the batch leader, writing every queued
// frame with one write and one fsync while the lock is released — so
// more committers keep joining the next batch during the disk wait. Each caller still blocks until *its* record is durable,
// which preserves the ordering invariant byte-for-byte: a verdict or
// ack never leaves the server before its record has been fsynced.
//
// Recovery replays segments in order, verifying every CRC. A torn tail
// — a record cut short by the crash — is truncated deterministically:
// the scan stops at the first record that fails length or CRC checks,
// and the active segment is physically cut back to the last good
// record. Replay is idempotent (admits never resurrect tombstoned
// streams, watermarks only advance, completions overwrite), which makes
// every crash window safe, including a crash during compaction that
// leaves duplicate records in both an old segment and its snapshot.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"mpegsmooth/internal/frame"
	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/transport"
)

// Record kinds.
const (
	kindAdmit     byte = 'A'
	kindWatermark byte = 'W'
	kindComplete  byte = 'C'
	kindExpire    byte = 'X'
	kindEpoch     byte = 'E'
)

// segMagic opens every segment file; a version bump invalidates old
// journals loudly instead of misparsing them.
var segMagic = []byte("MSJ1")

// maxRecordBody bounds a record body during scanning, so a corrupt
// length field reads as a torn record rather than a giant allocation.
const maxRecordBody = 4096

// maxHashState bounds the persisted prefix-hash state (SHA-256 chain =
// 32 bytes; FNV = 8).
const maxHashState = 64

// DefaultSegmentBytes rotates (and compacts) the active segment once it
// exceeds this size.
const DefaultSegmentBytes = 1 << 20

// DefaultFlushInterval batches watermark records.
const DefaultFlushInterval = 25 * time.Millisecond

var (
	errClosed = errors.New("journal: closed")
	errBroken = errors.New("journal: broken (unrepairable append failure)")
)

// ExpireReason says why journaled state was dropped.
type ExpireReason byte

const (
	// ExpireFailed: the stream failed terminally (its reservation was
	// released).
	ExpireFailed ExpireReason = iota
	// ExpireResumeWindow: a parked stream's resume window lapsed with no
	// reconnect.
	ExpireResumeWindow
	// ExpireTombstone: a completion tombstone aged out.
	ExpireTombstone
)

// StreamRecord is the journaled state of one live (possibly parked)
// stream: everything recovery needs to rebuild the session — the hello
// (bit-exact, so nonce dedup still compares equal), the resume token,
// the accept watermark, and the prefix hash state at that watermark.
type StreamRecord struct {
	Token     uint64
	Hello     transport.StreamHello
	Watermark int
	HashState []byte
}

// TombstoneRecord is the journaled state of a completed stream: enough
// to answer a late resume with a hash-verified AlreadyComplete verdict.
type TombstoneRecord struct {
	Token     uint64
	Nonce     uint64
	Pictures  int
	HashState []byte
	Expires   time.Time
}

// State is the replayed journal: live streams and completion tombstones
// by resume token, plus the highest primary epoch the journal has
// witnessed (see the epoch record kind).
type State struct {
	Streams    map[uint64]*StreamRecord
	Tombstones map[uint64]*TombstoneRecord
	// Epoch is the highest epoch record replayed: the fencing term of
	// the last primary whose authority this journal acknowledged. Zero
	// means the journal predates any promotion.
	Epoch uint64
}

func newState() State {
	return State{Streams: map[uint64]*StreamRecord{}, Tombstones: map[uint64]*TombstoneRecord{}}
}

// clone deep-copies the state so callers can mutate their view.
func (s State) clone() State {
	out := newState()
	out.Epoch = s.Epoch
	for k, v := range s.Streams {
		cp := *v
		cp.HashState = append([]byte(nil), v.HashState...)
		out.Streams[k] = &cp
	}
	for k, v := range s.Tombstones {
		cp := *v
		cp.HashState = append([]byte(nil), v.HashState...)
		out.Tombstones[k] = &cp
	}
	return out
}

// apply folds one record into the state. The rules make replay
// idempotent under arbitrary duplication (the crash-during-compaction
// shape): admits never overwrite or resurrect, watermarks only advance,
// completions and expiries are absorbing.
func (s *State) apply(r Record) {
	switch r.Kind {
	case kindAdmit:
		if _, dead := s.Tombstones[r.Stream.Token]; dead {
			return
		}
		if _, live := s.Streams[r.Stream.Token]; live {
			return
		}
		cp := r.Stream
		cp.HashState = append([]byte(nil), r.Stream.HashState...)
		s.Streams[cp.Token] = &cp
	case kindWatermark:
		st, ok := s.Streams[r.Token]
		if !ok || r.Watermark <= st.Watermark {
			return
		}
		st.Watermark = r.Watermark
		st.HashState = append(st.HashState[:0], r.HashState...)
	case kindComplete:
		delete(s.Streams, r.Tomb.Token)
		cp := r.Tomb
		cp.HashState = append([]byte(nil), r.Tomb.HashState...)
		s.Tombstones[cp.Token] = &cp
	case kindExpire:
		if r.Reason == ExpireTombstone {
			delete(s.Tombstones, r.Token)
		} else {
			delete(s.Streams, r.Token)
		}
	case kindEpoch:
		// Epochs are monotone: a duplicate or stale epoch record (replay,
		// compaction overlap) never winds the term backwards.
		if r.Epoch > s.Epoch {
			s.Epoch = r.Epoch
		}
	}
}

// Record is one decoded journal entry. Only the fields for its Kind are
// meaningful.
type Record struct {
	Kind      byte
	Stream    StreamRecord    // kindAdmit
	Token     uint64          // kindWatermark, kindExpire
	Watermark int             // kindWatermark
	HashState []byte          // kindWatermark
	Tomb      TombstoneRecord // kindComplete
	Nonce     uint64          // kindExpire
	Reason    ExpireReason    // kindExpire
	Epoch     uint64          // kindEpoch
}

// Frame encoders append a complete framed record — kind | len | body |
// crc — to dst and return the extended slice. They are append-style so
// the group-commit path can encode straight into a reused batch buffer
// with no per-record allocation.

func appendAdmitFrame(dst []byte, rec StreamRecord) []byte {
	start := len(dst)
	dst = frame.Begin(dst, kindAdmit, 0)
	h := rec.Hello
	dst = binary.BigEndian.AppendUint64(dst, rec.Token)
	dst = binary.BigEndian.AppendUint64(dst, h.Nonce)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(h.Tau))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.GOP.N))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.GOP.M))
	dst = binary.BigEndian.AppendUint16(dst, uint16(h.K))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(h.D))
	dst = binary.BigEndian.AppendUint32(dst, uint32(h.Pictures))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(h.PeakRate))
	dst = append(dst, byte(h.Integrity))
	return frame.EndLen(dst, start)
}

func appendWatermarkFrame(dst []byte, token uint64, mark int, state []byte) []byte {
	start := len(dst)
	dst = frame.Begin(dst, kindWatermark, 0)
	dst = binary.BigEndian.AppendUint64(dst, token)
	dst = binary.BigEndian.AppendUint32(dst, uint32(mark))
	dst = append(dst, byte(len(state)))
	dst = append(dst, state...)
	return frame.EndLen(dst, start)
}

func appendCompleteFrame(dst []byte, rec TombstoneRecord) []byte {
	start := len(dst)
	dst = frame.Begin(dst, kindComplete, 0)
	dst = binary.BigEndian.AppendUint64(dst, rec.Token)
	dst = binary.BigEndian.AppendUint64(dst, rec.Nonce)
	dst = binary.BigEndian.AppendUint32(dst, uint32(rec.Pictures))
	dst = binary.BigEndian.AppendUint64(dst, uint64(rec.Expires.UnixNano()))
	dst = append(dst, byte(len(rec.HashState)))
	dst = append(dst, rec.HashState...)
	return frame.EndLen(dst, start)
}

func appendExpireFrame(dst []byte, token, nonce uint64, reason ExpireReason) []byte {
	start := len(dst)
	dst = frame.Begin(dst, kindExpire, 0)
	dst = binary.BigEndian.AppendUint64(dst, token)
	dst = binary.BigEndian.AppendUint64(dst, nonce)
	dst = append(dst, byte(reason))
	return frame.EndLen(dst, start)
}

func appendEpochFrame(dst []byte, epoch uint64) []byte {
	start := len(dst)
	dst = frame.Begin(dst, kindEpoch, 0)
	dst = binary.BigEndian.AppendUint64(dst, epoch)
	return frame.EndLen(dst, start)
}

// decodeBody interprets a CRC-verified record body.
func decodeBody(kind byte, body []byte) (Record, error) {
	bad := func(format string, a ...any) (Record, error) {
		return Record{}, fmt.Errorf("journal: %c record "+format, append([]any{kind}, a...)...)
	}
	switch kind {
	case kindAdmit:
		if len(body) != 51 {
			return bad("body %d bytes, want 51", len(body))
		}
		rec := StreamRecord{
			Token: binary.BigEndian.Uint64(body[0:8]),
			Hello: transport.StreamHello{
				Nonce: binary.BigEndian.Uint64(body[8:16]),
				Tau:   math.Float64frombits(binary.BigEndian.Uint64(body[16:24])),
				GOP: mpeg.GOP{
					N: int(binary.BigEndian.Uint16(body[24:26])),
					M: int(binary.BigEndian.Uint16(body[26:28])),
				},
				K:         int(binary.BigEndian.Uint16(body[28:30])),
				D:         math.Float64frombits(binary.BigEndian.Uint64(body[30:38])),
				Pictures:  int(binary.BigEndian.Uint32(body[38:42])),
				PeakRate:  math.Float64frombits(binary.BigEndian.Uint64(body[42:50])),
				Integrity: transport.IntegrityMode(body[50]),
			},
		}
		if rec.Token == 0 {
			return bad("zero token")
		}
		if err := rec.Hello.Validate(); err != nil {
			return bad("hello: %v", err)
		}
		return Record{Kind: kind, Stream: rec}, nil
	case kindWatermark:
		if len(body) < 13 {
			return bad("body %d bytes, want >= 13", len(body))
		}
		n := int(body[12])
		if n > maxHashState || len(body) != 13+n {
			return bad("state length %d in %d-byte body", n, len(body))
		}
		return Record{
			Kind:      kind,
			Token:     binary.BigEndian.Uint64(body[0:8]),
			Watermark: int(binary.BigEndian.Uint32(body[8:12])),
			HashState: append([]byte(nil), body[13:13+n]...),
		}, nil
	case kindComplete:
		if len(body) < 29 {
			return bad("body %d bytes, want >= 29", len(body))
		}
		n := int(body[28])
		if n > maxHashState || len(body) != 29+n {
			return bad("state length %d in %d-byte body", n, len(body))
		}
		return Record{Kind: kind, Tomb: TombstoneRecord{
			Token:     binary.BigEndian.Uint64(body[0:8]),
			Nonce:     binary.BigEndian.Uint64(body[8:16]),
			Pictures:  int(binary.BigEndian.Uint32(body[16:20])),
			Expires:   time.Unix(0, int64(binary.BigEndian.Uint64(body[20:28]))),
			HashState: append([]byte(nil), body[29:29+n]...),
		}}, nil
	case kindExpire:
		if len(body) != 17 {
			return bad("body %d bytes, want 17", len(body))
		}
		reason := ExpireReason(body[16])
		if reason > ExpireTombstone {
			return bad("unknown reason %d", body[16])
		}
		return Record{
			Kind:   kind,
			Token:  binary.BigEndian.Uint64(body[0:8]),
			Nonce:  binary.BigEndian.Uint64(body[8:16]),
			Reason: reason,
		}, nil
	case kindEpoch:
		if len(body) != 8 {
			return bad("body %d bytes, want 8", len(body))
		}
		epoch := binary.BigEndian.Uint64(body)
		if epoch == 0 {
			return bad("zero epoch")
		}
		return Record{Kind: kind, Epoch: epoch}, nil
	}
	return Record{}, fmt.Errorf("journal: unknown record kind %#02x", kind)
}

// ScanSegment parses one segment's bytes. It returns every record up to
// the first damage, plus valid — the byte offset of the last good
// record's end (the deterministic truncation point). err is non-nil
// when damage was found; a fully clean segment returns valid ==
// len(data) and a nil error. Scanning data[:valid] again yields the
// identical records and no error: truncation is a fixed point.
func ScanSegment(data []byte) (recs []Record, valid int, err error) {
	if len(data) < len(segMagic) {
		return nil, 0, errors.New("journal: segment shorter than its magic")
	}
	if string(data[:len(segMagic)]) != string(segMagic) {
		return nil, 0, errors.New("journal: bad segment magic")
	}
	off := len(segMagic)
	for off < len(data) {
		rec, n, perr := ParseFrame(data[off:])
		if perr != nil {
			return recs, off, fmt.Errorf("journal: record at %d: %w", off, perr)
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off, nil
}

// ParseFrame decodes the single framed record at the front of b,
// verifying its length bounds and CRC, and returns the record plus its
// encoded size. It is the unit the segment scanner and the replication
// feed share: a feed consumer parses each published frame with it and
// must always consume the frame exactly.
func ParseFrame(b []byte) (Record, int, error) {
	kind, body, n, err := frame.Split(b, maxRecordBody)
	if err != nil {
		return Record{}, 0, err
	}
	rec, err := decodeBody(kind, body)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

// Config parameterizes a Journal.
type Config struct {
	// Dir is the journal directory (used when FS is nil).
	Dir string
	// FS overrides the filesystem (tests: MemFS, FaultFS, CrashFS).
	FS FS
	// SegmentBytes triggers rotation + compaction past this active
	// segment size (default DefaultSegmentBytes).
	SegmentBytes int64
	// FlushInterval batches coalesced watermark records (default
	// DefaultFlushInterval; < 0 disables the background flusher — tests
	// then call Flush explicitly).
	FlushInterval time.Duration
	// Logf, when set, receives repair and replay notes.
	Logf func(format string, args ...any)
}

// Stats counts journal activity for the ops endpoint.
type Stats struct {
	Segments            int   `json:"segments"`
	ActiveSegmentBytes  int64 `json:"active_segment_bytes"`
	Appends             int64 `json:"appends"`
	AppendedBytes       int64 `json:"appended_bytes"`
	Fsyncs              int64 `json:"fsyncs"`
	WatermarksCoalesced int64 `json:"watermarks_coalesced"`
	WatermarkBatches    int64 `json:"watermark_batches"`
	Rotations           int64 `json:"rotations"`
	ReplayedRecords     int   `json:"replayed_records"`
	ReplayedSegments    int   `json:"replayed_segments"`
	TruncatedTailBytes  int64 `json:"truncated_tail_bytes"`
	AppendErrors        int64 `json:"append_errors"`
	LiveStreams         int   `json:"live_streams"`
	LiveTombstones      int   `json:"live_tombstones"`

	// Group-commit batching: how many leader-led batches committed, the
	// records they carried (avg batch size = records/batches), the
	// largest single batch, total leader time spent in write+fsync
	// (avg commit latency = nanos/batches), and how many committers are
	// parked on the queue right now.
	CommitBatches      int64 `json:"commit_batches"`
	CommitBatchRecords int64 `json:"commit_batch_records"`
	CommitMaxBatch     int64 `json:"commit_max_batch"`
	CommitNanos        int64 `json:"commit_nanos"`
	CommitPending      int   `json:"commit_pending"`
}

// wmEntry is one coalesced pending watermark. Its state buffer is owned
// by the journal (copied from the caller's scratch) and recycled through
// wmFree at flush time, so the per-picture path settles at zero
// allocations.
type wmEntry struct {
	mark  int
	state []byte
}

// commitWaiter is one committer's stake in a group-commit batch: its
// pre-encoded frames (buf, with per-frame end offsets in ends), the
// decoded records to fold into the state after the fsync lands, and the
// promise fields the batch leader resolves. Waiters are recycled
// through a freelist so steady-state commits allocate nothing.
type commitWaiter struct {
	buf  []byte
	ends []int
	recs []Record

	seq  uint64
	err  error
	done bool
}

// add encodes r as one more frame of the waiter's run. A watermark's
// HashState is pointed into the frame just encoded (body layout: token 8
// | mark 4 | len 1 | state), so the caller's state buffer can be
// recycled the moment add returns.
func (w *commitWaiter) add(r Record) {
	start := len(w.buf)
	switch r.Kind {
	case kindAdmit:
		w.buf = appendAdmitFrame(w.buf, r.Stream)
	case kindWatermark:
		w.buf = appendWatermarkFrame(w.buf, r.Token, r.Watermark, r.HashState)
		if n := len(r.HashState); n > 0 {
			r.HashState = w.buf[start+18 : start+18+n]
		}
	case kindComplete:
		w.buf = appendCompleteFrame(w.buf, r.Tomb)
	case kindExpire:
		w.buf = appendExpireFrame(w.buf, r.Token, r.Nonce, r.Reason)
	case kindEpoch:
		w.buf = appendEpochFrame(w.buf, r.Epoch)
	}
	w.ends = append(w.ends, len(w.buf))
	w.recs = append(w.recs, r)
}

// Journal is an open write-ahead log. All methods are safe for
// concurrent use.
type Journal struct {
	cfg Config
	fs  FS

	mu         sync.Mutex
	active     File
	activeName string
	activeSize int64
	seq        uint64
	segments   []string
	state      State
	recovered  State
	dirty      map[uint64]wmEntry
	wmFree     [][]byte
	stats      Stats
	broken     bool
	closing    bool
	closed     bool

	// Group commit. commitQ holds enqueued waiters in arrival order;
	// the waiter at the front leads the batch. committing is true while
	// a leader owns the active file (possibly with mu released for the
	// write+fsync); commitCond is broadcast whenever a batch resolves.
	// commitSpare/batchBuf/waiterFree are reuse pools.
	commitCond  sync.Cond
	commitQ     []*commitWaiter
	commitSpare []*commitWaiter
	committing  bool
	batchBuf    []byte
	waiterFree  []*commitWaiter

	// The record feed (see tail.go): committed frames are published to
	// subscribers under j.mu, and the cursor counts what was published.
	subs     map[uint64]chan []byte
	nextSub  uint64
	pubRecs  uint64
	pubBytes uint64

	flushStop chan struct{}
	flushDone chan struct{}
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.FS == nil {
		if cfg.Dir == "" {
			return cfg, errors.New("journal: Config needs Dir or FS")
		}
		fs, err := DirFS(cfg.Dir)
		if err != nil {
			return cfg, err
		}
		cfg.FS = fs
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = DefaultFlushInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg, nil
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.wal", seq) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name, "seg-%08d.wal", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Open replays the journal directory, truncates any torn tail in the
// final segment, compacts the replayed state into a fresh snapshot
// segment (bounding both recovery time and disk growth), and returns
// the journal ready for appends. The replayed state is available via
// State.
func Open(cfg Config) (*Journal, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	j := &Journal{
		cfg:   full,
		fs:    full.FS,
		state: newState(),
		dirty: map[uint64]wmEntry{},
		subs:  map[uint64]chan []byte{},
	}
	j.commitCond.L = &j.mu
	if err := j.replay(); err != nil {
		return nil, err
	}
	// Startup compaction: everything live goes into one fresh segment,
	// and the (possibly torn, possibly duplicated) history is deleted.
	// State is what the compaction kept, so no tombstone it dropped as
	// expired reaches recovery.
	j.mu.Lock()
	err = j.rotateLocked()
	j.recovered = j.state.clone()
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if full.FlushInterval > 0 {
		j.flushStop = make(chan struct{})
		j.flushDone = make(chan struct{})
		go j.flusher(full.FlushInterval, j.flushStop, j.flushDone)
	}
	return j, nil
}

// replay loads every segment in sequence order into j.state.
func (j *Journal) replay() error {
	names, err := j.fs.ReadDir()
	if err != nil {
		return fmt.Errorf("journal: listing segments: %w", err)
	}
	type seg struct {
		name string
		seq  uint64
	}
	var segs []seg
	for _, n := range names {
		if s, ok := parseSegName(n); ok {
			segs = append(segs, seg{name: n, seq: s})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].seq < segs[b].seq })
	for i, sg := range segs {
		data, err := j.fs.ReadFile(sg.name)
		if err != nil {
			return fmt.Errorf("journal: reading %s: %w", sg.name, err)
		}
		if len(data) == 0 {
			// A crash between segment creation and the magic write leaves
			// an empty file: nothing to replay.
			j.cfg.Logf("journal: %s is empty (crash before header); skipping", sg.name)
			continue
		}
		recs, valid, scanErr := ScanSegment(data)
		if scanErr != nil {
			// Damage. In the final segment this is the expected torn tail
			// of a crash mid-append; anywhere else it still truncates the
			// replay of that segment at the last good record — the
			// idempotent records after it (in later segments or the
			// snapshot) reconstruct what can be reconstructed.
			torn := int64(len(data) - valid)
			j.stats.TruncatedTailBytes += torn
			j.cfg.Logf("journal: %s: %v; dropping %d-byte tail (%d records kept)",
				sg.name, scanErr, torn, len(recs))
			if i == len(segs)-1 && valid > 0 {
				if terr := j.fs.Truncate(sg.name, int64(valid)); terr != nil {
					return fmt.Errorf("journal: truncating torn tail of %s: %w", sg.name, terr)
				}
			}
		}
		for _, r := range recs {
			j.state.apply(r)
		}
		j.stats.ReplayedRecords += len(recs)
		j.stats.ReplayedSegments++
		j.segments = append(j.segments, sg.name)
		if sg.seq > j.seq {
			j.seq = sg.seq
		}
	}
	return nil
}

// State returns the state recovered at Open, as its startup compaction
// left it — what the server rebuilds its ledgers from.
func (j *Journal) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered.clone()
}

// Stats returns a snapshot of the journal counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	s.Segments = len(j.segments)
	s.ActiveSegmentBytes = j.activeSize
	s.LiveStreams = len(j.state.Streams)
	s.LiveTombstones = len(j.state.Tombstones)
	s.CommitPending = len(j.commitQ)
	return s
}

// appendableLocked gates new commits. Caller holds j.mu.
func (j *Journal) appendableLocked() error {
	if j.closing || j.closed {
		return errClosed
	}
	if j.broken {
		return errBroken
	}
	return nil
}

// getWaiterLocked / putWaiterLocked recycle commitWaiters (and their
// encode buffers) so steady-state durable appends allocate nothing.
// Caller holds j.mu.
func (j *Journal) getWaiterLocked() *commitWaiter {
	if n := len(j.waiterFree); n > 0 {
		w := j.waiterFree[n-1]
		j.waiterFree = j.waiterFree[:n-1]
		return w
	}
	return &commitWaiter{}
}

func (j *Journal) putWaiterLocked(w *commitWaiter) {
	if len(j.waiterFree) >= 64 {
		return
	}
	w.buf = w.buf[:0]
	w.ends = w.ends[:0]
	w.recs = w.recs[:0]
	w.seq, w.err, w.done = 0, nil, false
	j.waiterFree = append(j.waiterFree, w)
}

// commitLocked enqueues w and blocks until a batch leader has made it
// durable (or failed it). The committer at the front of the queue
// becomes the leader for everything queued at that moment; everyone
// else parks on commitCond. Because the leader performs its write+fsync
// with j.mu released, new committers keep enqueuing *during* the disk
// wait and form the next batch. Caller holds j.mu and still holds it
// on return; the caller reads w.seq/w.err and recycles w.
func (j *Journal) commitLocked(w *commitWaiter) (uint64, error) {
	j.commitQ = append(j.commitQ, w)
	for {
		if w.done {
			return w.seq, w.err
		}
		if !j.committing && j.commitQ[0] == w {
			break
		}
		j.commitCond.Wait()
	}
	j.leadBatchLocked()
	return w.seq, w.err
}

// leadBatchLocked runs one group-commit batch with the calling waiter
// at the front of the queue. It is the only code that appends to or
// syncs the active segment. It never finds the journal closed: Abandon
// resolves every queued waiter, and Close closes after its own drain.
// Caller holds j.mu; the lock is released for the disk IO and
// reacquired before return.
func (j *Journal) leadBatchLocked() {
	j.committing = true
	batch := j.commitQ
	j.commitQ = j.commitSpare[:0]
	j.commitSpare = batch

	nrecs := 0
	buf := j.batchBuf[:0]
	for _, bw := range batch {
		buf = append(buf, bw.buf...)
		nrecs += len(bw.recs)
	}
	j.batchBuf = buf

	fail := func(err error) {
		j.stats.AppendErrors += int64(nrecs)
		for _, bw := range batch {
			bw.err = err
			bw.done = true
		}
		j.finishBatchLocked()
	}

	if j.broken {
		fail(errBroken)
		return
	}
	if j.activeSize > j.cfg.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			fail(err)
			return
		}
	}

	off := j.activeSize
	f := j.active
	start := time.Now()
	j.mu.Unlock()
	_, err := f.Write(buf)
	if err != nil {
		err = fmt.Errorf("journal: append: %w", err)
	} else if serr := f.Sync(); serr != nil {
		err = fmt.Errorf("journal: fsync: %w", serr)
	}
	j.mu.Lock()
	j.stats.CommitNanos += time.Since(start).Nanoseconds()

	if err != nil {
		// One failed batch fsync fails every committer in it: the
		// segment is truncated back to the pre-batch offset, so no
		// prefix of the batch can survive a replay while its caller was
		// told the append failed. A batch never splits.
		j.repairLocked(off)
		fail(err)
		return
	}

	j.activeSize = off + int64(len(buf))
	j.stats.Fsyncs++
	j.stats.Appends += int64(nrecs)
	j.stats.AppendedBytes += int64(len(buf))
	j.stats.CommitBatches++
	j.stats.CommitBatchRecords += int64(nrecs)
	if int64(nrecs) > j.stats.CommitMaxBatch {
		j.stats.CommitMaxBatch = int64(nrecs)
	}
	for _, bw := range batch {
		prev := 0
		for i, end := range bw.ends {
			j.publishLocked(bw.buf[prev:end])
			j.state.apply(bw.recs[i])
			prev = end
		}
		bw.seq = j.pubRecs
		bw.done = true
	}
	j.finishBatchLocked()
}

// finishBatchLocked releases batch leadership and wakes every parked
// committer (resolved waiters return; the new queue front leads the
// next batch). If the journal was abandoned while the leader owned the
// file handle, the close was deferred to here. Caller holds j.mu.
func (j *Journal) finishBatchLocked() {
	j.committing = false
	if j.closed && j.active != nil {
		j.active.Close()
		j.active = nil
	}
	j.commitCond.Broadcast()
}

// commit is the one way a record enters the journal. A watermark
// coalesces for the flusher and an epoch at or below the current one is
// already held; every other record is encoded onto one commit waiter,
// and the run rides a single group-commit batch, so an error fails all
// of it. A completion, or the expiry of a live stream, drops the
// stream's pending watermark once the journal has accepted the record.
// The returned sequence is the publish-feed position of the last record
// committed, or the current position when nothing needed a commit.
func (j *Journal) commit(recs ...Record) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var w *commitWaiter
	for _, r := range recs {
		switch {
		case r.Kind == kindWatermark:
			j.coalesceLocked(r.Token, r.Watermark, r.HashState)
			continue
		case r.Kind == kindEpoch && r.Epoch <= j.state.Epoch:
			continue
		}
		if err := j.appendableLocked(); err != nil {
			return 0, err
		}
		switch r.Kind {
		case kindComplete:
			j.dropDirtyLocked(r.Tomb.Token) // superseded
		case kindExpire:
			if r.Reason != ExpireTombstone {
				j.dropDirtyLocked(r.Token)
			}
		case kindAdmit, kindEpoch:
		default:
			return 0, fmt.Errorf("journal: append of unknown record kind %#02x", r.Kind)
		}
		if w == nil {
			w = j.getWaiterLocked()
		}
		w.add(r)
	}
	if w == nil {
		return j.pubRecs, nil
	}
	seq, err := j.commitLocked(w)
	j.putWaiterLocked(w)
	return seq, err
}

// coalesceLocked replaces a stream's pending watermark, copying state
// into a recycled buffer; a journal that refuses commits drops it.
// Caller holds j.mu.
func (j *Journal) coalesceLocked(token uint64, mark int, state []byte) {
	if j.closing || j.closed || j.broken {
		return
	}
	e, ok := j.dirty[token]
	if !ok {
		if n := len(j.wmFree); n > 0 {
			e.state = j.wmFree[n-1][:0]
			j.wmFree = j.wmFree[:n-1]
		}
	}
	e.mark = mark
	e.state = append(e.state[:0], state...)
	j.dirty[token] = e
	j.stats.WatermarksCoalesced++
}

// Admitted commits a stream admission: fsynced before the caller sends
// its admission verdict, so a verdict the sender acts on is never
// forgotten by a crash. The returned sequence is the record's position
// on the publish feed — the value a replication quorum acknowledges.
func (j *Journal) Admitted(rec StreamRecord) (uint64, error) {
	return j.commit(Record{Kind: kindAdmit, Stream: rec})
}

// Watermark coalesces a stream's accept watermark and prefix-hash state
// for the next flush. It never blocks on the disk — the per-picture hot
// path stays fast — so a crash may lose the last flush interval of
// progress, which recovery absorbs by parking the stream at the older
// watermark (the sender replays the difference, idempotently). The
// journal copies state into a recycled buffer, so callers may pass a
// reused scratch slice.
func (j *Journal) Watermark(token uint64, mark int, state []byte) {
	j.commit(Record{Kind: kindWatermark, Token: token, Watermark: mark, HashState: state})
}

// Completed commits a stream completion: fsynced before the completion
// ack is sent, so an acked stream is always answerable as
// AlreadyComplete after a crash. The returned sequence is the record's
// position on the publish feed.
func (j *Journal) Completed(rec TombstoneRecord) (uint64, error) {
	return j.commit(Record{Kind: kindComplete, Tomb: rec})
}

// Expired commits the release of journaled state: a failed stream, a
// lapsed resume window, or an aged-out tombstone. The returned sequence
// is the record's position on the publish feed.
func (j *Journal) Expired(token, nonce uint64, reason ExpireReason) (uint64, error) {
	return j.commit(ExpireRecord(token, nonce, reason))
}

// ExpireRecord is the record Expired commits, for a caller that commits
// several expiries in one batch with AppendRecords.
func ExpireRecord(token, nonce uint64, reason ExpireReason) Record {
	return Record{Kind: kindExpire, Token: token, Nonce: nonce, Reason: reason}
}

// dropDirtyLocked discards a pending coalesced watermark and recycles
// its state buffer. Caller holds j.mu.
func (j *Journal) dropDirtyLocked(token uint64) {
	if e, ok := j.dirty[token]; ok {
		if len(j.wmFree) < 256 {
			j.wmFree = append(j.wmFree, e.state)
		}
		delete(j.dirty, token)
	}
}

// Epoch reports the highest primary epoch the journal has witnessed —
// the fencing term recovery and replication compare against.
func (j *Journal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Epoch
}

// AppendEpoch commits a primary epoch: fsynced before the new primary
// serves anything stamped with it, so a node that acknowledged a term
// can never forget it and accept a lower one after a restart. Appending
// an epoch at or below the current one is a no-op (epochs are monotone).
func (j *Journal) AppendEpoch(epoch uint64) (uint64, error) {
	return j.commit(Record{Kind: kindEpoch, Epoch: epoch})
}

// Flush appends and fsyncs all coalesced watermarks now.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushDirtyLocked()
}

// flushDirtyLocked commits the coalesced watermarks, unless the journal
// refuses new commits. Caller holds j.mu.
func (j *Journal) flushDirtyLocked() error {
	if len(j.dirty) == 0 {
		return nil
	}
	if err := j.appendableLocked(); err != nil {
		return err
	}
	return j.commitDirtyLocked()
}

// commitDirtyLocked drains the coalesced watermarks into one commit
// waiter and rides the group-commit path: the whole flush is one frame
// run inside one batch fsync. On failure the watermarks are re-merged
// into the dirty set (unless a newer mark superseded them) so the next
// flush retries — exactly the keep-dirty-on-error behavior replay
// idempotence expects. Close calls it past the gate that refuses new
// commits. Caller holds j.mu.
func (j *Journal) commitDirtyLocked() error {
	w := j.getWaiterLocked()
	for token, e := range j.dirty {
		w.add(Record{Kind: kindWatermark, Token: token, Watermark: e.mark, HashState: e.state})
		if len(j.wmFree) < 256 {
			j.wmFree = append(j.wmFree, e.state)
		}
		delete(j.dirty, token)
	}
	_, err := j.commitLocked(w)
	if err != nil {
		for _, r := range w.recs {
			if e, ok := j.dirty[r.Token]; !ok || e.mark < r.Watermark {
				j.dirty[r.Token] = wmEntry{mark: r.Watermark, state: append(e.state[:0], r.HashState...)}
			}
		}
	} else {
		j.stats.WatermarkBatches++
	}
	j.putWaiterLocked(w)
	return err
}

// Compact rewrites live state into a fresh snapshot segment and deletes
// the old ones.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flushDirtyLocked(); err != nil {
		return err
	}
	// Rotation swaps the active file; wait out any in-flight batch
	// leader that owns the current handle.
	for j.committing {
		j.commitCond.Wait()
	}
	if err := j.appendableLocked(); err != nil {
		return err
	}
	return j.rotateLocked()
}

// Close drains the commit queue, commits the remaining coalesced
// watermarks as one last batch, and closes the journal. New commits are
// rejected the moment Close begins and the queue is empty before the
// drain is enqueued, so the drain is the journal's last batch and
// happens exactly once.
func (j *Journal) Close() error {
	j.stopFlusher()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closing = true
	for j.committing || len(j.commitQ) > 0 {
		j.commitCond.Wait()
	}
	if j.closed {
		// Abandon raced in while we drained.
		return nil
	}
	var err error
	if len(j.dirty) > 0 {
		err = j.commitDirtyLocked()
	}
	j.closed = true
	j.closeSubsLocked()
	if j.active != nil {
		if cerr := j.active.Close(); err == nil {
			err = cerr
		}
		j.active = nil
	}
	return err
}

// Abandon closes the journal crash-style: no flush, no sync — pending
// watermarks are dropped exactly as a real crash would drop them, and
// committers parked on the commit queue fail immediately. The
// kill-and-restart harness uses it to make an in-process "SIGKILL"
// honest. Abandon never waits for an in-flight batch leader: if one
// owns the file handle, the handle close is deferred to it.
func (j *Journal) Abandon() {
	j.stopFlusher()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closing, j.closed = true, true
	j.dirty = map[uint64]wmEntry{}
	for _, w := range j.commitQ {
		w.err = errClosed
		w.done = true
	}
	j.commitQ = j.commitQ[:0]
	j.closeSubsLocked()
	if !j.committing && j.active != nil {
		j.active.Close()
		j.active = nil
	}
	j.commitCond.Broadcast()
}

func (j *Journal) stopFlusher() {
	j.mu.Lock()
	stop, done := j.flushStop, j.flushDone
	j.flushStop = nil
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

func (j *Journal) flusher(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := j.Flush(); err != nil {
				j.cfg.Logf("journal: watermark flush: %v", err)
			}
		case <-stop:
			return
		}
	}
}

// repairLocked truncates the active segment back to off after a failed
// append, discarding whatever partial bytes landed. If even that fails,
// the journal is broken: appends stop, but the on-disk prefix up to the
// last successful commit stays fully replayable.
func (j *Journal) repairLocked(off int64) {
	if err := j.fs.Truncate(j.activeName, off); err != nil {
		j.broken = true
		j.cfg.Logf("journal: repair truncate of %s to %d failed (%v); journal is now read-only", j.activeName, off, err)
		return
	}
	j.activeSize = off
	j.cfg.Logf("journal: truncated %s back to %d after failed append", j.activeName, off)
}

// rotateLocked opens the next segment, snapshots live state into it,
// syncs it, and deletes every older segment. Idempotent replay keeps
// every crash window safe: before the sync, the new segment simply
// loses the race and old segments still hold everything; after the
// sync, duplicates between old and new segments fold to the same state;
// a failed remove only leaves harmless duplicates behind. Caller holds
// j.mu, and no batch leader may be in flight (rotation swaps the file
// handle the leader writes to).
func (j *Journal) rotateLocked() error {
	j.seq++
	name := segName(j.seq)
	f, err := j.fs.Create(name)
	if err != nil {
		return fmt.Errorf("journal: creating segment %s: %w", name, err)
	}
	// Tombstones carry their own journaled expiry; compaction drops the
	// dead ones instead of copying them forward, so completed-stream
	// history cannot grow the snapshot without bound.
	now := time.Now()
	for tok, tb := range j.state.Tombstones {
		if !tb.Expires.IsZero() && now.After(tb.Expires) {
			delete(j.state.Tombstones, tok)
		}
	}
	buf := j.snapshotLocked()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		j.fs.Remove(name)
		return fmt.Errorf("journal: writing snapshot %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		j.fs.Remove(name)
		return fmt.Errorf("journal: syncing snapshot %s: %w", name, err)
	}
	j.stats.Fsyncs++
	if j.active != nil {
		j.active.Close()
	}
	for _, old := range j.segments {
		if err := j.fs.Remove(old); err != nil {
			// Harmless: replay is idempotent, so a lingering old segment
			// only costs startup time. Keep it listed for the next try.
			j.cfg.Logf("journal: could not remove %s: %v (will retry at next compaction)", old, err)
		}
	}
	j.active = f
	j.activeName = name
	j.activeSize = int64(len(buf))
	j.segments = []string{name}
	j.stats.Rotations++
	return nil
}

// snapshotLocked encodes the live state as one segment image: the same
// bytes a rotation writes, and the base a Follow subscriber starts
// from. Expired tombstones are skipped (not pruned — rotation owns the
// pruning). Caller holds j.mu.
func (j *Journal) snapshotLocked() []byte {
	now := time.Now()
	var buf []byte
	buf = append(buf, segMagic...)
	// The epoch leads the snapshot so a follower resyncing from it
	// adopts the primary's term before any session fact.
	if j.state.Epoch > 0 {
		buf = appendEpochFrame(buf, j.state.Epoch)
	}
	for _, st := range j.state.Streams {
		buf = appendAdmitFrame(buf, *st)
		if st.Watermark > 0 {
			buf = appendWatermarkFrame(buf, st.Token, st.Watermark, st.HashState)
		}
	}
	for _, tb := range j.state.Tombstones {
		if !tb.Expires.IsZero() && now.After(tb.Expires) {
			continue
		}
		buf = appendCompleteFrame(buf, *tb)
	}
	return buf
}
