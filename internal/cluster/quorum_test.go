package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"mpegsmooth/internal/frame"
	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/server"
	"mpegsmooth/internal/soaktest"
)

// trackerTimeout is generous against scheduler noise; tracker tests
// that expect a wait to SUCCEED use it, tests that expect a degrade use
// a tight deadline instead.
const trackerTimeout = 5 * time.Second

func waitErr(q *quorumTracker, seq uint64, within time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	return q.WaitCommitted(ctx, seq)
}

// TestQuorumTrackerFormation: the tracker starts degraded (a fresh
// primary has no followers), commits locally in that state, and forms
// its quorum once the needed ranks attach and ack — after which commits
// wait for follower acks.
func TestQuorumTrackerFormation(t *testing.T) {
	q := newQuorumTracker(1, 1024, trackerTimeout, t.Logf)
	if !q.isDegraded() {
		t.Fatal("fresh tracker is not degraded: a primary with no followers would wedge")
	}
	// Degraded commits release immediately on local durability.
	if err := waitErr(q, 1, trackerTimeout); err != nil {
		t.Fatalf("degraded commit: %v", err)
	}
	// Attachment alone does not form the quorum — the follower must ack
	// everything asked of the gate so far (seq 1).
	q.attach("alpha/1", 1)
	if !q.isDegraded() {
		t.Fatal("quorum formed on attach alone, before any ack")
	}
	q.ack("alpha/1", 1)
	if q.isDegraded() {
		t.Fatal("quorum did not form after the follower acked everything")
	}
	// Now commits gate on the follower: seq 2 must block until acked.
	done := make(chan error, 1)
	go func() { done <- waitErr(q, 2, trackerTimeout) }()
	select {
	case err := <-done:
		t.Fatalf("commit released before the follower acked: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	q.ack("alpha/1", 2)
	if err := <-done; err != nil {
		t.Fatalf("quorum commit: %v", err)
	}
	st := q.status()
	if st.QuorumCommits != 1 || st.LocalCommits != 1 || st.DegradedEvents != 0 {
		t.Fatalf("counters %+v: want 1 quorum + 1 local commit, formation not counted as a degrade", st)
	}
}

// TestQuorumTrackerRankOrder: the commit floor follows the lowest
// `need` connected ranks — the ranks the election stagger prefers — so
// a higher rank racing ahead cannot commit a record the likely
// promotion winner does not hold.
func TestQuorumTrackerRankOrder(t *testing.T) {
	q := newQuorumTracker(1, 1024, trackerTimeout, t.Logf)
	q.attach("alpha/1", 1)
	q.attach("alpha/2", 2)
	q.ack("alpha/2", 10) // the wrong rank: ahead, but not the election favorite
	q.mu.Lock()
	floor := q.commitFloorLocked()
	q.mu.Unlock()
	if floor != 0 {
		t.Fatalf("commit floor %d from rank 2 alone; rank 1 has acked nothing", floor)
	}
	q.ack("alpha/1", 4)
	q.mu.Lock()
	floor = q.commitFloorLocked()
	q.mu.Unlock()
	if floor != 4 {
		t.Fatalf("commit floor %d, want rank 1's cursor 4", floor)
	}
	// Rank 1 detaching hands the floor to rank 2 (still >= need
	// followers: no degrade, durability rides the next-best rank).
	q.detach("alpha/1")
	q.mu.Lock()
	floor = q.commitFloorLocked()
	q.mu.Unlock()
	if floor != 10 {
		t.Fatalf("commit floor %d after rank 1 left, want rank 2's cursor 10", floor)
	}
	if q.isDegraded() {
		t.Fatal("degraded with a full quorum still attached")
	}
}

// TestQuorumTrackerDegrades pins every degrade trigger: ack deadline,
// in-flight window overflow, and follower loss below quorum — each
// counts an event, flips /healthz-visible state, and releases waiters
// on local durability instead of wedging them.
func TestQuorumTrackerDegrades(t *testing.T) {
	t.Run("ack deadline", func(t *testing.T) {
		q := newQuorumTracker(1, 1024, 20*time.Millisecond, t.Logf)
		q.attach("alpha/1", 1)
		q.ack("alpha/1", 1)
		start := time.Now()
		if err := waitErr(q, 5, trackerTimeout); err != nil {
			t.Fatalf("commit after ack deadline: %v", err)
		}
		if time.Since(start) < 20*time.Millisecond {
			t.Fatal("commit released before the ack deadline without a quorum")
		}
		st := q.status()
		if !st.Degraded || st.AckTimeouts != 1 || st.DegradedEvents != 1 || st.LocalCommits != 1 {
			t.Fatalf("counters %+v: want degraded with one ack timeout", st)
		}
	})
	t.Run("window overflow", func(t *testing.T) {
		q := newQuorumTracker(1, 4, trackerTimeout, t.Logf)
		q.attach("alpha/1", 1)
		q.ack("alpha/1", 1)
		// Floor 1, window 4: seq 6 overflows the in-flight window and
		// must degrade immediately, not sit out the (long) ack deadline.
		start := time.Now()
		if err := waitErr(q, 6, trackerTimeout); err != nil {
			t.Fatalf("commit after window overflow: %v", err)
		}
		if time.Since(start) > trackerTimeout/2 {
			t.Fatal("window overflow waited for the ack deadline")
		}
		if st := q.status(); !st.Degraded || st.DegradedEvents != 1 || st.AckTimeouts != 0 {
			t.Fatalf("counters %+v: want a degrade without an ack timeout", st)
		}
	})
	t.Run("followers lost", func(t *testing.T) {
		q := newQuorumTracker(1, 1024, trackerTimeout, t.Logf)
		q.attach("alpha/1", 1)
		q.ack("alpha/1", 3)
		if q.isDegraded() {
			t.Fatal("degraded with the quorum formed")
		}
		q.detach("alpha/1")
		if !q.isDegraded() {
			t.Fatal("not degraded after losing the last follower")
		}
		// A waiter arriving now must release locally, fast.
		if err := waitErr(q, 9, trackerTimeout); err != nil {
			t.Fatalf("degraded commit: %v", err)
		}
		// Reform: a follower re-attaches and acks everything asked so far.
		q.attach("alpha/1", 1)
		q.ack("alpha/1", 8)
		if !q.isDegraded() {
			t.Fatal("quorum reformed before the follower caught up through seq 9")
		}
		q.ack("alpha/1", 9)
		if q.isDegraded() {
			t.Fatal("quorum did not reform after full catch-up")
		}
		if st := q.status(); st.DegradedEvents != 1 {
			t.Fatalf("counters %+v: want exactly one degraded event across the cycle", st)
		}
	})
}

// TestQuorumTrackerClose: a closed gate (demotion, shutdown) terminates
// current and future waiters with an error — the server rolls the
// admission back rather than acknowledging it.
func TestQuorumTrackerClose(t *testing.T) {
	q := newQuorumTracker(1, 1024, trackerTimeout, t.Logf)
	q.attach("alpha/1", 1)
	q.ack("alpha/1", 1)
	done := make(chan error, 1)
	go func() { done <- waitErr(q, 2, trackerTimeout) }()
	time.Sleep(10 * time.Millisecond)
	q.close()
	if err := <-done; !errors.Is(err, errQuorumClosed) {
		t.Fatalf("waiter got %v, want errQuorumClosed", err)
	}
	if err := waitErr(q, 3, trackerTimeout); !errors.Is(err, errQuorumClosed) {
		t.Fatalf("post-close waiter got %v, want errQuorumClosed", err)
	}
}

// TestQuorumTrackerContext: a canceled stream context unblocks its
// waiter without disturbing the gate.
func TestQuorumTrackerContext(t *testing.T) {
	q := newQuorumTracker(1, 1024, trackerTimeout, t.Logf)
	q.attach("alpha/1", 1)
	q.ack("alpha/1", 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- q.WaitCommitted(ctx, 2) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v", err)
	}
	if q.isDegraded() {
		t.Fatal("context cancellation degraded the gate")
	}
}

// TestFollowerDialBackoff pins the reconnect schedule satellite: a
// follower whose primary is absent retries its replication dial on the
// transport's jittered exponential backoff (counting each failure),
// and attaches promptly once the primary appears.
func TestFollowerDialBackoff(t *testing.T) {
	kit := soaktest.NewKit(t, 54)
	addrs := soaktest.FreeAddrs(t, 2)
	peers := []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	scfg := server.Config{LinkRate: 2 * kit.Hello.PeakRate, TimeScale: soaktest.TimeScale}

	fcfg := nodeConfig("alpha", 1, peers, scfg, t.TempDir())
	fcfg.Seed = 11
	// Keep the follower from concluding the primary is dead and
	// promoting itself: this test is about the dial schedule alone.
	fcfg.FailoverTimeout = time.Minute
	fcfg.DialTimeout = 100 * time.Millisecond // backoff base 12.5ms
	follower := startNode(t, fcfg)

	soaktest.WaitFor(t, "dial retries accumulating", func() bool {
		return follower.Status().Replication.DialRetries >= 3
	})
	if follower.Role() != RoleFollower {
		t.Fatal("follower promoted itself while only the dial was failing")
	}

	startNode(t, nodeConfig("alpha", 0, peers, scfg, t.TempDir()))
	soaktest.WaitFor(t, "follower attached after primary start", func() bool {
		return follower.Status().Replication.Connected
	})
}

// TestTwoFollowerPromotionJitter pins the election-stagger satellite:
// two followers at the SAME rank — the lockstep case the seeded jitter
// exists for — detect the primary's death together, and exactly one of
// them wins the port-bind election while the other re-attaches to it
// as a follower.
func TestTwoFollowerPromotionJitter(t *testing.T) {
	if testing.Short() {
		t.Skip("promotion test skipped in -short mode")
	}
	kit := soaktest.NewKit(t, 54)
	addrs := soaktest.FreeAddrs(t, 2)
	peers := []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	scfg := server.Config{LinkRate: 2 * kit.Hello.PeakRate, TimeScale: soaktest.TimeScale, ResumeWindow: 10 * time.Second}

	primary := startNode(t, nodeConfig("alpha", 0, peers, scfg, t.TempDir()))

	followers := make([]*Node, 2)
	for i := range followers {
		fcfg := nodeConfig("alpha", 1, peers, scfg, t.TempDir())
		fcfg.Seed = int64(100 + i)
		followers[i] = startNode(t, fcfg)
	}
	for _, f := range followers {
		soaktest.WaitFor(t, "follower attached", func() bool {
			return f.Status().Replication.Connected
		}, report(followers...))
	}

	primary.Kill()
	soaktest.WaitFor(t, "exactly one follower promoted, the other re-attached", func() bool {
		var primaries, attached int
		for _, f := range followers {
			switch f.Role() {
			case RolePrimary:
				primaries++
			case RoleFollower:
				if f.Status().Replication.Connected {
					attached++
				}
			}
		}
		return primaries == 1 && attached == 1
	}, report(followers...))
	var promotions int64
	for _, f := range followers {
		promotions += f.Status().Promotions
	}
	if promotions != 1 {
		t.Fatalf("%d promotions across the pair, want exactly 1", promotions)
	}
}

// TestReplHelloOversizedRefused: a peer that sends the MSRP magic and a
// hello header declaring a 64 MiB or a 2 GiB payload is cut off at once.
// The hello read is capped at the largest hello, so the primary neither
// allocates the declared payload nor holds the connection open for the
// FailoverTimeout its handshake deadline allows. 2 GiB does not fit a
// 32-bit int: the cap must be compared before the length is converted.
func TestReplHelloOversizedRefused(t *testing.T) {
	addrs := soaktest.FreeAddrs(t, 2)
	cfg := Config{
		Shard:           "alpha",
		Peers:           []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}},
		Server:          server.Config{LinkRate: 1e7},
		Journal:         journal.Config{Dir: t.TempDir()},
		FailoverTimeout: 5 * time.Second,
	}
	startNode(t, cfg)

	for _, declared := range []uint32{64 << 20, 0x80000000} {
		conn, err := net.Dial("tcp", addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		head := append(append([]byte{}, replMagic...), replHello)
		head = binary.BigEndian.AppendUint32(head, declared)
		if _, err := conn.Write(head); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		conn.SetReadDeadline(start.Add(time.Second))
		_, err = conn.Read(make([]byte, 1))
		conn.Close()
		switch {
		case err == nil:
			t.Fatalf("primary answered a hello declaring a %d-byte payload", declared)
		case errors.Is(err, os.ErrDeadlineExceeded):
			t.Fatalf("primary still holds the connection 1s after a hello header declaring %d bytes", declared)
		}
		t.Logf("%d bytes declared: connection closed %v after the header (%v)", declared, time.Since(start), err)
	}
}

// TestReplFrameVectors pins MSRP's bytes: one frame of each message
// type, as the writer wrote them before MSRP moved onto package frame.
// The writer must still produce them, and each must read back under
// the cap its reader applies.
func TestReplFrameVectors(t *testing.T) {
	cursor := appendCursor(nil, 3, journal.Offsets{SegmentSeq: 2, Records: 99, Bytes: 4096})
	hello := binary.BigEndian.AppendUint64(nil, 3)
	hello = binary.BigEndian.AppendUint32(hello, 1)
	hello = append(hello, "alpha/1"...)
	ack := binary.BigEndian.AppendUint64(nil, 3)
	ack = binary.BigEndian.AppendUint64(ack, 42)
	for _, c := range []struct {
		typ     byte
		payload []byte
		max     uint32
		want    string
	}{
		{replHello, hello, helloPrefix + maxFollowerName,
			"6800000013000000000000000300000001616c7068612f3102fde8c3"},
		{replSnapshot, append(append([]byte{}, cursor...), "MSJ1"...), maxReplPayload,
			"730000002400000000000000030000000000000002000000000000006300000000000010004d534a31d5a61f62"},
		{replRecord, append(append([]byte{}, cursor...), 0xDE, 0xAD), maxReplPayload,
			"72000000220000000000000003000000000000000200000000000000630000000000001000deadb58bb407"},
		{replHeartbeat, cursor, maxReplPayload,
			"62000000200000000000000003000000000000000200000000000000630000000000001000cfa21255"},
		{replAck, ack, ackLen,
			"61000000100000000000000003000000000000002a48904252"},
	} {
		var buf bytes.Buffer
		if err := writeReplFrame(&buf, c.typ, c.payload); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != c.want {
			t.Errorf("%c frame: %s, want %s", c.typ, got, c.want)
		}
		want, _ := hex.DecodeString(c.want)
		typ, payload, err := frame.Read(bytes.NewReader(want), c.max)
		if err != nil || typ != c.typ || !bytes.Equal(payload, c.payload) {
			t.Errorf("%c vector reads back as %c %x, %v", c.typ, typ, payload, err)
		}
	}
}

// buildReplFrame encodes one replication frame the way writeReplFrame
// does, for the fuzzer's seed corpus.
func buildReplFrame(t testing.TB, typ byte, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeReplFrame(&buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReplFrame hammers what MSRP adds on top of package frame (whose
// own fuzzer is FuzzFrame) with arbitrary bytes, read as a follower
// reads the primary's stream: frame after frame under maxReplPayload,
// each payload split at its publish cursor, and a record's rest parsed
// as a journal record. Truncations, CRC flips, and oversized declared
// payloads must all end the stream with an error, never a panic or an
// over-read, and every frame read re-encodes through writeReplFrame to
// the bytes it came from.
func FuzzReplFrame(f *testing.F) {
	hello := make([]byte, 0, helloPrefix+7)
	hello = binary.BigEndian.AppendUint64(hello, 3)
	hello = binary.BigEndian.AppendUint32(hello, 1)
	hello = append(hello, "alpha/1"...)
	ack := make([]byte, 0, ackLen)
	ack = binary.BigEndian.AppendUint64(ack, 3)
	ack = binary.BigEndian.AppendUint64(ack, 42)
	cursor := appendCursor(nil, 3, journal.Offsets{SegmentSeq: 2, Records: 99, Bytes: 4096})
	seeds := [][]byte{
		buildReplFrame(f, replHello, hello),
		buildReplFrame(f, replAck, ack),
		buildReplFrame(f, replHeartbeat, cursor),
		buildReplFrame(f, replRecord, append(append([]byte{}, cursor...), 0xDE, 0xAD)),
		buildReplFrame(f, replSnapshot, nil),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1]) // truncated CRC
		f.Add(s[:5])        // truncated payload
		flipped := append([]byte{}, s...)
		flipped[len(flipped)-1] ^= 0x01 // CRC flip
		f.Add(flipped)
	}
	oversized := []byte{replRecord, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	f.Add(oversized)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			typ, payload, err := frame.Read(r, maxReplPayload)
			if err != nil {
				return
			}
			read := data[start : len(data)-r.Len()]
			// Anything the reader accepts, the writer reproduces
			// bit-exactly: accepted frames are exactly the writable ones.
			var buf bytes.Buffer
			if err := writeReplFrame(&buf, typ, payload); err != nil {
				t.Fatalf("re-encoding an accepted frame: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), read) {
				t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", buf.Bytes(), read)
			}
			_, _, rest, err := parseCursor(payload)
			if err != nil || typ != replRecord {
				continue
			}
			if _, size, err := journal.ParseFrame(rest); err == nil && size > len(rest) {
				t.Fatalf("journal record of %d bytes inside a %d-byte rest", size, len(rest))
			}
		}
	})
}
