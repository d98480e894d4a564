// Replication channel: the primary streams its journal's record feed
// to followers over a dedicated TCP listener, framed the same way as
// everything else in this codebase — CRC-checked, length-prefixed,
// corruption detected rather than decoded.
//
// Wire format: the follower opens with the "MSRP" magic and a hello
// frame naming itself; the primary answers with one snapshot frame and
// then a stream of record and heartbeat frames, while the follower
// sends ack frames back upstream on the same connection. Every frame is
// a length-prefixed frame of package frame,
//
//	type (1) | len (4) | payload | crc32 (4)
//
// read under the cap of the largest payload its reader expects. Every
// primary→follower payload begins with the primary's 32-byte publish
// cursor (fencing epoch, active segment sequence, cumulative records,
// cumulative bytes), so the follower can report replication lag at any
// instant and detect a deposed primary by its stale epoch:
//
//	'h' hello      epoch | rank | follower name (follower → primary)
//	's' snapshot   cursor | segment image of the live state
//	'r' record     cursor | one journal record frame
//	'b' heartbeat  cursor only
//	'a' ack        epoch | acked publish sequence (follower → primary)
//
// Acks are cumulative: the follower acknowledges the highest primary
// publish sequence it has durably applied (snapshot base + records
// applied since — exact because the feed is in-order and gap-free: a
// dropped subscriber's channel closes and it resyncs from a fresh
// snapshot rather than skip records). The primary's quorum tracker
// holds admission/completion verdicts until enough ranks have acked.
//
// A follower that falls behind the feed buffer is dropped by the
// journal (its channel closes); it reconnects with jittered exponential
// backoff and resyncs from a fresh snapshot. A follower that stops
// hearing frames for FailoverTimeout concludes the primary is dead and
// tries to promote (see node.go). Epochs fence both directions: a
// primary that sees a higher epoch in a hello or ack demotes instead of
// split-braining, and a follower that sees a lower epoch than its
// journal's disconnects from the deposed primary.
package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"mpegsmooth/internal/frame"
	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/transport"
)

var replMagic = []byte("MSRP")

const (
	replHello     byte = 'h'
	replSnapshot  byte = 's'
	replRecord    byte = 'r'
	replHeartbeat byte = 'b'
	replAck       byte = 'a'
)

// maxReplPayload bounds a primary→follower payload during reads; the
// snapshot image is the only large one. The primary reads the hello and
// the acks under their own, exact caps.
const maxReplPayload = 64 << 20

// maxFollowerName bounds the name portion of the hello payload.
const maxFollowerName = 128

// helloPrefix is the fixed hello header: epoch (8) | rank (4).
const helloPrefix = 12

// ackLen is the ack payload: epoch (8) | acked sequence (8).
const ackLen = 16

// cursorLen is the encoded size of a publish cursor:
// epoch (8) | segment seq (8) | records (8) | bytes (8).
const cursorLen = 32

func appendCursor(buf []byte, epoch uint64, o journal.Offsets) []byte {
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = binary.BigEndian.AppendUint64(buf, o.SegmentSeq)
	buf = binary.BigEndian.AppendUint64(buf, o.Records)
	return binary.BigEndian.AppendUint64(buf, o.Bytes)
}

func parseCursor(b []byte) (epoch uint64, o journal.Offsets, rest []byte, err error) {
	if len(b) < cursorLen {
		return 0, journal.Offsets{}, nil, fmt.Errorf("cluster: %d-byte payload shorter than its cursor", len(b))
	}
	return binary.BigEndian.Uint64(b[0:8]), journal.Offsets{
		SegmentSeq: binary.BigEndian.Uint64(b[8:16]),
		Records:    binary.BigEndian.Uint64(b[16:24]),
		Bytes:      binary.BigEndian.Uint64(b[24:32]),
	}, b[cursorLen:], nil
}

func writeReplFrame(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 0, frame.Overhead+len(payload))
	_, err := w.Write(frame.Append(buf, typ, uint32(len(payload)), payload))
	return err
}

// publishLoop is the primary's replication acceptor: one goroutine per
// attached follower. It exits when the replication listener closes.
func (n *Node) publishLoop(ln net.Listener, jrnl *journal.Journal) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveFollower(conn, jrnl)
		}()
	}
}

// serveFollower streams the journal feed to one follower: handshake,
// snapshot, then records and heartbeats until either side dies, while a
// reader goroutine feeds the follower's acks into the quorum tracker. A
// write failure or feed overflow drops the follower; it reconnects and
// resyncs from a fresh snapshot.
func (n *Node) serveFollower(conn net.Conn, jrnl *journal.Journal) {
	defer conn.Close()
	n.trackFollowerConn(conn)
	defer n.untrackFollowerConn(conn)
	conn.SetReadDeadline(time.Now().Add(n.cfg.FailoverTimeout))
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil || string(magic[:]) != string(replMagic) {
		n.logf("cluster: %s: replication handshake from %s without magic", n.id(), conn.RemoteAddr())
		return
	}
	typ, payload, err := frame.Read(conn, helloPrefix+maxFollowerName)
	if err != nil || typ != replHello || len(payload) <= helloPrefix {
		n.logf("cluster: %s: bad replication hello from %s: %v", n.id(), conn.RemoteAddr(), err)
		return
	}
	helloEpoch := binary.BigEndian.Uint64(payload[0:8])
	rank := int(binary.BigEndian.Uint32(payload[8:12]))
	name := string(payload[helloPrefix:])
	myEpoch := n.epoch.Load()
	if helloEpoch > myEpoch {
		// The follower's journal has witnessed a higher term than ours:
		// another primary promoted while we thought we were serving.
		// Refuse the attachment and stand down rather than split-brain.
		n.logf("cluster: %s: follower %s carries epoch %d > our %d: we are deposed",
			n.id(), name, helloEpoch, myEpoch)
		go n.demote(fmt.Sprintf("follower %s at epoch %d", name, helloEpoch))
		return
	}

	snap, at, frames, cancel, err := jrnl.Follow(journal.DefaultFollowBuffer)
	if err != nil {
		return
	}
	defer cancel()
	pl := make([]byte, 0, cursorLen+len(snap))
	pl = appendCursor(pl, myEpoch, at)
	pl = append(pl, snap...)
	conn.SetWriteDeadline(time.Now().Add(n.cfg.FailoverTimeout))
	if err := writeReplFrame(conn, replSnapshot, pl); err != nil {
		return
	}
	atomic.AddInt64(&n.followers, 1)
	defer atomic.AddInt64(&n.followers, -1)
	if q := n.quorumGate(); q != nil {
		q.attach(name, rank)
		defer q.detach(name)
	}
	n.logf("cluster: %s: follower %s (rank %d, epoch %d) attached from %s (snapshot %d bytes at record %d)",
		n.id(), name, rank, helloEpoch, conn.RemoteAddr(), len(snap), at.Records)

	// Ack reader: the upstream half of the connection. It owns all
	// reads after the handshake and exits when the connection dies
	// (this function's deferred Close unblocks it).
	conn.SetReadDeadline(time.Time{})
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		br := bufio.NewReaderSize(conn, 4<<10)
		for {
			typ, payload, err := frame.Read(br, ackLen)
			if err != nil {
				return
			}
			if typ != replAck || len(payload) != ackLen {
				n.logf("cluster: %s: unexpected upstream frame %#02x from follower %s", n.id(), typ, name)
				return
			}
			ackEpoch := binary.BigEndian.Uint64(payload[0:8])
			ackSeq := binary.BigEndian.Uint64(payload[8:16])
			if ackEpoch > myEpoch {
				n.logf("cluster: %s: follower %s acked at epoch %d > our %d: we are deposed",
					n.id(), name, ackEpoch, myEpoch)
				go n.demote(fmt.Sprintf("ack from %s at epoch %d", name, ackEpoch))
				return
			}
			if q := n.quorumGate(); q != nil {
				q.ack(name, ackSeq)
			}
		}
	}()

	tick := time.NewTicker(n.cfg.HeartbeatInterval)
	defer tick.Stop()
	var buf []byte
	for {
		select {
		case rec, ok := <-frames:
			if !ok {
				// The feed dropped this subscriber (it fell behind the
				// buffer) or the journal closed. Either way the follower
				// reconnects and resyncs.
				atomic.AddInt64(&n.followerDrops, 1)
				n.logf("cluster: %s: follower %s dropped from the feed (lagged or journal closed)", n.id(), name)
				return
			}
			buf = appendCursor(buf[:0], myEpoch, jrnl.FollowOffsets())
			buf = append(buf, rec...)
			conn.SetWriteDeadline(time.Now().Add(n.cfg.FailoverTimeout))
			if err := writeReplFrame(conn, replRecord, buf); err != nil {
				atomic.AddInt64(&n.followerDrops, 1)
				return
			}
		case <-tick.C:
			buf = appendCursor(buf[:0], myEpoch, jrnl.FollowOffsets())
			conn.SetWriteDeadline(time.Now().Add(n.cfg.FailoverTimeout))
			if err := writeReplFrame(conn, replHeartbeat, buf); err != nil {
				atomic.AddInt64(&n.followerDrops, 1)
				return
			}
		case <-ackDone:
			return
		case <-n.ctx.Done():
			return
		}
	}
}

// followLoop is the follower's life: stay attached to the shard's
// primary, replay its feed into the standby journal, and — when the
// primary goes silent past FailoverTimeout — try to promote. Reconnect
// attempts back off with the transport's jittered exponential schedule
// (a refused connect during a primary restart is routine, not
// permanent); a successful attachment resets the schedule. It returns
// when the node is stopped or has become the primary.
func (n *Node) followLoop() {
	defer n.wg.Done()
	n.noteHeard()
	backoff := transport.Backoff{
		Base: n.cfg.DialTimeout / 8,
		Max:  n.cfg.FailoverTimeout / 2,
	}
	attempt := 0
	for n.ctx.Err() == nil {
		conn, err := n.dialTCP(n.self.ReplAddr)
		if err == nil {
			attempt = 0
			n.setReplConn(conn)
			err = n.streamFromPrimary(conn)
			n.setReplConn(nil)
			conn.Close()
			if n.ctx.Err() == nil {
				n.logf("cluster: %s: replication stream ended: %v", n.id(), err)
			}
		} else {
			atomic.AddInt64(&n.dialRetries, 1)
		}
		if n.ctx.Err() != nil {
			return
		}
		if time.Since(n.lastHeard()) >= n.cfg.FailoverTimeout {
			if n.tryPromote() {
				return
			}
		}
		attempt++
		n.sleep(backoff.Delay(attempt, n.rng))
	}
}

// streamFromPrimary drives one attached replication connection: apply
// snapshots and records into the standby journal, acknowledge every
// durable apply upstream, track the primary's cursor, and refresh the
// liveness clock on every frame. A cursor whose epoch is below the
// standby journal's own is a deposed primary: disconnect rather than
// regress onto revoked authority.
func (n *Node) streamFromPrimary(conn net.Conn) error {
	jrnl := n.standby()
	if jrnl == nil {
		return fmt.Errorf("cluster: no standby journal")
	}
	hello := make([]byte, 0, helloPrefix+len(n.id()))
	hello = binary.BigEndian.AppendUint64(hello, jrnl.Epoch())
	hello = binary.BigEndian.AppendUint32(hello, uint32(n.cfg.Rank))
	hello = append(hello, n.id()...)
	conn.SetWriteDeadline(time.Now().Add(n.cfg.FailoverTimeout))
	if _, err := conn.Write(replMagic); err != nil {
		return err
	}
	if err := writeReplFrame(conn, replHello, hello); err != nil {
		return err
	}
	n.setConnected(true)
	defer n.setConnected(false)
	sendAck := func() error {
		ack := make([]byte, 0, ackLen)
		ack = binary.BigEndian.AppendUint64(ack, jrnl.Epoch())
		ack = binary.BigEndian.AppendUint64(ack, n.repl.cursorSeq())
		conn.SetWriteDeadline(time.Now().Add(n.cfg.FailoverTimeout))
		return writeReplFrame(conn, replAck, ack)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	// Records drain into a batch: when the primary has several frames in
	// flight (its own group commit released a burst, or this follower
	// briefly fell behind), every record already buffered locally joins
	// one journal.AppendRecords call — one standby fsync — acknowledged
	// with a single cumulative ack instead of an ack per record.
	type appliedRec struct {
		cursor journal.Offsets
		kind   byte
		size   int
	}
	var batch []journal.Record
	var applied []appliedRec
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := jrnl.AppendRecords(batch); err != nil {
			return fmt.Errorf("cluster: applying %d replicated records: %w", len(batch), err)
		}
		for _, a := range applied {
			n.repl.recordApplied(a.cursor, a.kind, a.size)
		}
		batch, applied = batch[:0], applied[:0]
		if err := sendAck(); err != nil {
			return fmt.Errorf("cluster: acking records: %w", err)
		}
		return nil
	}
	for {
		conn.SetReadDeadline(time.Now().Add(n.cfg.FailoverTimeout))
		typ, payload, err := frame.Read(br, maxReplPayload)
		if err != nil {
			return err
		}
		n.noteHeard()
		epoch, cursor, rest, err := parseCursor(payload)
		if err != nil {
			return err
		}
		if known := jrnl.Epoch(); epoch < known {
			return fmt.Errorf("cluster: primary at epoch %d but journal has witnessed %d (deposed primary)",
				epoch, known)
		}
		switch typ {
		case replSnapshot:
			if err := flush(); err != nil {
				return err
			}
			recs, valid, scanErr := journal.ScanSegment(rest)
			if scanErr != nil || valid != len(rest) {
				return fmt.Errorf("cluster: torn replication snapshot (%d of %d bytes valid): %v",
					valid, len(rest), scanErr)
			}
			if err := jrnl.ResetTo(recs); err != nil {
				return fmt.Errorf("cluster: resync into standby journal: %w", err)
			}
			n.repl.resync(cursor)
			if err := sendAck(); err != nil {
				return fmt.Errorf("cluster: acking snapshot: %w", err)
			}
			n.logf("cluster: %s: resynced from snapshot (%d records, primary at record %d, epoch %d)",
				n.id(), len(recs), cursor.Records, epoch)
		case replRecord:
			rec, size, perr := journal.ParseFrame(rest)
			if perr != nil || size != len(rest) {
				return fmt.Errorf("cluster: torn replicated record (%d of %d bytes): %v",
					size, len(rest), perr)
			}
			batch = append(batch, rec)
			applied = append(applied, appliedRec{cursor: cursor, kind: rec.Kind, size: size})
			if br.Buffered() == 0 {
				// Nothing else already delivered: commit what we have. With
				// frames still buffered, keep draining — they ride this
				// batch's fsync.
				if err := flush(); err != nil {
					return err
				}
			}
		case replHeartbeat:
			if err := flush(); err != nil {
				return err
			}
			n.repl.heartbeat(cursor)
		default:
			return fmt.Errorf("cluster: unknown replication frame type %#02x", typ)
		}
	}
}
