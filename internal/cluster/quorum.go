// Quorum tracking: the primary-side ledger of how far each follower
// has durably applied the journal feed, and the commit gate that holds
// admission/completion verdicts until enough replicas hold the record.
//
// Acks are cumulative: a follower acknowledges the highest primary
// publish sequence it has fsynced (snapshot base + records applied
// since), so one ack covers every record before it and a lost ack is
// repaired by the next. The commit rule is rank-ordered: a record is
// quorum-committed when the lowest `need` connected ranks have all
// acked it. The election stagger prefers the lowest surviving rank, so
// the follower most likely to win a promotion is exactly the one every
// committed record is guaranteed to be on. (Limitation, documented in
// DESIGN.md §13: if the lowest rank is disconnected, commits are
// carried by the next ranks, and a promotion won by the returning
// lower rank could miss them — full vote-based elections are the next
// rung.)
//
// The gate degrades instead of wedging: a record that waits past
// AckTimeout, an in-flight window overflow, or losing so many
// followers that a quorum is impossible all flip the tracker into
// degraded mode — verdicts release on local durability alone, the
// node's /healthz goes not-ready ("quorum-degraded"), and counters
// record the event. Degraded mode is sticky until the needed ranks are
// attached and have acked everything admitted so far.
package cluster

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"
)

// errQuorumClosed terminates waiters when the gate's primary stops
// being one; the server rolls the admission back.
var errQuorumClosed = errors.New("cluster: quorum gate closed")

// ackState is one attached follower's durable cursor.
type ackState struct {
	rank   int
	acked  uint64 // highest publish sequence fsynced on the follower
	synced bool   // has sent at least one ack this attachment
}

// ackWindow bounds a primary's unacked in-flight records: past it the
// quorum tracker degrades to local commits without waiting out the ack
// deadline.
const ackWindow = 1024

// quorumTracker implements server.CommitGate for a primary.
type quorumTracker struct {
	need       int // follower acks required (quorum - 1)
	window     uint64
	ackTimeout time.Duration
	logf       func(format string, args ...any)

	mu        sync.Mutex
	changed   chan struct{} // closed and replaced on every state change
	followers map[string]*ackState
	maxSeq    uint64 // highest sequence any waiter has asked for
	degraded  bool
	closed    bool

	quorumCommits  int64
	localCommits   int64
	degradedEvents int64
	ackTimeouts    int64
}

func newQuorumTracker(need int, window uint64, ackTimeout time.Duration, logf func(string, ...any)) *quorumTracker {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &quorumTracker{
		need:       need,
		window:     window,
		ackTimeout: ackTimeout,
		logf:       logf,
		changed:    make(chan struct{}),
		followers:  map[string]*ackState{},
		// A fresh primary has no followers yet: it starts degraded
		// (local-only commits, /healthz not ready) and forms its quorum
		// when the needed ranks attach and catch up. Formation is not
		// counted as a degraded event.
		degraded: true,
	}
}

func (q *quorumTracker) signalLocked() {
	close(q.changed)
	q.changed = make(chan struct{})
}

// commitFloorLocked is the quorum-acked watermark: the highest sequence
// every one of the `need` lowest-ranked attached followers has acked.
// Zero means no quorum is currently possible (journal publish sequences
// start at 1, so zero never satisfies a waiter).
func (q *quorumTracker) commitFloorLocked() uint64 {
	if len(q.followers) < q.need {
		return 0
	}
	ranked := make([]*ackState, 0, len(q.followers))
	for _, f := range q.followers {
		ranked = append(ranked, f)
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].rank < ranked[j].rank })
	floor := ^uint64(0)
	for _, f := range ranked[:q.need] {
		if !f.synced {
			return 0
		}
		if f.acked < floor {
			floor = f.acked
		}
	}
	return floor
}

func (q *quorumTracker) degradeLocked(reason string) {
	if q.degraded {
		return
	}
	q.degraded = true
	q.degradedEvents++
	q.logf("cluster: quorum degraded (%s): committing on local durability alone", reason)
	q.signalLocked()
}

// reformLocked clears degraded mode once the needed ranks hold
// everything the gate has ever been asked to wait for — nothing
// admitted under local quorum is left unreplicated when the guarantee
// is re-advertised.
func (q *quorumTracker) reformLocked() {
	if !q.degraded {
		return
	}
	if q.commitFloorLocked() < q.maxSeq || len(q.followers) < q.need {
		return
	}
	q.degraded = false
	q.logf("cluster: quorum re-formed (%d followers caught up through record %d)", len(q.followers), q.maxSeq)
	q.signalLocked()
}

// attach registers a follower connection. A reconnect under the same
// name replaces the stale entry; the fresh one counts toward the
// quorum only after its first ack.
func (q *quorumTracker) attach(name string, rank int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.followers[name] = &ackState{rank: rank}
	q.signalLocked()
}

// detach unregisters a follower. Losing so many followers that a
// quorum is impossible degrades immediately — waiters must not sit out
// the ack timeout for a commit that cannot happen.
func (q *quorumTracker) detach(name string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.followers, name)
	if len(q.followers) < q.need {
		q.degradeLocked("followers lost")
	}
	q.signalLocked()
}

// ack records a follower's cumulative durable cursor.
func (q *quorumTracker) ack(name string, seq uint64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	f := q.followers[name]
	if f == nil {
		return
	}
	f.synced = true
	if seq > f.acked {
		f.acked = seq
	}
	q.reformLocked()
	q.signalLocked()
}

// close terminates the gate; current and future waiters get a terminal
// error and roll their commits back.
func (q *quorumTracker) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.signalLocked()
}

// WaitCommitted blocks until seq is quorum-committed (or the gate is
// degraded, past its ack deadline, or over its in-flight window — all
// of which release the verdict on local durability). It implements
// server.CommitGate: only closure or ctx cancellation return an error.
func (q *quorumTracker) WaitCommitted(ctx context.Context, seq uint64) error {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	q.mu.Lock()
	if seq > q.maxSeq {
		q.maxSeq = seq
	}
	for {
		if q.closed {
			q.mu.Unlock()
			return errQuorumClosed
		}
		if q.commitFloorLocked() >= seq {
			q.quorumCommits++
			q.mu.Unlock()
			return nil
		}
		if q.degraded {
			q.localCommits++
			q.mu.Unlock()
			return nil
		}
		if q.window > 0 && seq > q.commitFloorLocked()+q.window {
			q.degradeLocked("in-flight window overflow")
			continue
		}
		ch := q.changed
		q.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(q.ackTimeout)
		}
		select {
		case <-ch:
			q.mu.Lock()
		case <-timer.C:
			q.mu.Lock()
			if !q.degraded && q.commitFloorLocked() < seq {
				q.ackTimeouts++
				q.degradeLocked("ack deadline")
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// quorumStatus is the tracker's ops snapshot, folded into ReplStatus.
type quorumStatus struct {
	Degraded       bool
	Connected      int
	AckedSeq       map[string]uint64
	QuorumCommits  int64
	LocalCommits   int64
	DegradedEvents int64
	AckTimeouts    int64
}

func (q *quorumTracker) status() quorumStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := quorumStatus{
		Degraded:       q.degraded,
		Connected:      len(q.followers),
		AckedSeq:       make(map[string]uint64, len(q.followers)),
		QuorumCommits:  q.quorumCommits,
		LocalCommits:   q.localCommits,
		DegradedEvents: q.degradedEvents,
		AckTimeouts:    q.ackTimeouts,
	}
	for name, f := range q.followers {
		st.AckedSeq[name] = f.acked
	}
	return st
}

func (q *quorumTracker) isDegraded() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.degraded
}
