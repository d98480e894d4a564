package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/transport"
)

// item is one scheduled picture handed from ingest to egress.
type item struct {
	dec     core.Decision
	payload []byte
}

// errRecoveredUnresumed fails a journal-recovered stream whose sender
// never redialed within the resume window.
var errRecoveredUnresumed = errors.New("server: recovered stream never resumed")

// resumedConn is a reconnecting sender's connection, handed from the
// accept handler to the parked stream's ingest loop.
type resumedConn struct {
	conn net.Conn
	fr   *transport.FrameReader
	fw   *transport.FrameWriter
}

// stream is one admitted session: an ingest loop reading the connection
// and driving the smoothing Session, a bounded queue, and an egress loop
// pacing decided pictures onto the shared link. The Session itself is
// touched only by ingest (it is single-goroutine by contract); mu exists
// so the ops endpoint can snapshot live counters and so a resume handler
// can hand over a fresh connection.
//
// The connection (and its FrameReader) is mutable: a retryable fault
// parks the stream, and a StreamResume handshake replaces them. The
// accepting/resumeGone flags (under mu) serialize that handover against
// the resume-window expiry.
type stream struct {
	id       uint64
	remote   string
	hello    transport.StreamHello
	queue    chan item
	token    uint64
	resumeCh chan resumedConn // cap 1; guarded by accepting/resumeGone

	// base is the absolute index of the first picture this generation's
	// Session will see: 0 for a freshly admitted stream, the recovered
	// watermark for a journal-recovered one. The Session numbers its
	// decisions from 0, so base bridges session-local picture numbers to
	// absolute stream indices.
	base int

	// pool recycles picture payload buffers across this stream's frames:
	// the FrameReader (fr.Pool) draws each payload from it, and the
	// buffer goes back once its bytes are finished with — after egress
	// paces the picture onto the link, or immediately when a replayed
	// duplicate is dropped. Per-stream (not global) so buffer sizes
	// settle to the stream's own picture distribution and a resumed
	// connection inherits warm buffers via adopt.
	pool transport.BufferPool

	mu           sync.Mutex
	conn         net.Conn
	fr           *transport.FrameReader
	fw           *transport.FrameWriter
	accepting    bool // parked and willing to adopt a resumed connection
	resumeGone   bool // resume window expired; never deliver again
	parked       bool
	windowLapsed bool // the resume window ran out with no reconnect
	resumes      int
	faults       FaultCounts
	expected     int                  // next (absolute) picture index ingest will accept
	prefix       transport.PrefixHash // running hash over accepted payloads, in order
	wmState      []byte               // scratch for prefixState (reused per picture)

	sess           *core.Session
	stats          *metrics.DecisionStats
	maxUndecided   int // largest sess.Pending() after a push
	maxDelay       float64
	peakViolations int
	currentRate    float64
	egressedBits   int64
}

// newStream builds the stream skeleton; the caller creates the Session
// with st.observe installed and assigns it to st.sess before the stream
// is published. prefix is the negotiated integrity hash, fresh for a
// new stream.
func newStream(conn net.Conn, fr *transport.FrameReader, fw *transport.FrameWriter, hello transport.StreamHello, prefix transport.PrefixHash) *stream {
	return &stream{
		remote:   conn.RemoteAddr().String(),
		conn:     conn,
		fr:       fr,
		fw:       fw,
		hello:    hello,
		queue:    make(chan item, queueLen),
		resumeCh: make(chan resumedConn, 1),
		prefix:   prefix,
		stats:    metrics.NewDecisionStats(),
	}
}

// newParkedStream builds a journal-recovered stream: no connection yet,
// the accept watermark and prefix hash restored to their journaled
// values. Its ingest loop starts by waiting out the resume window for
// the sender to redial; pictures below base were accepted by the
// previous server generation (their payloads are gone with it) and the
// fresh Session smooths only the remainder.
func newParkedStream(hello transport.StreamHello, prefix transport.PrefixHash, watermark int) *stream {
	return &stream{
		remote:   "(recovered)",
		hello:    hello,
		queue:    make(chan item, queueLen),
		resumeCh: make(chan resumedConn, 1),
		prefix:   prefix,
		stats:    metrics.NewDecisionStats(),
		base:     watermark,
		expected: watermark,
		parked:   true,
	}
}

// observe feeds the per-stream DecisionStats; installed as the Session
// observer by the caller that owns the Session. It runs inside Push or
// Close, which ingest always calls under st.mu. On a declared-length
// stream observations trail decisions by up to H pictures, so a stream
// that fails before Close never observes its last few.
func (st *stream) observe(o core.Observation) {
	st.stats.Add(o.LowerSlack, o.UpperSlack, o.Depth, o.EstimatorError)
}

// resumePoint returns the stream's accept watermark and the running
// FNV-1a over the accepted prefix — the (NextIndex, PrefixFNV) pair a
// resume or reattach verdict carries so the sender can verify its own
// bytes match ours before replaying.
func (st *stream) resumePoint() (next int, prefix uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.expected, st.prefix.Sum64()
}

// prefixState returns the accept watermark and the prefix hash's
// resumable state — what the journal records so a restarted server can
// continue the hash mid-stream. The state is written into a per-stream
// scratch buffer, valid until the next prefixState call: this runs once
// per accepted picture, and the journal copies it synchronously.
func (st *stream) prefixState() (next int, state []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.wmState = st.prefix.AppendState(st.wmState[:0])
	return st.expected, st.wmState
}

// resumeWindowLapsed reports whether the stream failed because its
// resume window ran out — the journal's ExpireResumeWindow reason.
func (st *stream) resumeWindowLapsed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.windowLapsed
}

// closeConn closes whichever connection the stream currently owns.
func (st *stream) closeConn() {
	st.mu.Lock()
	conn := st.conn
	st.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// push hands one accepted picture to the Session and records the
// emitted decisions' delay and peak — and the payload's contribution to
// the stream's running integrity hash — under the stream lock.
func (st *stream) push(payload []byte) ([]core.Decision, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	decs, err := st.sess.Push(int64(len(payload)) * 8)
	if err != nil {
		return nil, err
	}
	st.expected++
	st.prefix.Absorb(payload)
	st.maxUndecided = max(st.maxUndecided, st.sess.Pending())
	st.note(decs)
	return decs, nil
}

// closeSession flushes the Session's remaining decisions.
func (st *stream) closeSession() []core.Decision {
	st.mu.Lock()
	defer st.mu.Unlock()
	decs := st.sess.Close()
	st.note(decs)
	return decs
}

// note must run under st.mu.
func (st *stream) note(decs []core.Decision) {
	for _, d := range decs {
		if d.Delay > st.maxDelay {
			st.maxDelay = d.Delay
		}
	}
}

// recordFault classifies and counts one ingest fault.
func (st *stream) recordFault(class transport.FaultClass) {
	st.mu.Lock()
	st.faults.record(class)
	st.mu.Unlock()
}

// runIngest reads the connection until the end marker, pushing picture
// sizes through the smoothing session and enqueueing decided pictures
// for egress. The bounded queue is the backpressure point: when egress
// falls behind, enqueue blocks, ingest stops reading, and TCP flow
// control pushes back on the sender. The queue is closed on every exit
// path; runIngest is its only sender.
//
// A classified retryable fault (corruption, timeout, reset) does not
// fail the stream when resumption is enabled: the stream parks and
// waits out the resume window for the sender to reconnect. Replayed
// pictures below the accept watermark are deduplicated; a gap above it
// is a protocol violation and fails the stream.
func (st *stream) runIngest(ctx context.Context, s *Server) error {
	defer close(st.queue)
	pending := make(map[int][]byte)
	enqueue := func(decs []core.Decision) error {
		for _, d := range decs {
			// Decision picture numbers are session-local; st.base rebases
			// them to absolute indices for journal-recovered streams.
			payload, ok := pending[d.Picture+st.base]
			if !ok {
				return fmt.Errorf("server: decision for picture %d without payload", d.Picture+st.base)
			}
			delete(pending, d.Picture+st.base)
			select {
			case st.queue <- item{dec: d, payload: payload}:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.mu.Lock()
		fr, fw := st.fr, st.fw
		st.mu.Unlock()
		if fr == nil {
			// Journal-recovered stream: no connection yet. Park first —
			// the sender redials with its resume token, or the window
			// lapses and the stream expires like any abandoned park.
			if rerr := st.awaitResume(ctx, s, errRecoveredUnresumed); rerr != nil {
				return rerr
			}
			continue
		}
		msg, err := fr.ReadMessageTimeout(s.cfg.ReadTimeout)
		if errors.Is(err, transport.ErrClosed) {
			// Make the completion durable before echoing the end marker as
			// the completion ack: an acked stream must be answerable as
			// AlreadyComplete even across a crash. (A journal failure here
			// costs durability, not correctness — see journalComplete.)
			seq, jerr := s.journalComplete(st)
			if jerr != nil {
				s.cfg.Logf("smoothd: stream %d completion journal write failed: %v", st.id, jerr)
			} else if seq != 0 && s.cfg.Quorum != nil {
				// Hold the completion ack until a quorum holds the
				// tombstone. Unlike admission there is nothing to roll
				// back — every picture was accepted — so a terminal gate
				// error only costs ack durability: log and ack anyway
				// (the sender's resume would complete idempotently).
				if qerr := s.cfg.Quorum.WaitCommitted(ctx, seq); qerr != nil {
					s.cfg.Logf("smoothd: stream %d completion quorum not reached: %v", st.id, qerr)
				}
			}
			// Echo the end marker as the completion ack: the sender only
			// reports success once every picture was accepted here. If the
			// ack cannot be delivered, park — the resume replays nothing
			// and the ack is retried on the fresh connection.
			if aerr := fw.WriteEnd(); aerr != nil {
				class := transport.ClassifyFault(aerr)
				if ctx.Err() == nil && class != transport.FaultNone {
					st.recordFault(class)
				}
				if st.token != 0 && s.cfg.ResumeWindow > 0 && class.Retryable() && ctx.Err() == nil {
					if rerr := st.awaitResume(ctx, s, aerr); rerr != nil {
						return rerr
					}
					continue
				}
				// Unconfirmed, but complete: every picture was accepted.
			}
			return enqueue(st.closeSession())
		}
		if err != nil {
			class := transport.ClassifyFault(err)
			if ctx.Err() == nil && class != transport.FaultNone {
				st.recordFault(class)
			}
			if st.token == 0 || s.cfg.ResumeWindow <= 0 || !class.Retryable() || ctx.Err() != nil {
				return err
			}
			if rerr := st.awaitResume(ctx, s, err); rerr != nil {
				return rerr
			}
			continue
		}
		switch m := msg.(type) {
		case *transport.RateNotification:
			// The sender's own declared rates are informational here (the
			// server re-decides), but a declaration above the admitted
			// peak breaks the traffic contract — count it, as a Policer
			// parameterized at the declared peak would.
			if m.Rate > st.hello.PeakRate*(1+1e-9) {
				st.mu.Lock()
				st.peakViolations++
				st.mu.Unlock()
			}
		case *transport.PictureFrame:
			st.mu.Lock()
			exp := st.expected
			st.mu.Unlock()
			if m.Index < exp {
				// Replay of a picture we already accepted (the sender's
				// resume point trailed our watermark): drop, don't re-smooth.
				st.mu.Lock()
				st.faults.DuplicatesDropped++
				st.mu.Unlock()
				st.pool.Put(m.Payload)
				continue
			}
			if m.Index > exp {
				return fmt.Errorf("server: picture %d out of order (expected %d)", m.Index, exp)
			}
			pending[exp] = m.Payload
			decs, err := st.push(m.Payload)
			if err != nil {
				return err
			}
			s.journalWatermark(st)
			if err := enqueue(decs); err != nil {
				return err
			}
		case *transport.StreamHello:
			return fmt.Errorf("server: duplicate hello mid-stream")
		case *transport.StreamResume:
			return fmt.Errorf("server: resume request mid-stream")
		default:
			return fmt.Errorf("server: unexpected message %T", msg)
		}
	}
}

// awaitResume parks the stream for the resume window: the dead
// connection is closed, the admission reservation stays held, and the
// ingest loop blocks until a resume handler delivers a fresh connection
// or the window expires. cause is the fault that parked us, reported if
// no sender comes back.
func (st *stream) awaitResume(ctx context.Context, s *Server, cause error) error {
	st.mu.Lock()
	if st.conn != nil {
		st.conn.Close()
	}
	st.conn = nil
	st.accepting = true
	st.resumeGone = false
	st.parked = true
	st.mu.Unlock()

	timer := time.NewTimer(s.cfg.ResumeWindow)
	defer timer.Stop()
	select {
	case rc := <-st.resumeCh:
		st.adopt(rc)
		return nil
	case <-ctx.Done():
		st.mu.Lock()
		st.accepting = false
		st.resumeGone = true
		st.parked = false
		st.mu.Unlock()
		return ctx.Err()
	case <-timer.C:
	}
	// Window expired. Flip the flags under the lock, then drain once:
	// a resume handler that claimed the slot before our flip has either
	// already delivered (we adopt it and carry on) or will observe
	// resumeGone and close its connection.
	st.mu.Lock()
	st.accepting = false
	select {
	case rc := <-st.resumeCh:
		st.mu.Unlock()
		st.adopt(rc)
		return nil
	default:
		st.resumeGone = true
		st.parked = false
		st.windowLapsed = true
		st.faults.ResumeExpired++
		st.mu.Unlock()
	}
	return fmt.Errorf("server: no resume within %v: %w", s.cfg.ResumeWindow, cause)
}

// adopt installs a resumed connection as the stream's current one. The
// fresh connection's reader joins the stream's payload pool, so a
// resume inherits the warm buffers its predecessor filled.
func (st *stream) adopt(rc resumedConn) {
	st.mu.Lock()
	rc.fr.Pool = &st.pool
	st.conn = rc.conn
	st.fr = rc.fr
	st.fw = rc.fw
	st.remote = rc.conn.RemoteAddr().String()
	st.accepting = false
	st.parked = false
	st.resumes++
	st.faults.Resumed++
	st.mu.Unlock()
}

// runEgress paces decided pictures onto the shared link at their decided
// rates through one transport.Pacer, on the stream's own schedule clock:
// the first decision's start is the instant it is dequeued.
func (st *stream) runEgress(ctx context.Context, lk *link, clock transport.Clock, scale float64) error {
	defer st.setCurrentRate(0)
	var p *transport.Pacer
	for it := range st.queue {
		d := it.dec
		if p == nil {
			p = transport.NewPacer(clock, scale, egressChunk, d.Start)
		}
		if err := p.Wait(ctx, d.Start); err != nil {
			return err
		}
		st.setCurrentRate(d.Rate)
		if err := p.Pace(ctx, d.Start, d.Rate, it.payload, lk.write); err != nil {
			return err
		}
		st.mu.Lock()
		st.egressedBits += int64(len(it.payload)) * 8
		st.mu.Unlock()
		// The picture has fully crossed the link; recycle its buffer for
		// the reader's next frame.
		st.pool.Put(it.payload)
	}
	return nil
}

func (st *stream) setCurrentRate(r float64) {
	st.mu.Lock()
	st.currentRate = r
	st.mu.Unlock()
}

// StreamSnapshot is the ops view of one active stream.
type StreamSnapshot struct {
	ID     uint64 `json:"id"`
	Remote string `json:"remote"`
	// DeclaredPeak is the hello's reserved traffic descriptor;
	// SessionPeak is the largest rate the server's own session has
	// decided so far (≤ DeclaredPeak for a truthful sender using the
	// same smoothing parameters).
	DeclaredPeak float64 `json:"declared_peak_bps"`
	SessionPeak  float64 `json:"session_peak_bps"`
	CurrentRate  float64 `json:"current_rate_bps"`
	// Pictures is the accept watermark: every picture accepted in index
	// order, including those a crashed server generation accepted before
	// this one recovered the stream. Decisions counts only this
	// generation's session, and only observed decisions: on a stream
	// with a declared count they trail the decisions made by up to H
	// pictures until the end marker.
	Pictures     int   `json:"pictures"`
	Decisions    int   `json:"decisions"`
	EgressedBits int64 `json:"egressed_bits"`
	// MaxUndecided is the most accepted pictures that were ever waiting
	// for their rate decision: how far the stream's egress may trail its
	// sender. A declared picture count keeps it near the pictures that
	// arrive while one departs; without one every decision waits for
	// its lookahead window, and it is H−1.
	MaxUndecided int `json:"max_undecided_pictures"`
	// PeakViolations counts sender rate declarations above the admitted
	// peak — traffic-contract breaches a Policer would tag.
	PeakViolations int `json:"peak_violations"`
	// Resumes counts accepted reconnects; Parked reports a stream
	// currently disconnected and waiting out its resume window. Faults
	// are this stream's classified transport faults.
	Resumes int         `json:"resumes"`
	Parked  bool        `json:"parked"`
	Faults  FaultCounts `json:"faults"`
	// PayloadFNV is the running prefix tag over every accepted payload
	// in index order (transport.PrefixHash) — the integrity fingerprint
	// chaos tests compare against the sender's.
	PayloadFNV uint64 `json:"payload_fnv"`
	// DecisionStats summary: see metrics.DecisionStats.
	OutOfBand             int     `json:"out_of_band"`
	MeanDepth             float64 `json:"mean_depth"`
	MinSlack              float64 `json:"min_slack_bps"`
	MeanAbsEstimatorError float64 `json:"mean_abs_estimator_error"`
	// Delay-bound headroom: the stream's bound D, the largest per-picture
	// delay any decision has incurred, and the margin between them.
	DelayBound    float64 `json:"delay_bound_s"`
	MaxDelay      float64 `json:"max_delay_s"`
	DelayHeadroom float64 `json:"delay_headroom_s"`
}

func (st *stream) snapshot() StreamSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	minSlack := st.stats.MinSlack()
	if math.IsInf(minSlack, 0) {
		minSlack = 0 // no decisions yet; keep the snapshot JSON-encodable
	}
	return StreamSnapshot{
		ID:           st.id,
		Remote:       st.remote,
		DeclaredPeak: st.hello.PeakRate,
		SessionPeak:  st.sess.PeakRate(),
		CurrentRate:  st.currentRate,
		Pictures:     st.expected,
		Decisions:    st.stats.Decisions,
		EgressedBits: st.egressedBits,
		MaxUndecided: st.maxUndecided,

		PeakViolations: st.peakViolations,
		Resumes:        st.resumes,
		Parked:         st.parked,
		Faults:         st.faults,
		PayloadFNV:     st.prefix.Sum64(),

		OutOfBand:             st.stats.OutOfBand,
		MeanDepth:             st.stats.MeanDepth(),
		MinSlack:              minSlack,
		MeanAbsEstimatorError: st.stats.MeanAbsEstimatorError(),

		DelayBound:    st.hello.D,
		MaxDelay:      st.maxDelay,
		DelayHeadroom: headroom(st.hello.D, st.maxDelay),
	}
}

// headroom is D − maxDelay with sub-nanosecond float noise clamped to
// zero: a schedule that rides the delay bound exactly (maxDelay == D up
// to rounding) has zero headroom, not a violation-looking −1e-17.
func headroom(d, maxDelay float64) float64 {
	h := d - maxDelay
	if h < 0 && h > -delayTolerance {
		return 0
	}
	return h
}
