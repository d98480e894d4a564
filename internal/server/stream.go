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

// errStopped ends a parked stream when the server stops: no sender can
// reach it, and it stays journaled for the next generation.
var errStopped = errors.New("server: stopped with the stream parked")

// errRateNotFinite fails a stream whose policy decided a picture at a
// rate that is not finite (the kernel passes a policy's NaN through).
// Egress cannot pace such a picture and its delay is unbounded, so the
// stream counts as a delay violation.
var errRateNotFinite = errors.New("server: decided rate not finite")

// wire is one connection and the framers that own its two directions
// for the connection's whole life.
type wire struct {
	conn net.Conn
	fr   *transport.FrameReader
	fw   *transport.FrameWriter
}

// stream is one admitted session: an ingest loop reading the connection
// and driving the smoothing Session, a bounded queue, and an egress loop
// pacing decided pictures onto the shared link. The Session itself is
// touched only by ingest (it is single-goroutine by contract); mu exists
// so the ops endpoint can snapshot live counters and so a reattach can
// hand over a fresh connection.
//
// The connection is mutable: a retryable fault parks the stream, and a
// reattach hands it a fresh one. Both are lifecycle moves, made by
// Server.applyLocked.
type stream struct {
	id     uint64
	remote string
	hello  transport.StreamHello
	queue  chan item
	token  uint64

	// base is the absolute index of the first picture this generation's
	// Session will see: 0 for a freshly admitted stream, the recovered
	// watermark for a journal-recovered one. The Session numbers its
	// decisions from 0, so base bridges session-local picture numbers to
	// absolute stream indices.
	base int

	// pool is the server's payload pool: the FrameReader (fr.Pool) draws
	// each payload from it, and the buffer goes back once its bytes are
	// finished with — after egress paces the picture onto the link, or
	// immediately when a replayed duplicate is dropped.
	pool *transport.BufferPool

	mu       sync.Mutex
	state    state         // written under s.mu and mu, by Server.applyLocked
	wake     chan struct{} // closed by the adopt that ends a park
	w        wire          // the current connection; zero while parked
	faults   FaultCounts
	expected int                  // next (absolute) picture index ingest will accept
	prefix   transport.PrefixHash // running hash over accepted payloads, in order
	wmState  []byte               // scratch for prefixState (reused per picture)

	sess           *core.Session
	decs           []core.Decision // push's reused decision slice
	stats          *metrics.DecisionStats
	maxUndecided   int     // largest sess.Pending() after a push
	maxDelay       float64 // of the decisions ingest accepted
	peak           float64 // the largest rate ingest accepted
	peakViolations int
	currentRate    float64
	egressedBits   int64
}

// newStream builds an admitting stream skeleton that numbers its
// pictures from base, with prefix the integrity hash at base, drawing
// payloads from pool. Without a connection it is a journal-recovered
// stream, base its watermark, that the recover move parks. The caller
// creates the Session with st.observe installed and assigns it to
// st.sess before the stream is published.
func newStream(w wire, hello transport.StreamHello, prefix transport.PrefixHash, base int, pool *transport.BufferPool) *stream {
	st := &stream{
		remote:   "(recovered)",
		hello:    hello,
		queue:    make(chan item, queueLen),
		wake:     make(chan struct{}),
		pool:     pool,
		prefix:   prefix,
		stats:    metrics.NewDecisionStats(),
		base:     base,
		expected: base,
	}
	if w.conn != nil {
		st.attach(w)
	}
	return st
}

// attach makes w the stream's connection. Its reader draws payloads from
// the server's pool. The caller owns st or holds st.mu.
func (st *stream) attach(w wire) {
	w.fr.Pool = st.pool
	st.w = w
	st.remote = w.conn.RemoteAddr().String()
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

// closeConn closes whichever connection the stream currently owns.
func (st *stream) closeConn() {
	st.mu.Lock()
	conn := st.w.conn
	st.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// push hands one accepted picture, whose payload has CRC-32/IEEE crc,
// to the Session and records the emitted decisions' delay and peak —
// and the payload's contribution to the stream's running integrity hash
// — under the stream lock. The decisions are valid until the next push.
func (st *stream) push(payload []byte, crc uint32) ([]core.Decision, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	decs, err := st.sess.AppendPush(st.decs[:0], int64(len(payload))*8)
	if err != nil {
		return nil, err
	}
	st.decs = decs
	st.expected++
	st.prefix.Absorb(payload, crc)
	st.maxUndecided = max(st.maxUndecided, st.sess.Pending())
	return decs, st.note(decs)
}

// closeSession flushes the Session's remaining decisions.
func (st *stream) closeSession() ([]core.Decision, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	decs := st.sess.Close()
	return decs, st.note(decs)
}

// note records the decisions' delay and rate, counts each decision above
// the stream's reservation as a peak violation, and refuses a decision
// whose rate is not finite before egress could pace it: it returns
// errRateNotFinite, and the stream fails. It must run under st.mu.
func (st *stream) note(decs []core.Decision) error {
	for _, d := range decs {
		if math.IsNaN(d.Rate) || math.IsInf(d.Rate, 0) {
			return fmt.Errorf("%w: picture %d at %v bit/s", errRateNotFinite, d.Picture+st.base, d.Rate)
		}
		if d.Delay > st.maxDelay {
			st.maxDelay = d.Delay
		}
		if d.Rate > st.peak {
			st.peak = d.Rate
		}
		if d.Rate > st.hello.PeakRate*(1+1e-9) {
			st.peakViolations++
		}
	}
	return nil
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
	// pending holds the accepted payloads still waiting for their
	// decisions, oldest first, and decided is the absolute index of the
	// next decision: the Session decides pictures in order, so each
	// decision takes the front payload, and the rest move down in place.
	var pending [][]byte
	decided := st.base
	enqueue := func(decs []core.Decision) error {
		taken := 0
		for _, d := range decs {
			// Decision picture numbers are session-local; st.base rebases
			// them to absolute indices for journal-recovered streams.
			if taken == len(pending) || d.Picture+st.base != decided {
				return fmt.Errorf("server: decision for picture %d without payload", d.Picture+st.base)
			}
			select {
			case st.queue <- item{dec: d, payload: pending[taken]}:
			case <-ctx.Done():
				return ctx.Err()
			}
			taken++
			decided++
		}
		n := copy(pending, pending[taken:])
		clear(pending[n:])
		pending = pending[:n]
		return nil
	}
	cause := errRecoveredUnresumed // why the stream is parked, should its window lapse
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		st.mu.Lock()
		w := st.w
		st.mu.Unlock()
		if w.conn == nil {
			// Parked, by a fault or since recovery: the sender redials
			// with its resume token, or the window lapses.
			if err := st.awaitResume(ctx, s, cause); err != nil {
				return err
			}
			continue
		}
		msg, err := w.fr.ReadMessageTimeout(s.cfg.ReadTimeout)
		end := errors.Is(err, transport.ErrClosed)
		if end {
			// Echo the end marker as the completion ack, once the completion
			// is durable: the sender only reports success once every picture
			// was accepted here. An ack that cannot be delivered parks the
			// stream like any fault; the resume replays nothing and the ack
			// is retried on the fresh connection.
			s.commitCompletion(ctx, st)
			err = w.fw.WriteEnd()
		}
		switch {
		case err != nil && st.park(ctx, s, err):
			cause = err
			continue
		case end:
			// Acked, or unconfirmed but complete: every picture was accepted.
			decs, err := st.closeSession()
			if err != nil {
				return err
			}
			return enqueue(decs)
		case err != nil:
			return err
		}
		m, ok := msg.(*transport.PictureFrame)
		if !ok {
			// A hello, a resume or a rate frame: the server decides every
			// rate itself, and a session has one handshake.
			return fmt.Errorf("server: unexpected %T mid-stream", msg)
		}
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
		pending = append(pending, m.Payload)
		decs, err := st.push(m.Payload, m.CRC)
		if err != nil {
			return err
		}
		s.journalWatermark(st)
		if err := enqueue(decs); err != nil {
			return err
		}
	}
}

// park counts a connection fault by class and, when the stream may wait
// out the resume window for it (the fault is retryable, the stream holds
// a resume token, and the server is not shutting down), parks the
// stream. It reports whether the stream parked.
func (st *stream) park(ctx context.Context, s *Server, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	class := transport.ClassifyFault(err)
	st.mu.Lock()
	st.faults.record(class) // FaultNone counts nothing
	st.mu.Unlock()
	return st.token != 0 && class.Retryable() && s.apply(st, move{ev: evPark})
}

// awaitResume waits out a parked stream's resume window with its
// reservation held. It returns nil once a reattach has adopted the
// stream, and otherwise the error that ends it: the window lapsed,
// reporting cause, the server stopped (errStopped), or it was cancelled.
func (st *stream) awaitResume(ctx context.Context, s *Server, cause error) error {
	st.mu.Lock()
	wake := st.wake
	st.mu.Unlock()
	timer := time.NewTimer(s.cfg.ResumeWindow)
	defer timer.Stop()
	select {
	case <-wake:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.stopped:
		return errStopped
	case <-timer.C:
	}
	err := fmt.Errorf("server: no resume within %v: %w", s.cfg.ResumeWindow, cause)
	if !s.apply(st, move{ev: evLapse, cause: err}) {
		return nil // a reattach adopted the stream as the window closed
	}
	return err
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
	// same smoothing parameters). A decision at a rate that is not
	// finite fails the stream and never counts here.
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
	// PeakViolations counts the decisions this server made above the
	// declared peak: pictures egress sends faster than the reservation
	// admits, whoever the sender is. A sender that declares the peak of
	// the bytes it sends (transport.WirePeak) under the server's policy
	// reads 0.
	PeakViolations int `json:"peak_violations"`
	// Resumes counts accepted reconnects (faults.resumed); Parked
	// reports a stream in the parked or claimed state: disconnected and
	// waiting out its resume window. Faults are this stream's classified
	// transport faults.
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
		SessionPeak:  st.peak,
		CurrentRate:  st.currentRate,
		Pictures:     st.expected,
		Decisions:    st.stats.Decisions,
		EgressedBits: st.egressedBits,
		MaxUndecided: st.maxUndecided,

		PeakViolations: st.peakViolations,
		Resumes:        int(st.faults.Resumed),
		Parked:         st.state == parked || st.state == claimed,
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
