package transport

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/trace"
)

// Backoff parameterizes the jittered exponential reconnect delay: the
// n-th consecutive failure waits Base·Factor^(n−1), capped at Max, then
// pulled earlier by up to Jitter (a fraction of the delay) so a fleet
// of disconnected senders does not reconnect in lockstep.
type Backoff struct {
	Base   time.Duration // default 50ms
	Max    time.Duration // default 2s
	Factor float64       // default 2
	Jitter float64       // fraction of the delay randomized away, default 0.5
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter < 0 || b.Jitter > 1 {
		b.Jitter = 0.5
	}
	return b
}

// Delay returns the wait before reconnect attempt n (1-based).
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	b = b.withDefaults()
	d := float64(b.Base)
	for i := 1; i < attempt && d < float64(b.Max); i++ {
		d *= b.Factor
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 && rng != nil {
		d *= 1 - b.Jitter*rng.Float64()
	}
	return time.Duration(d)
}

// ResumeEvent reports one reconnect-loop transition to OnEvent hooks
// (CLI logging, test assertions).
type ResumeEvent struct {
	// Attempt is the consecutive-failure count when the event fired.
	Attempt int
	// Class is the fault classification of Err.
	Class FaultClass
	// Err is the failure that triggered the reconnect (nil on Resumed).
	Err error
	// Resumed is set when a StreamResume handshake was accepted;
	// NextIndex is then the server-chosen replay point.
	Resumed   bool
	NextIndex int
	// AlreadyComplete is set when a resume was answered with an
	// AlreadyComplete verdict: the server had accepted the whole stream
	// and only the completion ack was lost. The stream is reported as a
	// success, but callers may want to log the lost-ack recovery.
	AlreadyComplete bool
	// Redirected is set when the handshake was answered with a shard
	// redirect; RedirectAddr is the owning shard the loop dials next.
	Redirected   bool
	RedirectAddr string
}

// StreamResult summarizes a resumable stream session.
type StreamResult struct {
	// Verdict is the last verdict a hello drew (a resume's are not kept):
	// the admission, or the refusal that ended or delayed it.
	Verdict Verdict
	// Resumes counts accepted StreamResume handshakes.
	Resumes int
	// AlreadyComplete reports that the stream's success was confirmed by
	// an AlreadyComplete resume verdict rather than a completion ack:
	// the server finished the stream, the final ack was lost, and the
	// tombstone's hash verified byte-exact delivery.
	AlreadyComplete bool
	// Redirects counts shard redirects the loop followed before landing
	// on the owning server.
	Redirects int
	// Faults counts classified failures the loop recovered from (or
	// died on), by class.
	Faults map[FaultClass]int
}

// newNonce draws a crypto-random nonzero hello nonce, falling back to
// the jitter RNG on a broken platform (dedup then only defends against
// accident, not collision-hunting — acceptable for a liveness aid).
func newNonce(rng *rand.Rand) uint64 {
	var buf [8]byte
	for i := 0; i < 4; i++ {
		if _, err := cryptorand.Read(buf[:]); err != nil {
			break
		}
		if n := binary.BigEndian.Uint64(buf[:]); n != 0 {
			return n
		}
	}
	for {
		if n := rng.Uint64(); n != 0 {
			return n
		}
	}
}

// ResumableSender is smoothd's client and its reconnect loop: it dials,
// performs the admission handshake, uploads the stream, and — on a
// classified transient fault — redials with jittered exponential backoff
// and resumes from the server-chosen replay point, so a flaky link
// yields a complete stream rather than a dead one.
type ResumableSender struct {
	// Sender's Clock, TimeScale, Chunk and WriteTimeout shape the
	// upload; its WriteTimeout also bounds handshake writes.
	Sender Sender
	// Dial opens a connection to the server. Required.
	Dial func(ctx context.Context) (net.Conn, error)
	// DialAddr, when set, opens a connection to a specific address — the
	// redirect-follow path for a sharded fleet. A server that does not
	// own this stream's session key answers the handshake with a
	// Redirect naming the owning shard's address; the loop redials there
	// (and keeps using that address for subsequent reconnects). Without
	// DialAddr, a redirect is a terminal error.
	DialAddr func(ctx context.Context, addr string) (net.Conn, error)
	// Hello is the admission declaration for the initial handshake.
	Hello StreamHello
	// Backoff shapes the reconnect delays (zero value = defaults).
	Backoff Backoff
	// MaxAttempts bounds consecutive failed reconnect attempts before
	// the stream is abandoned (default 8; successes reset the count).
	MaxAttempts int
	// HandshakeTimeout bounds the wait for each verdict (default 10s).
	HandshakeTimeout time.Duration
	// Seed fixes the jitter randomness for deterministic tests; 0 draws
	// from the global source.
	Seed int64
	// Integrity selects the prefix-verification hash the hello
	// negotiates (default IntegrityFNV; overrides Hello.Integrity when
	// set). IntegrityHMAC requires Key.
	Integrity IntegrityMode
	// Key is the shared secret for IntegrityHMAC.
	Key []byte
	// OnEvent, when set, observes every fault and resume.
	OnEvent func(ResumeEvent)
}

// WirePeak is the PeakRate to declare in h for payloads: the peak of
// the offline schedule over the 8·len(p) bits per picture smoothd
// smooths, with h's τ, GOP, K and D, H = N and the given policy (nil is
// the basic one), which must be the server's.
func WirePeak(h StreamHello, policy core.Policy, payloads [][]byte) (float64, error) {
	sizes := make([]int64, len(payloads))
	for i, p := range payloads {
		sizes[i] = int64(len(p)) * 8
	}
	sched, err := core.Smooth(&trace.Trace{Tau: h.Tau, GOP: h.GOP, Sizes: sizes},
		core.Config{K: h.K, H: h.GOP.N, D: h.D, Policy: policy})
	if err != nil {
		return 0, err
	}
	return sched.PeakRate(), nil
}

// Stream uploads payloads for smoothd to smooth: picture i goes whole,
// with no rate frame, at its encoder arrival i·τ (τ from Hello), and a
// resume shifts those arrivals so the replay point goes at once. It
// returns once the server acknowledges the end marker (success), the
// server rejects the stream, a fault is terminal, or MaxAttempts
// consecutive reconnects fail.
func (rs *ResumableSender) Stream(ctx context.Context, payloads [][]byte) (StreamResult, error) {
	l := &sendLoop{rs: rs, payloads: payloads, hello: rs.Hello,
		maxAttempts: rs.MaxAttempts, hsTimeout: rs.HandshakeTimeout,
		result: StreamResult{Faults: map[FaultClass]int{}}}
	if rs.Dial == nil {
		return l.result, fmt.Errorf("transport: ResumableSender needs a Dial function")
	}
	if l.maxAttempts <= 0 {
		l.maxAttempts = 8
	}
	if l.hsTimeout <= 0 {
		l.hsTimeout = 10 * time.Second
	}
	// The pacer's clock also times the backoff; each connection anchors
	// a fresh pacer at its replay point.
	l.pacer = NewPacer(rs.Sender.Clock, rs.Sender.TimeScale, rs.Sender.Chunk, 0)
	if rs.Seed != 0 {
		l.rng = rand.New(rand.NewSource(rs.Seed))
	} else {
		l.rng = rand.New(rand.NewSource(rand.Int63()))
	}
	// One nonce for the stream's whole life: every hello retry repeats
	// it, so a redial after a lost verdict reattaches to the existing
	// reservation instead of double-reserving.
	if l.hello.Nonce == 0 {
		l.hello.Nonce = newNonce(l.rng)
	}
	if rs.Integrity != IntegrityFNV {
		l.hello.Integrity = rs.Integrity
	}
	// Validate the negotiated mode/key pair once; prefix then cannot fail.
	if _, err := NewPrefixHash(l.hello.Integrity, rs.Key); err != nil {
		return l.result, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return l.result, err
		}
		err := l.connect(ctx)
		var ref refusal
		switch {
		case err == nil:
			return l.result, nil
		case errors.Is(err, errRedirected):
			continue
		case errors.As(err, &ref):
			return l.result, ref.error
		}
		if err := l.fail(ctx, err); err != nil {
			return l.result, err
		}
	}
}

// maxRedirects bounds a redirect chain: a correctly configured fleet
// redirects at most once (every shard routes a key identically), so a
// longer chain means the fleet's rings disagree.
const maxRedirects = 8

// errRedirected ends a connection whose reply was a redirect the loop
// follows: the fleet answered correctly, so it is no fault and costs no
// backoff.
var errRedirected = errors.New("transport: redirected")

// refusal ends the stream without a fault: a rejection no retry can
// turn around, or a redirect the loop cannot follow.
type refusal struct{ error }

// sendLoop is one Stream call's state across its connections.
type sendLoop struct {
	rs          *ResumableSender
	payloads    [][]byte
	hello       StreamHello // Hello with the nonce and integrity mode fixed
	pacer       *Pacer      // the defaults every connection's pacer takes
	rng         *rand.Rand
	maxAttempts int
	hsTimeout   time.Duration

	admitted  bool   // a hello was admitted
	token     uint64 // its resume token; 0 when the server issued none
	attempt   int    // consecutive failures
	addr      string // redirect target; empty = rs.Dial
	redirects int    // consecutive redirects without a verdict
	epoch     uint64 // highest fencing epoch any verdict or redirect carried
	result    StreamResult
}

// connect runs one connection: it writes the hello, or the resume once a
// hello was admitted, has decide answer the first reply, uploads from
// the replay point decide returns, and awaits the completion ack. It
// closes the connection in one place.
func (l *sendLoop) connect(ctx context.Context) error {
	var (
		conn net.Conn
		err  error
	)
	if l.addr != "" {
		conn, err = l.rs.DialAddr(ctx, l.addr)
	} else {
		conn, err = l.rs.Dial(ctx)
	}
	if err != nil {
		return err
	}
	defer conn.Close()
	w := NewFrameWriter(conn)
	w.WriteTimeout = l.rs.Sender.WriteTimeout
	r := NewFrameReader(conn)
	if l.token == 0 {
		err = w.WriteHello(l.hello)
	} else {
		err = w.WriteResume(StreamResume{Token: l.token})
	}
	var msg any
	if err == nil {
		msg, err = r.ReadMessageTimeout(l.hsTimeout)
	}
	if err != nil {
		return err
	}
	next, done, err := l.decide(msg)
	if done || err != nil {
		return err
	}
	// Upload picture i at its encoder arrival i·τ, on a clock that puts
	// the replay point at the current instant.
	tau := l.hello.Tau
	p := NewPacer(l.pacer.Clock, l.pacer.Scale, l.pacer.Chunk, float64(next)*tau)
	for i := next; i < len(l.payloads) && err == nil; i++ {
		if err = p.Wait(ctx, float64(i)*tau); err == nil {
			err = w.WritePictureHeader(i, l.hello.GOP.TypeOf(i), l.payloads[i])
		}
		if err == nil {
			err = p.Pace(ctx, float64(i)*tau, math.Inf(1), l.payloads[i], w.WriteChunk)
		}
	}
	if err == nil {
		err = w.WriteEnd()
	}
	if err != nil {
		return err
	}
	// Wait for the completion ack (the server's end marker echo): success
	// means every picture was accepted, not merely that our last write
	// landed in a socket buffer. A missing ack is an ordinary fault — the
	// resume replays nothing and re-acks.
	if _, err = r.ReadMessageTimeout(l.hsTimeout); errors.Is(err, ErrClosed) {
		return nil
	}
	if err == nil {
		err = fmt.Errorf("transport: unexpected frame instead of completion ack")
	}
	return fmt.Errorf("transport: awaiting completion ack: %w", err)
}

// decide answers a connection's first reply. It returns the picture to
// upload from, or done when the server already holds the whole stream;
// otherwise the error that ends the connection: errRedirected, a
// refusal, or a fault for fail.
func (l *sendLoop) decide(msg any) (next int, done bool, err error) {
	var epoch uint64
	switch m := msg.(type) {
	case *Verdict:
		epoch = m.Epoch
	case *Redirect:
		epoch = m.Epoch
	default:
		return 0, false, fmt.Errorf("%w: expected verdict, got %T", ErrCorrupt, msg)
	}
	// Epoch fencing: a reply stamped below the highest epoch seen comes
	// from a deposed primary that does not yet know it was replaced.
	// Acting on it — following its routing, replaying pictures, accepting
	// a rejection — would trust authority the cluster already revoked, so
	// it is a transient fault, retried toward the new primary.
	if epoch > 0 && epoch < l.epoch {
		return 0, false, fmt.Errorf("%w: %T epoch %d below %d", ErrStaleEpoch, msg, epoch, l.epoch)
	}
	l.epoch = max(l.epoch, epoch)
	v, ok := msg.(*Verdict)
	if !ok {
		return 0, false, l.follow(msg.(*Redirect))
	}
	l.redirects = 0
	if l.token == 0 {
		l.result.Verdict = *v
	}
	switch v.Code {
	case Admitted:
		next = v.NextIndex
	case AlreadyComplete:
		// The server finished this stream and tombstoned the token; only
		// the completion ack was lost. Its hash must cover our whole
		// stream, or both ends "completed" different streams.
		next = len(l.payloads)
	case RejectedBusy:
		// On a resume, or on a redialed hello whose nonce matched a live
		// stream, the server has not yet detected our old connection's
		// death and parked the stream: the reconnect raced the fault. On
		// a fresh hello the server is at its stream limit or draining.
		return 0, false, ErrResumeBusy
	case RejectedMalformed:
		// We validated our hello and our token is server-issued, so the
		// likeliest cause is the request's corruption in flight. (A truly
		// unknown token exhausts the attempts.)
		return 0, false, fmt.Errorf("transport: server rejected handshake as malformed (likely corrupted in flight): %w", ErrCorrupt)
	default:
		return 0, false, refusal{fmt.Errorf("transport: stream %s by server (%.0f bps available)", v.Code, v.Available)}
	}
	// NextIndex is the server's accept watermark: zero on a fresh
	// admission, the replay point on a resume, and possibly nonzero on a
	// hello verdict too when the nonce reattached us to a session a lost
	// verdict orphaned. Check the server's prefix tag against our own
	// bytes before (re)playing anything.
	if next > len(l.payloads) {
		return 0, false, fmt.Errorf("transport: server watermark %d beyond stream length %d: %w",
			next, len(l.payloads), ErrDiverged)
	}
	if want := l.prefix(next); v.PrefixFNV != want {
		return 0, false, fmt.Errorf("transport: server prefix tag %016x at picture %d, ours %016x: %w",
			v.PrefixFNV, next, want, ErrDiverged)
	}
	if v.Code == AlreadyComplete {
		l.result.AlreadyComplete = true
		l.event(ResumeEvent{Resumed: true, NextIndex: next, AlreadyComplete: true})
		return next, true, nil
	}
	if !l.admitted {
		l.admitted, l.token = true, v.ResumeToken
	} else {
		l.result.Resumes++
		l.event(ResumeEvent{Resumed: true, NextIndex: next})
	}
	l.attempt = 0
	return next, false, nil
}

// follow takes a redirect to the shard that owns this stream's key. It
// stays outside the failure accounting, but the chain is bounded so
// disagreeing rings cannot bounce the stream forever.
func (l *sendLoop) follow(rd *Redirect) error {
	if l.rs.DialAddr == nil {
		return refusal{fmt.Errorf("transport: server redirected stream to %s but no DialAddr is configured", rd.Addr)}
	}
	l.result.Redirects++
	if l.redirects++; l.redirects > maxRedirects {
		return refusal{fmt.Errorf("transport: redirect chain exceeded %d hops (last to %s)", maxRedirects, rd.Addr)}
	}
	l.addr = rd.Addr
	l.event(ResumeEvent{Redirected: true, RedirectAddr: rd.Addr})
	return errRedirected
}

// fail accounts for one fault: it counts the fault's class and reports
// it to OnEvent, then backs off for the next attempt unless the fault
// ends the stream. It does when a hello was admitted without a resume
// token (the server cannot deduplicate a replay, so a redial would
// deliver twice), when the fault is not retryable, and when it is the
// MaxAttempts-th in a row.
func (l *sendLoop) fail(ctx context.Context, err error) error {
	class := ClassifyFault(err)
	l.result.Faults[class]++
	l.attempt++
	l.event(ResumeEvent{Class: class, Err: err})
	switch {
	case l.admitted && l.token == 0:
		return fmt.Errorf("transport: stream fault (%s) with no resume token: %w", class, err)
	case !class.Retryable():
		return fmt.Errorf("transport: terminal stream fault (%s): %w", class, err)
	case l.attempt >= l.maxAttempts:
		return fmt.Errorf("transport: stream abandoned after %d attempts (last %s): %w", l.attempt, class, err)
	}
	return l.pacer.Clock.Sleep(ctx, l.rs.Backoff.Delay(l.attempt, l.rng))
}

// event reports ev, stamped with the consecutive-failure count, to
// OnEvent.
func (l *sendLoop) event(ev ResumeEvent) {
	if l.rs.OnEvent != nil {
		ev.Attempt = l.attempt
		l.rs.OnEvent(ev)
	}
}

// prefix is the integrity tag of the stream's first n payloads.
func (l *sendLoop) prefix(n int) uint64 {
	sum, _ := PrefixSum(l.hello.Integrity, l.rs.Key, l.payloads, n)
	return sum
}
