package transport

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/mpeg"
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
	// Verdict is the admission answer to the initial hello.
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

// ResumableSender is the sender-side reconnect loop: it dials, performs
// the admission handshake, paces the stream, and — on a classified
// transient fault — redials with jittered exponential backoff and
// resumes from the server-chosen replay point, so a flaky link yields a
// complete stream rather than a dead one.
type ResumableSender struct {
	// Sender paces the pictures; its WriteTimeout also bounds handshake
	// writes.
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

// StreamSchedule runs Stream over a schedule's stored decision arrays,
// mirroring Sender.Send.
func (rs *ResumableSender) StreamSchedule(ctx context.Context, sched *core.Schedule, payloads [][]byte) (StreamResult, error) {
	decisions := make([]core.Decision, len(sched.Rates))
	for i := range decisions {
		decisions[i] = core.Decision{Picture: i, Rate: sched.Rates[i], Start: sched.Start[i]}
	}
	return rs.Stream(ctx, decisions, sched.Trace.TypeOf, payloads)
}

// Stream sends the full decision stream, reconnecting and resuming
// through transient faults. It returns once the end marker is written
// (success), the server rejects the stream, a fault is terminal, or
// MaxAttempts consecutive reconnects fail.
func (rs *ResumableSender) Stream(ctx context.Context, decisions []core.Decision, typeOf func(int) mpeg.PictureType, payloads [][]byte) (StreamResult, error) {
	result := StreamResult{Faults: map[FaultClass]int{}}
	if rs.Dial == nil {
		return result, fmt.Errorf("transport: ResumableSender needs a Dial function")
	}
	if len(payloads) != len(decisions) {
		return result, fmt.Errorf("transport: %d payloads for %d pictures", len(payloads), len(decisions))
	}
	maxAttempts := rs.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	hsTimeout := rs.HandshakeTimeout
	if hsTimeout <= 0 {
		hsTimeout = 10 * time.Second
	}
	clock := rs.Sender.Clock
	if clock == nil {
		clock = RealClock{}
	}
	var rng *rand.Rand
	if rs.Seed != 0 {
		rng = rand.New(rand.NewSource(rs.Seed))
	} else {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	// One nonce for the stream's whole life: every hello retry repeats
	// it, so a redial after a lost verdict reattaches to the existing
	// reservation instead of double-reserving.
	hello := rs.Hello
	if hello.Nonce == 0 {
		hello.Nonce = newNonce(rng)
	}
	if rs.Integrity != IntegrityFNV {
		hello.Integrity = rs.Integrity
	}
	// Validate the negotiated mode/key pair once; prefix() below then
	// cannot fail.
	if _, err := NewPrefixHash(hello.Integrity, rs.Key); err != nil {
		return result, err
	}
	prefix := func(n int) uint64 {
		sum, _ := PrefixSum(hello.Integrity, rs.Key, payloads, n)
		return sum
	}

	var (
		token     uint64
		next      int
		attempt   int    // consecutive failures
		addr      string // redirect target; empty = rs.Dial
		redirects int    // consecutive redirects without a verdict
		epochSeen uint64 // highest fencing epoch any verdict/redirect carried
	)
	// maxRedirects bounds a redirect chain: a correctly configured fleet
	// redirects at most once (every shard routes a key identically), so
	// a longer chain means the fleet's rings disagree.
	const maxRedirects = 8
	fail := func(err error) (FaultClass, error) {
		class := ClassifyFault(err)
		result.Faults[class]++
		attempt++
		if rs.OnEvent != nil {
			rs.OnEvent(ResumeEvent{Attempt: attempt, Class: class, Err: err})
		}
		if !class.Retryable() {
			return class, fmt.Errorf("transport: terminal stream fault (%s): %w", class, err)
		}
		if attempt >= maxAttempts {
			return class, fmt.Errorf("transport: stream abandoned after %d attempts (last %s): %w", attempt, class, err)
		}
		if serr := clock.Sleep(ctx, rs.Backoff.Delay(attempt, rng)); serr != nil {
			return class, serr
		}
		return class, nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return result, err
		}
		var (
			conn net.Conn
			err  error
		)
		if addr != "" {
			conn, err = rs.DialAddr(ctx, addr)
		} else {
			conn, err = rs.Dial(ctx)
		}
		if err != nil {
			if _, ferr := fail(err); ferr != nil {
				return result, ferr
			}
			continue
		}
		w := NewFrameWriter(conn)
		w.WriteTimeout = rs.Sender.WriteTimeout
		r := NewFrameReader(conn)

		var v Verdict
		if token == 0 {
			err = w.WriteHello(hello)
		} else {
			err = w.WriteResume(StreamResume{Token: token})
		}
		if err == nil {
			var msg any
			msg, err = r.ReadMessageTimeout(hsTimeout)
			if err == nil {
				switch m := msg.(type) {
				case *Verdict:
					v = *m
				case *Redirect:
					// Another shard owns this stream's key. Follow the
					// redirect — outside the failure/backoff accounting,
					// since the fleet is answering correctly — but bound the
					// chain so disagreeing rings cannot bounce us forever.
					conn.Close()
					if m.Epoch > 0 && m.Epoch < epochSeen {
						// A deposed primary's routing opinion is as stale as
						// its verdicts: ignore it and retry.
						if _, ferr := fail(fmt.Errorf("%w: redirect epoch %d below %d", ErrStaleEpoch, m.Epoch, epochSeen)); ferr != nil {
							return result, ferr
						}
						continue
					}
					if m.Epoch > epochSeen {
						epochSeen = m.Epoch
					}
					if rs.DialAddr == nil {
						return result, fmt.Errorf("transport: server redirected stream to %s but no DialAddr is configured", m.Addr)
					}
					result.Redirects++
					redirects++
					if redirects > maxRedirects {
						return result, fmt.Errorf("transport: redirect chain exceeded %d hops (last to %s)", maxRedirects, m.Addr)
					}
					addr = m.Addr
					if rs.OnEvent != nil {
						rs.OnEvent(ResumeEvent{Attempt: attempt, Redirected: true, RedirectAddr: m.Addr})
					}
					continue
				default:
					err = fmt.Errorf("%w: expected verdict, got %T", ErrCorrupt, msg)
				}
			}
		}
		if err != nil {
			conn.Close()
			if _, ferr := fail(err); ferr != nil {
				return result, ferr
			}
			continue
		}
		// Epoch fencing: a verdict stamped below the highest epoch we have
		// seen comes from a deposed primary that does not yet know it was
		// replaced. Acting on it — replaying pictures, accepting a
		// rejection — would trust authority the cluster already revoked,
		// so treat it as a transient fault and retry toward the new
		// primary instead.
		if v.Epoch > 0 && v.Epoch < epochSeen {
			conn.Close()
			if _, ferr := fail(fmt.Errorf("%w: verdict epoch %d below %d", ErrStaleEpoch, v.Epoch, epochSeen)); ferr != nil {
				return result, ferr
			}
			continue
		}
		if v.Epoch > epochSeen {
			epochSeen = v.Epoch
		}
		redirects = 0
		if v.Code == AlreadyComplete {
			// The server finished this stream and tombstoned the token;
			// only the completion ack was lost. Verify the tombstone's
			// final hash against our own bytes before calling it success —
			// a mismatch means both ends "completed" different streams.
			conn.Close()
			if want := prefix(len(payloads)); v.PrefixFNV != want {
				result.Faults[FaultOther]++
				return result, fmt.Errorf("transport: already-complete verdict hash %016x, ours %016x: %w",
					v.PrefixFNV, want, ErrDiverged)
			}
			result.AlreadyComplete = true
			if rs.OnEvent != nil {
				rs.OnEvent(ResumeEvent{Attempt: attempt, Resumed: true,
					NextIndex: len(payloads), AlreadyComplete: true})
			}
			return result, nil
		}
		if !v.IsAdmitted() {
			conn.Close()
			// A busy verdict on a resume — or on a redialed hello whose
			// nonce matched a live stream — means the server has not yet
			// detected our old connection's death and parked the stream:
			// the reconnect raced the fault. A busy fresh hello means the
			// server is at its stream limit or draining. All are
			// transient; back off and retry, bounded by MaxAttempts.
			if v.Code == RejectedBusy {
				if token == 0 {
					result.Verdict = v
				}
				if _, ferr := fail(ErrResumeBusy); ferr != nil {
					return result, ferr
				}
				continue
			}
			// A malformed rejection answers a message the server could not
			// parse. We validated our hello before writing and our token is
			// server-issued, so the likeliest cause is in-flight corruption
			// of the request itself — retryable, bounded by MaxAttempts. (A
			// genuinely unknown token exhausts the attempts and fails.)
			if v.Code == RejectedMalformed {
				if _, ferr := fail(fmt.Errorf("transport: server rejected handshake as malformed (likely corrupted in flight): %w", ErrCorrupt)); ferr != nil {
					return result, ferr
				}
				continue
			}
			if token == 0 {
				result.Verdict = v
			}
			return result, fmt.Errorf("transport: stream %s by server (%.0f bps available)", v.Code, v.Available)
		}
		resumed := token != 0
		if token == 0 {
			result.Verdict = v
			token = v.ResumeToken
		}
		// NextIndex is the server's accept watermark: zero on a fresh
		// admission, the replay point on a resume, and possibly nonzero on
		// a hello verdict too when the nonce reattached us to a session a
		// lost verdict orphaned. Cross-check the server's prefix hash
		// against our own bytes before (re)playing anything.
		next = v.NextIndex
		if next > len(payloads) {
			conn.Close()
			result.Faults[FaultOther]++
			return result, fmt.Errorf("transport: server watermark %d beyond stream length %d: %w",
				next, len(payloads), ErrDiverged)
		}
		if want := prefix(next); v.PrefixFNV != want {
			conn.Close()
			result.Faults[FaultOther]++
			return result, fmt.Errorf("transport: server prefix tag %016x at picture %d, ours %016x: %w",
				v.PrefixFNV, next, want, ErrDiverged)
		}
		if resumed {
			result.Resumes++
			if rs.OnEvent != nil {
				rs.OnEvent(ResumeEvent{Attempt: attempt, Resumed: true, NextIndex: next})
			}
		}
		attempt = 0

		err = rs.Sender.sendFrom(ctx, w, decisions, typeOf, payloads, next)
		if err == nil {
			// Wait for the completion ack (the server's end marker echo):
			// success means every picture was accepted, not merely that our
			// last write landed in a socket buffer. A missing ack is an
			// ordinary fault — the resume replays nothing and re-acks.
			_, aerr := r.ReadMessageTimeout(hsTimeout)
			if errors.Is(aerr, ErrClosed) {
				conn.Close()
				return result, nil
			}
			if aerr == nil {
				aerr = fmt.Errorf("transport: unexpected frame instead of completion ack")
			}
			err = fmt.Errorf("transport: awaiting completion ack: %w", aerr)
		}
		conn.Close()
		// Without a resume token the server cannot replay-deduplicate;
		// reconnecting would double-deliver, so the fault is terminal.
		if token == 0 {
			class := ClassifyFault(err)
			result.Faults[class]++
			if rs.OnEvent != nil {
				rs.OnEvent(ResumeEvent{Attempt: attempt + 1, Class: class, Err: err})
			}
			return result, fmt.Errorf("transport: stream fault (%s) with no resume token: %w", class, err)
		}
		if _, ferr := fail(err); ferr != nil {
			return result, ferr
		}
	}
}
