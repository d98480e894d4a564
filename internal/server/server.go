// Package server implements smoothd: a multi-stream smoothing daemon
// that multiplexes many concurrent live picture streams onto one shared
// egress link of fixed capacity.
//
// The paper's argument for lossless smoothing is statistical
// multiplexing (Section 5): many smoothed VBR streams share a
// finite-buffer link far better than unsmoothed ones. smoothd turns
// that into a serving system. Each sender opens a session with a
// StreamHello declaring its encoding parameters and the peak rate of
// its smoothed schedule; a peak-rate admission controller
// (netsim.Admission) reserves that peak against the link capacity and
// rejects streams that would overload it — at admission time, before
// their first picture, never by dropping cells mid-stream. Every
// admitted stream is driven through its own core.Session (one
// goroutine, per the Session contract) with the server's configured
// rate-selection policy, and its pictures are paced onto the shared
// link at the decided rates. Because every admitted stream transmits at
// or below its reserved peak, the aggregate egress never exceeds the
// link capacity: the multiplexing stays lossless by construction.
//
// The transport under the server is chaos-hardened: frames are CRC- and
// sequence-checked, so corruption and loss are detected rather than
// decoded, and an admitted stream that drops mid-session can reconnect
// with its resume token inside the configured ResumeWindow. The server
// parks the disconnected stream — Session, queue, and admission
// reservation intact — and on resume tells the sender exactly which
// picture to replay from, deduplicating anything it already accepted.
// A flaky link therefore costs delay, never pictures.
package server

import (
	"cmp"
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/netsim"
	"mpegsmooth/internal/transport"
)

// egressChunk is the pacing granularity in bytes: streams interleave on
// the shared link at this grain.
const egressChunk = 4096

// queueLen bounds each stream's decision queue between ingest and
// egress. A full queue blocks ingest, which stops reading the
// connection, so backpressure reaches the sender through TCP flow
// control rather than growing memory.
const queueLen = 32

// CommitGate delays durable commits until a replication quorum holds
// them. WaitCommitted blocks until journal publish sequence seq is
// acknowledged by enough replicas or the gate degrades to local-only
// durability (both nil); a non-nil error is terminal — the verdict must
// not be released, and the caller rolls the commit back.
type CommitGate interface {
	WaitCommitted(ctx context.Context, seq uint64) error
}

// delayTolerance absorbs float rounding when a schedule's maximum
// per-picture delay is compared against its bound D.
const delayTolerance = 1e-9

// Config parameterizes a smoothd server.
type Config struct {
	// LinkRate is the shared egress link capacity in bits/second; the
	// admission controller reserves declared stream peaks against it.
	LinkRate float64
	// Policy selects rates for every stream's smoothing session; nil
	// means core.BasicPolicy (fewest rate changes).
	Policy core.Policy
	// MaxStreams caps concurrently active streams (0 = no cap beyond
	// link capacity).
	MaxStreams int
	// ReadTimeout bounds the wait for each inbound message so a stalled
	// sender cannot wedge its stream forever (default 30s): a stalled
	// sender is cut off no sooner than ReadTimeout and no later than 9/8
	// of it, the read deadline being re-armed lazily rather than per
	// message (transport.Deadline).
	ReadTimeout time.Duration
	// WriteTimeout bounds each outbound write — verdicts and, when the
	// egress sink supports write deadlines, shared-link writes — to at
	// least WriteTimeout and at most 9/8 of it, like ReadTimeout
	// (default: ReadTimeout).
	WriteTimeout time.Duration
	// ResumeWindow is how long a disconnected admitted stream is parked
	// (reservation held, Session intact) awaiting a StreamResume with
	// its token. Zero disables resumption: a connection fault fails the
	// stream immediately.
	ResumeWindow time.Duration
	// TimeScale compresses egress pacing, like transport.Sender: wall
	// durations are schedule durations divided by TimeScale (default 1).
	TimeScale float64
	// Egress is the shared link sink; nil means io.Discard. Writes from
	// all streams are serialized onto it in pacing order.
	Egress io.Writer
	// Clock abstracts time for tests; nil means the wall clock.
	Clock transport.Clock
	// Journal, when set, is the crash-safety write-ahead log: stream
	// admissions, accept watermarks, completions, and expiries are
	// recorded (fsynced before any verdict or ack a sender may act on),
	// and New replays the journal's recovered state into the session
	// table (nonces, parked streams, tombstones) and the admission
	// reservations — so a sender redialing after a server crash gets a
	// correct resume or AlreadyComplete verdict instead of a rejection.
	// The server owns the journal from here: it is closed by Shutdown
	// and abandoned by Kill.
	Journal *journal.Journal
	// Quorum, when set, holds admission and completion verdicts after
	// the local journal fsync until the record's publish sequence is
	// acknowledged by a replication quorum (or the gate degrades to
	// local-only durability). A terminal gate error rolls the admission
	// back instead of acknowledging a commit replicas may never hold.
	Quorum CommitGate
	// Epoch is the primary fencing term stamped into every verdict and
	// redirect this server writes. A cluster primary sets it from the
	// journal's epoch record at promotion; a sender that has seen a
	// higher epoch treats this server's verdicts as coming from a
	// deposed primary. Zero means unclustered (no stamping semantics).
	Epoch uint64
	// Route, when set, maps a session key — a hello nonce or resume
	// token — to the owning shard's stream address. A session this
	// server does not own is answered with a transport.Redirect naming
	// addr instead of a verdict, so in a sharded fleet every shard can
	// be dialed and the hash ring decides placement. Nonce-less hellos
	// (no dedup key) are always treated as local. Freshly issued resume
	// tokens are drawn until Route reports them local, so a resume
	// routes home by the same rule that routed the hello.
	Route func(key uint64) (addr string, local bool)
	// Integrity is the prefix-hash mode this server requires in every
	// hello (default IntegrityFNV). A hello declaring any other mode is
	// rejected as malformed. IntegrityHMAC requires IntegrityKey.
	Integrity transport.IntegrityMode
	// IntegrityKey is the shared secret for IntegrityHMAC sessions.
	IntegrityKey []byte
	// Logf, when set, receives one line per session outcome.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Policy == nil {
		cfg.Policy = core.BasicPolicy{}
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = cfg.ReadTimeout
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}
	if cfg.Egress == nil {
		cfg.Egress = io.Discard
	}
	if cfg.Clock == nil {
		cfg.Clock = transport.RealClock{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

// Server is a running smoothd instance. Create with New, drive with
// Serve, stop with Shutdown.
type Server struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	egress *link
	wg     sync.WaitGroup

	// mu guards the fields below but journal, which New sets once. The
	// session table (streams, resumable, nonces, tombstones) is read and
	// written only under it, so admission's nonce check is authoritative
	// and a resume finds either the live stream or its tombstone, never
	// a gap between them.
	mu        sync.Mutex
	admission *netsim.Admission
	streams   map[uint64]*stream
	resumable map[uint64]*stream // resume token → parked-capable stream
	// nonces routes a redialing sender's hello to its live stream.
	nonces map[uint64]*stream
	// tombstones answer a resume after a lost completion ack with a
	// precise AlreadyComplete verdict instead of an unknown-token
	// rejection.
	tombstones tombLedger
	nextID     uint64
	ln         net.Listener
	closed     bool
	// stopped is closed with closed set: no sender can reach a parked
	// stream any more, so its wait ends (stream.awaitResume).
	stopped chan struct{}

	// journal is cfg.Journal (nil disables durability).
	journal *journal.Journal

	// counts are the session counters; Snapshot fills in active, parked
	// and rejected.
	counts StreamCounts

	// faultTotals accumulates finished streams' fault counters; active
	// streams' counters are added at snapshot time.
	faultTotals FaultCounts

	// pool recycles picture payload buffers across every stream, so a
	// new session starts with the buffers earlier ones warmed.
	pool transport.BufferPool

	// finished keeps the last finishedKeep stream snapshots for ops and
	// post-mortems; worstHeadroom and delayViolations aggregate the
	// delay-bound outcome over every finished stream.
	finished        []StreamSnapshot
	worstHeadroom   float64
	delayViolations int64
}

// finishedKeep bounds the retained per-stream history.
const finishedKeep = 256

// tombstone records a completed stream's final state: enough to answer
// a late resume (the sender's copy of the completion ack was lost) with
// an AlreadyComplete verdict the sender can verify byte-exactly.
type tombstone struct {
	fnv      uint64 // final FNV-1a over every accepted payload, in order
	pictures int    // total pictures accepted
	expires  time.Time
}

// activeServer backs the process-wide "smoothd" expvar: the most
// recently created server is the one a production process runs.
var (
	activeServer atomic.Pointer[Server]
	expvarOnce   sync.Once
)

// New validates the configuration and prepares a server. When a
// journal is configured, its recovered state is replayed here: crashed
// streams come back parked (reservation held, waiting out the resume
// window for their sender to redial) and completion tombstones come
// back answerable.
func New(cfg Config) (*Server, error) {
	if cfg.LinkRate <= 0 || math.IsNaN(cfg.LinkRate) || math.IsInf(cfg.LinkRate, 0) {
		return nil, fmt.Errorf("server: non-positive link rate %v", cfg.LinkRate)
	}
	if !cfg.Integrity.Valid() {
		return nil, fmt.Errorf("server: unknown integrity mode %d", cfg.Integrity)
	}
	if cfg.Integrity == transport.IntegrityHMAC && len(cfg.IntegrityKey) == 0 {
		return nil, errors.New("server: integrity mode hmac-sha256 needs a key")
	}
	adm, err := netsim.NewAdmission(cfg.LinkRate)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg.withDefaults(),
		ctx:           ctx,
		cancel:        cancel,
		admission:     adm,
		streams:       map[uint64]*stream{},
		resumable:     map[uint64]*stream{},
		nonces:        map[uint64]*stream{},
		stopped:       make(chan struct{}),
		worstHeadroom: math.Inf(1),
	}
	s.egress = newLink(s.cfg.Egress, s.cfg.WriteTimeout)
	s.journal = s.cfg.Journal
	if s.journal != nil {
		s.recoverFromJournal()
	}
	activeServer.Store(s)
	expvarOnce.Do(func() {
		expvar.Publish("smoothd", expvar.Func(func() any {
			if srv := activeServer.Load(); srv != nil {
				return srv.Snapshot()
			}
			return nil
		}))
	})
	return s, nil
}

// Serve accepts stream sessions on ln until the listener is closed
// (normally by Shutdown). Each connection is handled on its own
// goroutine pair: ingest (read, smooth, enqueue) and egress (pace onto
// the shared link). On a server that Shutdown or Kill already stopped,
// Serve closes ln and returns an error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		// Count the connection under s.mu, where Shutdown and Kill mark the
		// server closed before they wait on s.wg: a connection accepted
		// after that is closed unserved, so no Add races their Wait.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Shutdown drains the server: it stops accepting sessions and waits for
// active streams to finish. A parked stream, whose sender can no longer
// reach it, ends at once and stays journaled for the next generation. If
// ctx expires first, remaining streams are cancelled and their
// connections closed, and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	ln := s.stopLocked()
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.journal != nil {
			return s.journal.Close()
		}
		return nil
	case <-ctx.Done():
		s.cancel()
		s.mu.Lock()
		for _, st := range s.streams {
			st.closeConn()
		}
		s.mu.Unlock()
		<-done
		if s.journal != nil {
			// Cancelled streams were NOT journaled as expired: their
			// sessions survive in the journal, so the next generation
			// recovers them parked and their senders resume.
			s.journal.Close()
		}
		return ctx.Err()
	}
}

// Kill terminates the server the way a crash would: the journal is
// abandoned (no flush, no graceful records), every stream's context is
// cancelled and its connection dropped, and nothing is acked or
// drained. The kill-and-restart chaos harness uses it as an in-process
// SIGKILL; combined with a journal on a power-loss-modelling FS, what
// the next generation recovers is exactly what was durable.
func (s *Server) Kill() {
	s.mu.Lock()
	ln := s.stopLocked()
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.mu.Unlock()
	if s.journal != nil {
		s.journal.Abandon()
	}
	s.cancel()
	if ln != nil {
		ln.Close()
	}
	for _, st := range streams {
		st.closeConn()
	}
	s.wg.Wait()
}

// stopLocked closes the server to new sessions and ends every parked
// stream's wait. It returns the listener Serve took, for the caller to
// close once s.mu is released. Caller holds s.mu.
func (s *Server) stopLocked() net.Listener {
	if !s.closed {
		s.closed = true
		close(s.stopped)
	}
	return s.ln
}

// recoverFromJournal replays the journal's recovered state into the
// session table: live streams come back parked (session rebuilt at
// the journaled watermark, prefix hash restored, reservation
// rehydrated) with a goroutine waiting out the resume window; unexpired
// tombstones come back answerable. Stream records that no longer fit
// this generation's configuration are expired in the journal rather than
// resurrected wrong, all of them in one commit.
func (s *Server) recoverFromJournal() {
	state := s.journal.State()
	now := time.Now()
	var (
		expired []journal.Record
		whys    []string
	)
	expire := func(token uint64, rec *journal.StreamRecord, reason journal.ExpireReason, why string) {
		expired = append(expired, journal.ExpireRecord(token, rec.Hello.Nonce, reason))
		whys = append(whys, why)
	}
	for token, rec := range state.Streams {
		if s.cfg.ResumeWindow <= 0 {
			expire(token, rec, journal.ExpireResumeWindow, "resumption disabled")
			continue
		}
		if rec.Hello.Integrity != s.cfg.Integrity {
			expire(token, rec, journal.ExpireFailed, "integrity mode changed")
			continue
		}
		ph, err := transport.NewPrefixHash(rec.Hello.Integrity, s.cfg.IntegrityKey)
		if err == nil && len(rec.HashState) > 0 {
			err = ph.Restore(rec.HashState)
		}
		if err != nil {
			expire(token, rec, journal.ExpireFailed, "prefix hash unrecoverable")
			continue
		}
		st := newStream(wire{}, rec.Hello, ph, rec.Watermark, &s.pool)
		st.token = token
		sess, err := s.newSession(st)
		if err != nil {
			expire(token, rec, journal.ExpireFailed, "session rebuild failed")
			continue
		}
		st.sess = sess
		s.mu.Lock()
		s.admission.Rehydrate(rec.Hello.PeakRate)
		s.registerLocked(st)
		_, after := s.applyLocked(st, move{ev: evRecover})
		s.mu.Unlock()
		after()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.run(st)
		}()
	}
	if len(expired) > 0 {
		err := s.journal.AppendRecords(expired)
		for i, rec := range expired {
			if err != nil {
				s.cfg.Logf("smoothd: recovery: expiring %016x (%s): %v", rec.Token, whys[i], err)
			} else {
				s.cfg.Logf("smoothd: recovery: dropped journaled stream for token %016x (%s)", rec.Token, whys[i])
			}
		}
	}
	// Entomb in expiry order: the ledger sweeps expired tombstones off
	// the front of its insertion order. An expired tombstone, or one whose
	// hash state is malformed, answers nothing and is skipped without a
	// journal record: compaction drops it once it has expired, as Open's
	// did for every tombstone expired by then.
	var tombs []*journal.TombstoneRecord
	for _, tb := range state.Tombstones {
		if !now.After(tb.Expires) && len(tb.HashState) >= 8 {
			tombs = append(tombs, tb)
		}
	}
	slices.SortFunc(tombs, func(a, b *journal.TombstoneRecord) int { return a.Expires.Compare(b.Expires) })
	s.mu.Lock()
	for _, tb := range tombs {
		s.tombstones.put(tb.Token, tombstone{
			fnv:      binary.BigEndian.Uint64(tb.HashState),
			pictures: tb.Pictures,
			expires:  tb.Expires,
		}, now)
	}
	s.counts.RecoveredTombstones += int64(len(tombs))
	s.mu.Unlock()
}

// journalWatermark coalesces the stream's accept watermark and prefix
// hash state for the journal's next flush; it never blocks on the disk.
func (s *Server) journalWatermark(st *stream) {
	if s.journal == nil || st.token == 0 {
		return
	}
	next, state := st.prefixState()
	s.journal.Watermark(st.token, next, state)
	// state is the stream's scratch buffer; Watermark copied it into the
	// journal's own coalescing entry, so it is free for the next picture.
}

// commitCompletion makes a stream's completion durable (quorum-held in
// a cluster) before its ack is written, so an acked stream is answerable
// as AlreadyComplete after a crash. A failure costs durability, not
// correctness, and is only logged: there is nothing to roll back, and
// the un-journaled completion recovers as a fully caught-up parked
// stream that the sender's resume completes again.
func (s *Server) commitCompletion(ctx context.Context, st *stream) {
	if s.journal == nil || st.token == 0 {
		return
	}
	next, sum := st.resumePoint()
	var state [8]byte
	binary.BigEndian.PutUint64(state[:], sum)
	seq, err := s.journal.Completed(journal.TombstoneRecord{
		Token: st.token, Nonce: st.hello.Nonce, Pictures: next,
		HashState: state[:], Expires: time.Now().Add(s.tombstoneTTL()),
	})
	if err != nil {
		s.cfg.Logf("smoothd: stream %d completion journal write failed: %v", st.id, err)
	} else if s.cfg.Quorum != nil {
		if err := s.cfg.Quorum.WaitCommitted(ctx, seq); err != nil {
			s.cfg.Logf("smoothd: stream %d completion quorum not reached: %v", st.id, err)
		}
	}
}

// handle runs one connection. Its first message, a hello or a resume, is
// decided once (admit) and the decision carried out once (answer). One
// FrameReader/FrameWriter pair owns each direction for the connection's
// whole life — the frame sequence counters span handshake and stream.
func (s *Server) handle(conn net.Conn) {
	w := wire{conn: conn, fr: transport.NewFrameReaderBuffered(conn), fw: transport.NewFrameWriter(conn)}
	w.fw.WriteTimeout = s.cfg.WriteTimeout

	msg, err := w.fr.ReadMessageTimeout(s.cfg.ReadTimeout)
	s.answer(w, s.admit(w, msg, err))
}

// outcome is the handshake decision for one connection: a redirect to
// the shard at addr; the connection handed to st, a fresh admission or a
// claimed reattach, under an Admitted verdict; an AlreadyComplete
// verdict; or a refusal under code, for cause.
type outcome struct {
	code  transport.VerdictCode
	avail float64 // admission headroom, read where the decision was made
	// token, next and prefix are the resume point an Admitted or
	// AlreadyComplete verdict carries.
	token  uint64
	next   int
	prefix uint64
	st     *stream
	fresh  bool // st was admitted for this connection, which runs it
	dedup  bool // the hello retransmits st's: its verdict was lost
	addr   string
	// stale is the connection of a stream a refused reattach found still
	// streaming, its ingest most likely blocked on a dead peer: answer
	// closes it so the stream parks for the sender's next attempt.
	stale net.Conn
	cause error
}

// admit decides a connection's first message, msg, or the error reading
// it met. A session key another shard owns is redirected. Otherwise the
// key is looked up once, under s.mu, with everything the answer depends
// on: a resume token finds its stream or its tombstone, and a hello
// nonce the live stream a retransmitted hello belongs to. A found stream
// is claimed in the same critical section and a fresh one reserved and
// registered there, so the decision makes no I/O and copies of one hello
// racing each other reserve once. A draining server hands no connection
// a stream. A fresh admission is made durable before admit returns, or
// rolled back as busy.
func (s *Server) admit(w wire, msg any, err error) outcome {
	hello, _ := msg.(*transport.StreamHello)
	resume, _ := msg.(*transport.StreamResume)
	var key uint64
	switch {
	case hello != nil:
		key = hello.Nonce
	case resume != nil:
		key = resume.Token
	case err == nil:
		err = fmt.Errorf("server: expected hello or resume, got %T", msg)
	}
	// Resume tokens are never zero; a nonce-less hello is always local.
	if key != 0 && s.cfg.Route != nil {
		if addr, local := s.cfg.Route(key); !local {
			return outcome{addr: addr, cause: fmt.Errorf("key %016x not owned by this shard", key)}
		}
	}
	var st *stream // the stream the connection would go to
	fresh := hello != nil && err == nil
	if fresh {
		st, err = s.newAdmission(w, hello)
	}

	var o outcome
	s.mu.Lock()
	switch {
	case err != nil:
		st, o.code, o.cause = nil, transport.RejectedMalformed, err
	case resume != nil:
		if st = s.resumable[resume.Token]; st != nil {
			break
		}
		if tomb, ok := s.tombstones.lookup(resume.Token, time.Now()); ok {
			o.code, o.token, o.next, o.prefix = transport.AlreadyComplete, resume.Token, tomb.pictures, tomb.fnv
		} else {
			o.code, o.cause = transport.RejectedMalformed, errors.New("server: resume with unknown token")
		}
	default:
		switch prior := s.nonces[hello.Nonce]; { // nonce 0 is never registered
		case prior == nil:
		case prior.hello != *hello:
			st, o.code, o.cause = nil, transport.RejectedMalformed,
				fmt.Errorf("server: hello nonce %016x reused with different parameters", hello.Nonce)
		default:
			s.counts.HelloDeduped++
			st, fresh, o.dedup = prior, false, true
		}
	}
	if st != nil {
		switch {
		case s.closed:
			o.code, o.cause = transport.RejectedBusy, errors.New("server: draining")
		case !fresh:
			// A claim has nothing to run once s.mu is released.
			if made, _ := s.applyLocked(st, move{ev: evClaim}); !made {
				o.code, o.cause = transport.RejectedBusy, fmt.Errorf("server: stream %d not yet accepting a reattach", st.id)
				if st.state == streaming {
					o.stale = st.w.conn
				}
			}
		case s.cfg.MaxStreams > 0 && int64(s.cfg.MaxStreams) <= s.admission.Active():
			o.code, o.cause = transport.RejectedBusy, errors.New("server: at stream limit")
		case !s.admission.Admit(st.hello.PeakRate):
			o.code, o.cause = transport.RejectedCapacity, fmt.Errorf("server: peak %.0f bps exceeds available %.0f bps",
				st.hello.PeakRate, s.admission.Available())
		default:
			if s.cfg.ResumeWindow > 0 {
				st.token = s.newTokenLocked()
			}
			s.registerLocked(st)
		}
		if o.cause == nil {
			// A claim freezes the watermark: ingest waits for the adopt.
			o.st, o.fresh, o.code, o.token = st, fresh, transport.Admitted, st.token
			o.next, o.prefix = st.resumePoint()
		}
	}
	o.avail = s.admission.Available()
	s.mu.Unlock()

	if o.fresh {
		if err := s.commitAdmission(o.st); err != nil {
			// Rolled back while admitting: counted busy, not admitted.
			s.mu.Lock()
			s.dropLocked(o.st)
			o = outcome{code: transport.RejectedBusy, avail: s.admission.Available(), cause: err}
			s.mu.Unlock()
		} else {
			s.apply(o.st, move{ev: evAdmit})
		}
	}
	return o
}

// newAdmission validates a hello and builds the stream it would admit on
// w, Session included. Nothing is reserved or registered yet.
func (s *Server) newAdmission(w wire, hello *transport.StreamHello) (*stream, error) {
	if hello.Integrity != s.cfg.Integrity {
		return nil, fmt.Errorf("server: hello integrity mode %s, this server requires %s",
			hello.Integrity, s.cfg.Integrity)
	}
	ph, err := transport.NewPrefixHash(hello.Integrity, s.cfg.IntegrityKey)
	if err != nil {
		return nil, err
	}
	st := newStream(w, *hello, ph, 0, &s.pool)
	st.sess, err = s.newSession(st)
	return st, err
}

// answer carries out a handshake outcome on w's connection; it is the one
// place a handshake is answered. Every verdict carries the server's epoch
// and the headroom admit read. A fresh stream then runs on this
// goroutine, and a claimed one adopts the connection, waking its parked
// ingest. A verdict that cannot be written leaves the stream as any
// connection fault does: parked for the sender's redial when it holds a
// resume token, failed when it does not. An outcome that hands over no
// stream is counted before its answer leaves, so a sender never reads a
// snapshot that misses it; the connection is then closed.
func (s *Server) answer(w wire, o outcome) {
	v := transport.Verdict{
		Code: o.code, Available: o.avail, Epoch: s.cfg.Epoch,
		ResumeToken: o.token, NextIndex: o.next, PrefixFNV: o.prefix,
	}
	remote := w.conn.RemoteAddr()
	if o.st != nil {
		err := w.fw.WriteVerdict(v)
		switch {
		case o.fresh:
			if err != nil {
				// Ingest's first read meets the closed connection, and parks
				// or fails the stream by the rule it applies to any fault.
				w.conn.Close()
			}
			s.run(o.st)
		case err != nil:
			s.apply(o.st, move{ev: evRelease})
			w.conn.Close()
		default:
			if o.dedup {
				s.cfg.Logf("smoothd: stream %d hello deduplicated by nonce from %s", o.st.id, remote)
			}
			if !s.apply(o.st, move{ev: evAdopt, w: w}) {
				// The window lapsed, or the stream ended, while the verdict
				// was on its way.
				w.conn.Close()
			}
		}
		return
	}
	s.mu.Lock()
	switch {
	case o.addr != "":
		s.counts.Redirected++
	case o.code == transport.AlreadyComplete:
		s.counts.AlreadyComplete++
	case o.code == transport.RejectedCapacity:
		s.counts.RejectedCapacity++
	case o.code == transport.RejectedMalformed:
		s.counts.RejectedMalformed++
	case o.code == transport.RejectedBusy:
		s.counts.RejectedBusy++
	}
	s.mu.Unlock()
	if o.addr != "" {
		w.fw.WriteRedirect(transport.Redirect{Addr: o.addr, Epoch: s.cfg.Epoch})
	} else {
		w.fw.WriteVerdict(v)
	}
	w.conn.Close()
	if o.stale != nil {
		o.stale.Close()
	}
	switch {
	case o.addr != "":
		s.cfg.Logf("smoothd: %s redirected to %s (%v)", remote, o.addr, o.cause)
	case o.code == transport.AlreadyComplete:
		s.cfg.Logf("smoothd: resume from %s answered already-complete (%d pictures, fnv %016x)",
			remote, o.next, o.prefix)
	default:
		s.cfg.Logf("smoothd: %s %s: %v", remote, o.code, o.cause)
	}
}

// newSession builds the smoothing Session for st's remaining pictures,
// from its base on, with the server's policy and a lookahead of one
// pattern, H = N: the hello carries no H, and the sender computed its
// declared peak at H = N. The Session numbers picture types from base,
// so a stream recovered mid-pattern reads its pictures' own types. A
// declared picture count is binding: the
// Session refuses a picture beyond it, and it decides each picture as
// soon as Theorem 1's inputs have arrived. A count of 0 leaves the
// length unknown, and each decision waits for its H-picture window,
// because an open-ended schedule can peak above the one the sender
// computed its declared peak from.
func (s *Server) newSession(st *stream) (*core.Session, error) {
	remaining := st.hello.Pictures - st.base
	sess, err := core.NewSession(st.hello.Tau, st.hello.GOP, core.Config{
		K: st.hello.K, D: st.hello.D, H: st.hello.GOP.N, Policy: s.cfg.Policy,
	}, core.WithObserver(st.observe), core.WithLength(remaining), core.WithTypeOffset(st.base))
	if err == nil && st.hello.Pictures > 0 && remaining <= 0 {
		// A recovered stream whose every declared picture was accepted
		// owes only its end marker.
		sess.Close()
	}
	return sess, err
}

// commitAdmission makes a resumable stream's admission durable before
// its verdict leaves: a sender acting on an admission the journal forgot
// would be rejected as unknown after a crash. The fsync runs outside
// s.mu so concurrent admissions serialize only on the journal. An error
// means the caller rolls the admission back.
func (s *Server) commitAdmission(st *stream) error {
	if s.journal == nil || st.token == 0 {
		return nil
	}
	seq, err := s.journal.Admitted(journal.StreamRecord{Token: st.token, Hello: st.hello})
	if err != nil {
		return fmt.Errorf("server: admission not journalable: %w", err)
	}
	if s.cfg.Quorum == nil {
		return nil
	}
	// Hold the verdict until a replication quorum holds the admission
	// record (or the gate degrades to local-only durability). A terminal
	// gate error means the record's replication fate is unknown and the
	// server is dying: undo the admission — including its journal record,
	// best effort — and send the sender back around rather than
	// acknowledge a commit a promoted follower may have never seen.
	if err := s.cfg.Quorum.WaitCommitted(s.ctx, seq); err != nil {
		if _, xerr := s.journal.Expired(st.token, st.hello.Nonce, journal.ExpireFailed); xerr != nil {
			s.cfg.Logf("smoothd: quorum rollback expiry for token %016x failed: %v", st.token, xerr)
		}
		return fmt.Errorf("server: admission quorum not reached: %w", err)
	}
	return nil
}

// registerLocked enters st into the session table under a fresh id, and
// under its hello nonce and resume token when it has them. Caller holds
// s.mu and has reserved st's peak; dropLocked undoes both.
func (s *Server) registerLocked(st *stream) {
	s.nextID++
	st.id = s.nextID
	s.streams[st.id] = st
	if st.hello.Nonce != 0 {
		s.nonces[st.hello.Nonce] = st
	}
	if st.token != 0 {
		s.resumable[st.token] = st
	}
}

// dropLocked releases st's reservation and removes it from the session
// table. Caller holds s.mu.
func (s *Server) dropLocked(st *stream) {
	s.admission.Release(st.hello.PeakRate)
	delete(s.streams, st.id)
	if st.hello.Nonce != 0 {
		delete(s.nonces, st.hello.Nonce)
	}
	delete(s.resumable, st.token)
}

// tombstoneTTL bounds how long a completed stream answers late resumes
// with AlreadyComplete. It must comfortably cover the sender's resume
// window plus its backoff schedule.
func (s *Server) tombstoneTTL() time.Duration {
	if ttl := 2 * s.cfg.ResumeWindow; ttl > 30*time.Second {
		return ttl
	}
	return 30 * time.Second
}

// newTokenLocked draws an unguessable, unused, nonzero resume token.
// Caller holds s.mu.
func (s *Server) newTokenLocked() uint64 {
	var buf [8]byte
	for {
		if _, err := cryptorand.Read(buf[:]); err != nil {
			// crypto/rand failing is a broken platform; fall back to the
			// monotone id so the server still runs (tokens are then
			// guessable, which only weakens resume hijack resistance).
			return s.nextID<<32 | uint64(time.Now().UnixNano()&0xFFFFFFFF)
		}
		tok := binary.BigEndian.Uint64(buf[:])
		if tok == 0 {
			continue
		}
		if _, taken := s.resumable[tok]; taken {
			continue
		}
		// Rejection-sample until the token hashes to this shard on the
		// placement ring, so a later resume routes straight home
		// (expected draws = shard count).
		if s.cfg.Route != nil {
			if _, local := s.cfg.Route(tok); !local {
				continue
			}
		}
		return tok
	}
}

// run drives an admitted stream to its end: ingest on this goroutine,
// egress on a second, then finish.
func (s *Server) run(st *stream) {
	egressDone := make(chan error, 1)
	go func() { egressDone <- st.runEgress(s.ctx, s.egress, s.cfg.Clock, s.cfg.TimeScale) }()
	s.finish(st, cmp.Or(st.runIngest(s.ctx, s), <-egressDone)) // ingest's error first
	st.closeConn()
}

// finish releases the stream's reservation, makes its terminal move
// (completed, or failed with err) and records its outcome. A stream
// whose resume window lapsed has counted and logged its failure
// already, so its fail move is refused.
func (s *Server) finish(st *stream, err error) {
	end := move{ev: evComplete}
	if err != nil {
		end = move{ev: evFail, cause: err}
	}
	s.mu.Lock()
	s.dropLocked(st)
	_, after := s.applyLocked(st, end)
	ss := st.snapshot()
	if st.token != 0 && st.state == completed {
		// Entomb the completed stream in the critical section that drops
		// its token, so a resume finds one or the other.
		now := time.Now()
		s.tombstones.put(st.token, tombstone{
			fnv: ss.PayloadFNV, pictures: ss.Pictures,
			expires: now.Add(s.tombstoneTTL()),
		}, now)
	}
	reason := journal.ExpireFailed
	if st.state == lapsed {
		reason = journal.ExpireResumeWindow
	}
	s.faultTotals.add(ss.Faults)
	s.finished = append(s.finished, ss)
	if len(s.finished) > finishedKeep {
		s.finished = s.finished[1:]
	}
	if ss.Decisions > 0 && ss.DelayHeadroom < s.worstHeadroom {
		s.worstHeadroom = ss.DelayHeadroom
	}
	if ss.MaxDelay > ss.DelayBound+delayTolerance || errors.Is(err, errRateNotFinite) {
		s.delayViolations++
	}
	s.mu.Unlock()
	after()
	if err != nil && s.journal != nil && st.token != 0 && s.ctx.Err() == nil && !errors.Is(err, errStopped) {
		// A terminal failure releases the reservation, so the journal
		// must forget the stream too — otherwise the next generation
		// would rehydrate a reservation nobody holds. Streams ended by
		// the server stopping (cancelled, or parked when it stopped) are
		// deliberately NOT expired: they stay journaled so the next
		// generation recovers them parked.
		if _, jerr := s.journal.Expired(st.token, st.hello.Nonce, reason); jerr != nil {
			s.cfg.Logf("smoothd: stream %d expiry journal write failed: %v", st.id, jerr)
		}
	}
}

// Draining reports whether the server has stopped admitting new
// sessions: Shutdown has begun (or the listener died). A draining
// server is alive but not ready — /healthz distinguishes the two.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// FinishedStreams returns snapshots of the most recently finished
// streams (up to finishedKeep), oldest first.
func (s *Server) FinishedStreams() []StreamSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StreamSnapshot, len(s.finished))
	copy(out, s.finished)
	return out
}

// link serializes all streams' paced writes onto the shared egress sink
// and accounts the bits that crossed it. When the sink supports write
// deadlines (a net.Conn egress), each write gets at least the server's
// WriteTimeout and at most 9/8 of it (transport.Deadline), so a wedged
// downstream cannot stall every stream forever.
type link struct {
	mu      sync.Mutex
	w       io.Writer
	dl      transport.Deadline
	timeout time.Duration
	bits    int64
}

func newLink(w io.Writer, timeout time.Duration) *link {
	return &link{w: w, dl: transport.WriteDeadline(w), timeout: timeout}
}

func (l *link) write(p []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.dl.Arm(l.timeout); err != nil {
		return fmt.Errorf("server: arming egress write deadline: %w", err)
	}
	if _, err := l.w.Write(p); err != nil {
		return err
	}
	l.bits += int64(len(p)) * 8
	return nil
}

func (l *link) totalBits() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bits
}
