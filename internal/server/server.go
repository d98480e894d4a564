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
	// MaxPictureBytes caps the payload size a frame may declare before
	// the server allocates for it (default
	// transport.DefaultMaxPictureBytes).
	MaxPictureBytes int
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
	if cfg.MaxPictureBytes <= 0 {
		cfg.MaxPictureBytes = transport.DefaultMaxPictureBytes
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
// the shared link).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
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
// active streams to finish. If ctx expires first, remaining streams are
// cancelled and their connections closed, and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
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
	s.closed = true
	ln := s.ln
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

// recoverFromJournal replays the journal's recovered state into the
// session table: live streams come back parked (session rebuilt at
// the journaled watermark, prefix hash restored, reservation
// rehydrated) with a goroutine waiting out the resume window; unexpired
// tombstones come back answerable. Records that no longer fit this
// generation's configuration are expired in the journal rather than
// resurrected wrong.
func (s *Server) recoverFromJournal() {
	state := s.journal.State()
	now := time.Now()
	expire := func(token, nonce uint64, reason journal.ExpireReason, why string) {
		if _, err := s.journal.Expired(token, nonce, reason); err != nil {
			s.cfg.Logf("smoothd: recovery: expiring %016x (%s): %v", token, why, err)
		} else {
			s.cfg.Logf("smoothd: recovery: dropped journaled %s for token %016x", why, token)
		}
	}
	for token, rec := range state.Streams {
		if s.cfg.ResumeWindow <= 0 {
			expire(token, rec.Hello.Nonce, journal.ExpireResumeWindow, "stream (resumption disabled)")
			continue
		}
		if rec.Hello.Integrity != s.cfg.Integrity {
			expire(token, rec.Hello.Nonce, journal.ExpireFailed, "stream (integrity mode changed)")
			continue
		}
		ph, err := transport.NewPrefixHash(rec.Hello.Integrity, s.cfg.IntegrityKey)
		if err == nil && len(rec.HashState) > 0 {
			err = ph.Restore(rec.HashState)
		}
		if err != nil {
			expire(token, rec.Hello.Nonce, journal.ExpireFailed, "stream (prefix hash unrecoverable)")
			continue
		}
		st := newStream(wire{}, rec.Hello, ph, rec.Watermark, &s.pool)
		st.token = token
		sess, err := s.newSession(st)
		if err != nil {
			expire(token, rec.Hello.Nonce, journal.ExpireFailed, "stream (session rebuild failed)")
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
			s.run(st, nil)
		}()
	}
	// Entomb in expiry order: the ledger sweeps expired tombstones off
	// the front of its insertion order.
	var tombs []*journal.TombstoneRecord
	for token, tb := range state.Tombstones {
		if now.After(tb.Expires) || len(tb.HashState) < 8 {
			expire(token, tb.Nonce, journal.ExpireTombstone, "tombstone (expired)")
			continue
		}
		tombs = append(tombs, tb)
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

// handle runs one connection: the first message decides whether it is a
// new session (StreamHello) or a reconnect (StreamResume). One
// FrameReader/FrameWriter pair owns each direction for the connection's
// whole life — the frame sequence counters span handshake and stream.
func (s *Server) handle(conn net.Conn) {
	w := wire{conn: conn, fr: transport.NewFrameReaderBuffered(conn), fw: transport.NewFrameWriter(conn)}
	w.fr.MaxPayload = s.cfg.MaxPictureBytes
	w.fw.WriteTimeout = s.cfg.WriteTimeout
	w.fw.MaxPayload = s.cfg.MaxPictureBytes

	msg, err := w.fr.ReadMessageTimeout(s.cfg.ReadTimeout)
	if err != nil {
		s.rejectConn(w, transport.RejectedMalformed, err)
		return
	}
	switch m := msg.(type) {
	case *transport.StreamHello:
		s.handleHello(w, m)
	case *transport.StreamResume:
		s.handleResume(w, m)
	default:
		s.rejectConn(w, transport.RejectedMalformed,
			fmt.Errorf("server: expected hello or resume, got %T", msg))
	}
}

// redirectIfRemote answers a handshake whose session key another shard
// owns with that shard's address (best effort) and closes the
// connection. It reports whether the connection was redirected.
func (s *Server) redirectIfRemote(w wire, key uint64) bool {
	if s.cfg.Route == nil {
		return false
	}
	addr, local := s.cfg.Route(key)
	if local {
		return false
	}
	s.mu.Lock()
	s.counts.Redirected++
	s.mu.Unlock()
	w.fw.WriteRedirect(transport.Redirect{Addr: addr, Epoch: s.cfg.Epoch})
	w.conn.Close()
	s.cfg.Logf("smoothd: %s redirected to %s (key %016x not owned by this shard)",
		w.conn.RemoteAddr(), addr, key)
	return true
}

// rejectConn answers a doomed connection with a verdict (best effort)
// and closes it.
func (s *Server) rejectConn(w wire, code transport.VerdictCode, cause error) {
	w.fw.WriteVerdict(s.reject(code))
	w.conn.Close()
	s.cfg.Logf("smoothd: %s %s: %v", w.conn.RemoteAddr(), code, cause)
}

// reject counts one rejection under its code and returns the verdict
// that reports it, carrying the headroom admission has left.
func (s *Server) reject(code transport.VerdictCode) transport.Verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch code {
	case transport.RejectedCapacity:
		s.counts.RejectedCapacity++
	case transport.RejectedMalformed:
		s.counts.RejectedMalformed++
	case transport.RejectedBusy:
		s.counts.RejectedBusy++
	}
	return transport.Verdict{Code: code, Available: s.admission.Available(), Epoch: s.cfg.Epoch}
}

// handleHello runs a new session from admission to completion. A hello
// whose nonce matches a live stream is a retransmission — the sender's
// copy of our admission verdict was lost in flight and it redialed — so
// instead of reserving a second session we reattach the connection to
// the existing one, exactly as a resume would.
func (s *Server) handleHello(w wire, hello *transport.StreamHello) {
	if hello.Nonce != 0 && s.redirectIfRemote(w, hello.Nonce) {
		return
	}
	if hello.Nonce != 0 {
		s.mu.Lock()
		prior := s.nonces[hello.Nonce]
		dup := prior != nil && prior.hello == *hello
		if dup {
			s.counts.HelloDeduped++
		}
		avail := s.admission.Available()
		s.mu.Unlock()
		if dup {
			s.cfg.Logf("smoothd: stream %d hello deduplicated by nonce from %s", prior.id, w.conn.RemoteAddr())
			s.reattach(w, prior, prior.token, avail)
			return
		}
		if prior != nil {
			s.rejectConn(w, transport.RejectedMalformed,
				fmt.Errorf("server: hello nonce %016x reused with different parameters", hello.Nonce))
			return
		}
	}
	st, verdict, err := s.admit(w.conn, w.fr, w.fw, hello)
	if werr := w.fw.WriteVerdict(verdict); werr != nil && err == nil {
		err = werr
	}
	if st == nil {
		w.conn.Close()
		s.cfg.Logf("smoothd: %s %s: %v", w.conn.RemoteAddr(), verdict.Code, err)
		return
	}
	s.run(st, err)
}

// handleResume hands a reconnecting sender's connection to its parked
// stream. An unknown token is checked against the completion tombstones
// first: a sender that finished but lost the completion ack gets an
// AlreadyComplete verdict carrying the final hash, not a rejection.
func (s *Server) handleResume(w wire, m *transport.StreamResume) {
	if s.redirectIfRemote(w, m.Token) {
		return
	}
	s.mu.Lock()
	st := s.resumable[m.Token]
	var tomb tombstone
	entombed := false
	if st == nil {
		tomb, entombed = s.tombstones.lookup(m.Token, time.Now())
	}
	if entombed {
		s.counts.AlreadyComplete++
	}
	closed := s.closed
	avail := s.admission.Available()
	s.mu.Unlock()
	if entombed {
		w.fw.WriteVerdict(transport.Verdict{
			Code: transport.AlreadyComplete, Available: avail,
			ResumeToken: m.Token, NextIndex: tomb.pictures, PrefixFNV: tomb.fnv,
			Epoch: s.cfg.Epoch,
		})
		w.conn.Close()
		s.cfg.Logf("smoothd: resume from %s answered already-complete (%d pictures, fnv %016x)",
			w.conn.RemoteAddr(), tomb.pictures, tomb.fnv)
		return
	}
	if st == nil || closed {
		s.rejectConn(w, transport.RejectedMalformed,
			fmt.Errorf("server: resume with unknown token"))
		return
	}
	s.reattach(w, st, m.Token, avail)
}

// reattach hands a reconnecting sender's connection (resume by token or
// hello retransmission matched by nonce) to its parked stream; avail is
// the headroom the caller read with the stream. The claim move
// serializes competing reconnects; the verdict carrying the replay point
// and the accepted-prefix hash is written before the adopt move hands
// the connection over.
func (s *Server) reattach(w wire, st *stream, token uint64, avail float64) {
	if !s.apply(st, move{ev: evClaim}) {
		// The stream has not parked yet — most likely its ingest loop is
		// still blocked on the dead connection. Close that connection to
		// expedite fault detection; the sender's backoff retry will find
		// the stream parked.
		st.closeConn()
		s.rejectConn(w, transport.RejectedBusy,
			fmt.Errorf("server: stream %d not yet accepting resume", st.id))
		return
	}
	// The claim freezes the watermark: ingest waits for the adopt, so the
	// resume point cannot move under us.
	next, prefix := st.resumePoint()
	if err := w.fw.WriteVerdict(transport.Verdict{
		Code: transport.Admitted, Available: avail,
		ResumeToken: token, NextIndex: next, PrefixFNV: prefix,
		Epoch: s.cfg.Epoch,
	}); err != nil {
		// Could not deliver the replay point; reopen the slot for the
		// sender's next attempt.
		s.apply(st, move{ev: evRelease})
		w.conn.Close()
		return
	}
	if !s.apply(st, move{ev: evAdopt, w: w}) {
		// The window lapsed, or the stream ended, while the verdict was
		// on its way.
		w.conn.Close()
	}
}

// admit validates the hello and takes the admission decision. A nil
// stream means the connection ends after the verdict.
func (s *Server) admit(conn net.Conn, fr *transport.FrameReader, fw *transport.FrameWriter, hello *transport.StreamHello) (*stream, transport.Verdict, error) {
	if hello.Integrity != s.cfg.Integrity {
		return nil, s.reject(transport.RejectedMalformed),
			fmt.Errorf("server: hello integrity mode %s, this server requires %s",
				hello.Integrity, s.cfg.Integrity)
	}
	ph, err := transport.NewPrefixHash(hello.Integrity, s.cfg.IntegrityKey)
	if err != nil {
		return nil, s.reject(transport.RejectedMalformed), err
	}

	st := newStream(wire{conn, fr, fw}, *hello, ph, 0, &s.pool)
	sess, err := s.newSession(st)
	if err != nil {
		return nil, s.reject(transport.RejectedMalformed), err
	}
	st.sess = sess

	s.mu.Lock()
	if s.closed || (s.cfg.MaxStreams > 0 && int64(s.cfg.MaxStreams) <= s.admission.Active()) {
		s.mu.Unlock()
		return nil, s.reject(transport.RejectedBusy), errors.New("server: at stream limit or shutting down")
	}
	if hello.Nonce != 0 && s.nonces[hello.Nonce] != nil {
		// A duplicate hello that raced this one past handleHello's probe
		// and was admitted first. This check, under the same lock as the
		// reservation below, is the guard against reserving twice. Busy
		// sends the sender back around; its retry finds the registered
		// nonce and reattaches.
		s.mu.Unlock()
		return nil, s.reject(transport.RejectedBusy),
			fmt.Errorf("server: hello nonce %016x already holds a reservation", hello.Nonce)
	}
	if !s.admission.Admit(hello.PeakRate) {
		avail := s.admission.Available()
		s.mu.Unlock()
		return nil, s.reject(transport.RejectedCapacity),
			fmt.Errorf("server: peak %.0f bps exceeds available %.0f bps", hello.PeakRate, avail)
	}
	if s.cfg.ResumeWindow > 0 {
		st.token = s.newTokenLocked()
	}
	s.registerLocked(st)
	avail := s.admission.Available()
	s.mu.Unlock()
	if err := s.commitAdmission(st); err != nil {
		// Rolled back while admitting: counted busy, not admitted.
		s.mu.Lock()
		s.dropLocked(st)
		s.mu.Unlock()
		return nil, s.reject(transport.RejectedBusy), err
	}
	s.apply(st, move{ev: evAdmit})
	_, prefix := st.resumePoint() // empty hash: nothing accepted yet
	return st, transport.Verdict{
		Code: transport.Admitted, Available: avail, ResumeToken: st.token, PrefixFNV: prefix,
		Epoch: s.cfg.Epoch,
	}, nil
}

// newSession builds the smoothing Session for st's remaining pictures,
// from its base on, with the server's policy and a lookahead of one
// pattern, H = N: the hello carries no H, and the sender computed its
// declared peak at H = N. A declared picture count is binding: the
// Session refuses a picture beyond it, and it decides each picture as
// soon as Theorem 1's inputs have arrived. A count of 0 leaves the
// length unknown, and each decision waits for its H-picture window,
// because an open-ended schedule can peak above the one the sender
// computed its declared peak from.
func (s *Server) newSession(st *stream) (*core.Session, error) {
	remaining := st.hello.Pictures - st.base
	sess, err := core.NewSession(st.hello.Tau, st.hello.GOP, core.Config{
		K: st.hello.K, D: st.hello.D, H: st.hello.GOP.N, Policy: s.cfg.Policy,
	}, core.WithObserver(st.observe), core.WithLength(remaining))
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
// egress on a second, then finish. admitErr carries a verdict-write
// failure from handleHello.
func (s *Server) run(st *stream, admitErr error) {
	err := admitErr
	if err != nil {
		close(st.queue)
	} else {
		egressDone := make(chan error, 1)
		go func() { egressDone <- st.runEgress(s.ctx, s.egress, s.cfg.Clock, s.cfg.TimeScale) }()
		err = cmp.Or(st.runIngest(s.ctx, s), <-egressDone) // ingest's error first
	}
	s.finish(st, err)
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
	if err != nil && s.journal != nil && st.token != 0 && s.ctx.Err() == nil {
		// A terminal failure releases the reservation, so the journal
		// must forget the stream too — otherwise the next generation
		// would rehydrate a reservation nobody holds. Streams ended by
		// shutdown cancellation are deliberately NOT expired: they stay
		// journaled so the next generation recovers them parked.
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
