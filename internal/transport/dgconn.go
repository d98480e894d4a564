package transport

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// The datagram ARQ connection: selective-repeat reliability over a
// lossy packet channel, presented as a net.Conn. The stream protocol
// (FrameReader/FrameWriter, hello/verdict/resume, exactly-once
// admission) runs over a DGConn unchanged — the ARQ layer's whole job
// is to make reorder, duplication, and burst loss look like an
// ordinary reliable byte stream that occasionally slows down or, past
// the retransmission budget, fails with a classified, retryable fault.
//
// Reliability machinery, per direction:
//
//   - Send window of cfg.Window (≤ 64) packets. Write blocks while the
//     window is full; every unacked packet is retransmitted on a
//     jittered exponential timeout (transport.Backoff) and failed with
//     ErrRetransmitExhausted after cfg.MaxRetransmits attempts.
//   - Cumulative + bitmap acks. Each arriving DATA triggers an ACK
//     carrying rcvNext and a 64-bit map of out-of-order packets held in
//     reassembly; bitmap acks both stop retransmission of received
//     packets and serve as gap evidence — a packet reported missing
//     below a selectively-acked sequence dgGapRetransmit times is
//     fast-retransmitted without waiting for its timeout.
//   - Bounded reassembly (dgReassemblyWindow). Duplicates are dropped
//     and re-acked (the duplicate means our ACK was lost); a sequence
//     beyond the window tears the flow down with ErrReorderOverflow.
//   - FIN occupies a sequence slot, so end-of-stream is retransmitted
//     and acked like data; the reader drains buffered bytes then io.EOF.
//
// Flow incarnations: every dial draws a random 32-bit connection ID
// stamped on every packet. Packets under a different ID drop silently
// (counted as stale), and an ACK for sequences never sent fails the
// flow with ErrStaleDuplicate — the redial that follows picks a fresh
// ID and shakes the stale incarnation off.

// DatagramConfig parameterizes the ARQ layer. The zero value is ready
// to use.
type DatagramConfig struct {
	// MTU is the per-packet payload budget (default DatagramMTU).
	MTU int
	// Window is the send window in packets, capped at 64 to match the
	// ACK bitmap (default 64).
	Window int
	// RTO is the retransmission backoff schedule per packet: attempt n
	// waits RTO.Delay(n) after the previous send. Defaults to
	// Base 25ms / Max 1s with Backoff's factor-2 jittered growth.
	RTO Backoff
	// MaxRetransmits bounds attempts per packet before the flow fails
	// with ErrRetransmitExhausted (default 14).
	MaxRetransmits int
	// Linger bounds how long Close keeps retransmitting unacked packets
	// (including the FIN) in the background before releasing the
	// underlying socket (default 1s).
	Linger time.Duration
	// Seed fixes the RTO jitter stream for deterministic tests; 0 draws
	// a random seed.
	Seed int64
}

// dgAcceptBacklog bounds a listener's queue of new flows awaiting
// Accept. Flows arriving past it are dropped; the peer's retransmission
// redelivers once the queue drains.
const dgAcceptBacklog = 64

func (c DatagramConfig) withDefaults() DatagramConfig {
	if c.MTU <= 0 {
		c.MTU = DatagramMTU
	}
	if c.MTU > dgMaxPayload {
		c.MTU = dgMaxPayload
	}
	if c.Window <= 0 || c.Window > dgSendWindow {
		c.Window = dgSendWindow
	}
	if c.RTO.Base <= 0 {
		c.RTO.Base = 25 * time.Millisecond
	}
	if c.RTO.Max <= 0 {
		c.RTO.Max = time.Second
	}
	if c.MaxRetransmits <= 0 {
		c.MaxRetransmits = 14
	}
	if c.Linger <= 0 {
		c.Linger = time.Second
	}
	if c.Seed == 0 {
		c.Seed = randomSeed()
	}
	return c
}

func randomSeed() int64 {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return 1
	}
	s := int64(binary.BigEndian.Uint64(b[:]) >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

func randomConnID() uint32 {
	var b [4]byte
	for {
		if _, err := cryptorand.Read(b[:]); err != nil {
			return 0xC0FFEE
		}
		if id := binary.BigEndian.Uint32(b[:]); id != 0 {
			return id
		}
	}
}

// DGStats are one flow's ARQ counters, for tests and diagnostics.
type DGStats struct {
	// Sent counts first transmissions; Retransmits timeout-driven
	// resends; FastRetransmits gap-evidence resends.
	Sent            int64
	Retransmits     int64
	FastRetransmits int64
	// DupsDropped counts received duplicates (already delivered or
	// already buffered); StaleDropped packets under a foreign
	// connection ID.
	DupsDropped  int64
	StaleDropped int64
}

// dgOut is one in-flight outbound packet.
type dgOut struct {
	buf      []byte // encoded packet, resent verbatim
	attempts int    // transmissions so far
	lastSent time.Time
	acked    bool // selectively acked; kept until cum passes
	gapHits  int  // times reported missing below a sacked sequence
}

// DGConn is one datagram ARQ flow. It implements net.Conn, including
// the deadline methods FrameReader/FrameWriter and the server's
// timeout discipline rely on.
type DGConn struct {
	cfg    DatagramConfig
	connID uint32
	local  net.Addr
	remote net.Addr
	// send transmits one encoded packet, best-effort: errors are
	// ignored because the retransmission schedule is the delivery
	// guarantee. done releases the underlying transport (closes the
	// socket or deregisters from the listener) exactly once.
	send func([]byte)
	done func()

	mu   sync.Mutex
	cond *sync.Cond

	// Sender state: window [sndBase, sndNext), outs keyed by seq.
	sndBase uint32
	sndNext uint32
	outs    map[uint32]*dgOut
	finSent bool

	// Receiver state: rcvBuf holds out-of-order packets ≥ rcvNext;
	// readBuf is the in-order byte stream awaiting Read.
	rcvNext uint32
	rcvBuf  map[uint32][]byte
	haveFin bool
	finSeq  uint32
	gotFin  bool // FIN delivered in order: EOF once readBuf drains
	readBuf []byte
	readOff int

	rdl, wdl           time.Time
	rdlTimer, wdlTimer *time.Timer

	err      error // terminal fault
	closed   bool  // Close called: user-visible operations fail
	stopped  bool  // machinery halted, transport released
	stopCh   chan struct{}
	doneOnce sync.Once

	rng        *rand.Rand // RTO jitter; guarded by mu
	stats      DGStats
	ackScratch []byte
}

func newDGConn(cfg DatagramConfig, connID uint32, local, remote net.Addr,
	send func([]byte), done func()) *DGConn {
	c := &DGConn{
		cfg:    cfg,
		connID: connID,
		local:  local,
		remote: remote,
		send:   send,
		done:   done,
		outs:   make(map[uint32]*dgOut),
		rcvBuf: make(map[uint32][]byte),
		stopCh: make(chan struct{}),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.retransmitLoop()
	return c
}

// ConnID exposes the flow incarnation ID (tests, diagnostics).
func (c *DGConn) ConnID() uint32 { return c.connID }

// Stats snapshots the flow's ARQ counters.
func (c *DGConn) Stats() DGStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *DGConn) LocalAddr() net.Addr  { return c.local }
func (c *DGConn) RemoteAddr() net.Addr { return c.remote }

// Write chops p into MTU-sized packets, blocking whenever the send
// window is full until acks open it (or the write deadline expires).
func (c *DGConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for n < len(p) {
		if err := c.waitWindowLocked(); err != nil {
			return n, err
		}
		m := min(c.cfg.MTU, len(p)-n)
		c.transmitLocked(dgKindData, p[n:n+m])
		n += m
	}
	return n, nil
}

// waitWindowLocked blocks until the send window has room.
func (c *DGConn) waitWindowLocked() error {
	for {
		switch {
		case c.err != nil:
			return c.err
		case c.closed:
			return net.ErrClosed
		case !c.wdl.IsZero() && !time.Now().Before(c.wdl):
			return os.ErrDeadlineExceeded
		case c.sndNext-c.sndBase < uint32(c.cfg.Window):
			return nil
		}
		c.cond.Wait()
	}
}

// transmitLocked assigns the next sequence, records the packet in the
// send window, and transmits it once.
func (c *DGConn) transmitLocked(kind byte, payload []byte) {
	seq := c.sndNext
	c.sndNext++
	buf := appendDataPacket(nil, kind, c.connID, seq, payload)
	c.outs[seq] = &dgOut{buf: buf, attempts: 1, lastSent: time.Now()}
	c.stats.Sent++
	c.send(buf)
}

// Read delivers in-order bytes, blocking until data, EOF, a terminal
// fault, or the read deadline.
func (c *DGConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.readOff < len(c.readBuf) {
			n := copy(p, c.readBuf[c.readOff:])
			c.readOff += n
			if c.readOff == len(c.readBuf) {
				c.readBuf = c.readBuf[:0]
				c.readOff = 0
			}
			return n, nil
		}
		switch {
		case c.gotFin:
			return 0, io.EOF
		case c.err != nil:
			return 0, c.err
		case c.closed:
			return 0, net.ErrClosed
		case !c.rdl.IsZero() && !time.Now().Before(c.rdl):
			return 0, os.ErrDeadlineExceeded
		}
		c.cond.Wait()
	}
}

// handlePacket is the ingress path, called by the socket read loop
// (client) or listener demux (server) with a decoded packet whose
// payload aliases the read buffer.
func (c *DGConn) handlePacket(pkt dgPacket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		return
	}
	if pkt.Conn != c.connID {
		c.stats.StaleDropped++
		return
	}
	switch pkt.Kind {
	case dgKindData, dgKindFin:
		c.handleDataLocked(pkt)
	case dgKindAck:
		c.handleAckLocked(pkt)
	}
}

func (c *DGConn) handleDataLocked(pkt dgPacket) {
	switch {
	case pkt.Seq < c.rcvNext:
		// Already delivered: the duplicate means our ACK was lost, so
		// re-ack to let the sender's window advance.
		c.stats.DupsDropped++
		c.sendAckLocked()
		return
	case pkt.Seq >= c.rcvNext+dgReassemblyWindow:
		c.failLocked(fmt.Errorf("seq %d beyond reassembly window [%d,%d): %w",
			pkt.Seq, c.rcvNext, c.rcvNext+dgReassemblyWindow, ErrReorderOverflow))
		return
	}
	if _, dup := c.rcvBuf[pkt.Seq]; dup {
		c.stats.DupsDropped++
		c.sendAckLocked()
		return
	}
	// The payload aliases the caller's read buffer — copy to retain.
	c.rcvBuf[pkt.Seq] = append([]byte(nil), pkt.Payload...)
	if pkt.Kind == dgKindFin {
		c.haveFin = true
		c.finSeq = pkt.Seq
	}
	for {
		b, ok := c.rcvBuf[c.rcvNext]
		if !ok {
			break
		}
		delete(c.rcvBuf, c.rcvNext)
		if c.haveFin && c.rcvNext == c.finSeq {
			c.gotFin = true
		} else {
			c.readBuf = append(c.readBuf, b...)
		}
		c.rcvNext++
	}
	c.sendAckLocked()
	c.cond.Broadcast()
}

// sendAckLocked transmits the receiver's current cumulative + bitmap
// acknowledgement.
func (c *DGConn) sendAckLocked() {
	cum := c.rcvNext
	var bitmap uint64
	for i := uint32(0); i < 64; i++ {
		if _, ok := c.rcvBuf[cum+1+i]; ok {
			bitmap |= 1 << i
		}
	}
	c.ackScratch = appendAckPacket(c.ackScratch[:0], c.connID, cum, bitmap)
	c.send(c.ackScratch)
}

func (c *DGConn) handleAckLocked(pkt dgPacket) {
	if pkt.Cum > c.sndNext {
		// An ack for sequences this flow never sent can only come from
		// a stale or foreign incarnation that got past the ID check by
		// collision; the flow's accounting is compromised.
		c.failLocked(fmt.Errorf("ack for unsent seq %d (next %d): %w",
			pkt.Cum, c.sndNext, ErrStaleDuplicate))
		return
	}
	for c.sndBase < pkt.Cum {
		delete(c.outs, c.sndBase)
		c.sndBase++
	}
	var maxSacked uint32
	sacked := false
	for i := 0; i < 64; i++ {
		if pkt.Bitmap&(1<<i) == 0 {
			continue
		}
		seq := pkt.Cum + 1 + uint32(i)
		if out, ok := c.outs[seq]; ok {
			out.acked = true
		}
		if seq < c.sndNext {
			maxSacked, sacked = seq, true
		}
	}
	if sacked {
		// Gap evidence: every unacked sequence below the highest
		// selectively-acked one was missing when the receiver acked.
		// Enough consecutive reports trigger fast retransmit ahead of
		// the timeout.
		now := time.Now()
		for seq := c.sndBase; seq < maxSacked; seq++ {
			out, ok := c.outs[seq]
			if !ok || out.acked {
				continue
			}
			if out.gapHits++; out.gapHits >= dgGapRetransmit {
				out.gapHits = 0
				out.attempts++
				out.lastSent = now
				c.stats.FastRetransmits++
				c.send(out.buf)
			}
		}
	}
	c.cond.Broadcast()
}

// retransmitLoop scans the send window and resends packets whose
// jittered RTO has elapsed, failing the flow once a packet exhausts
// its attempt budget.
func (c *DGConn) retransmitLoop() {
	tick := c.cfg.RTO.Base / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 20*time.Millisecond {
		tick = 20 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-c.stopCh:
			return
		}
		c.mu.Lock()
		now := time.Now()
		for seq := c.sndBase; seq < c.sndNext && c.err == nil; seq++ {
			out, ok := c.outs[seq]
			if !ok || out.acked {
				continue
			}
			if now.Sub(out.lastSent) < c.cfg.RTO.Delay(out.attempts, c.rng) {
				continue
			}
			if out.attempts >= c.cfg.MaxRetransmits {
				c.failLocked(fmt.Errorf("seq %d unacked after %d attempts: %w",
					seq, out.attempts, ErrRetransmitExhausted))
				break
			}
			out.attempts++
			out.lastSent = now
			c.stats.Retransmits++
			c.send(out.buf)
		}
		stopped := c.stopped
		c.mu.Unlock()
		if stopped {
			return
		}
	}
}

// failLocked records the terminal fault and halts the flow.
func (c *DGConn) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	c.stopLocked()
}

// stopLocked halts the machinery and releases the transport.
func (c *DGConn) stopLocked() {
	if c.stopped {
		return
	}
	c.stopped = true
	close(c.stopCh)
	c.cond.Broadcast()
	c.doneOnce.Do(func() { go c.done() })
}

// Close sends a FIN occupying the next sequence slot and returns
// immediately; a background drain keeps retransmitting unacked packets
// (FIN included) until everything is acked or cfg.Linger elapses, then
// releases the socket. Reads and writes fail with net.ErrClosed as
// soon as Close is called.
func (c *DGConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	if c.err == nil && !c.stopped && !c.finSent {
		c.finSent = true
		// The FIN ignores window occupancy: it must get a sequence even
		// when writers are stalled against a full window.
		c.transmitLocked(dgKindFin, nil)
	}
	if c.err != nil || c.stopped || len(c.outs) == 0 {
		c.stopLocked()
		c.mu.Unlock()
		return nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	go c.drainThenStop()
	return nil
}

// drainThenStop waits for the send window to empty (every packet
// acked) or the linger deadline, then halts the flow.
func (c *DGConn) drainThenStop() {
	deadline := time.Now().Add(c.cfg.Linger)
	timer := time.AfterFunc(c.cfg.Linger, c.cond.Broadcast)
	defer timer.Stop()
	c.mu.Lock()
	for c.err == nil && !c.stopped && len(c.outs) > 0 && time.Now().Before(deadline) {
		c.cond.Wait()
	}
	c.stopLocked()
	c.mu.Unlock()
}

func (c *DGConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	return c.SetWriteDeadline(t)
}

func (c *DGConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rdl = t
	if c.rdlTimer != nil {
		c.rdlTimer.Stop()
		c.rdlTimer = nil
	}
	if !t.IsZero() {
		d := max(time.Until(t), 0)
		c.rdlTimer = time.AfterFunc(d, c.cond.Broadcast)
	}
	c.cond.Broadcast()
	return nil
}

func (c *DGConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wdl = t
	if c.wdlTimer != nil {
		c.wdlTimer.Stop()
		c.wdlTimer = nil
	}
	if !t.IsZero() {
		d := max(time.Until(t), 0)
		c.wdlTimer = time.AfterFunc(d, c.cond.Broadcast)
	}
	c.cond.Broadcast()
	return nil
}

// DatagramListener accepts ARQ flows over one shared net.PacketConn,
// demultiplexing datagrams by source address. It implements
// net.Listener, so server.Serve runs over it unchanged.
type DatagramListener struct {
	pc  net.PacketConn
	cfg DatagramConfig

	mu      sync.Mutex
	conns   map[string]*DGConn
	closed  bool
	acceptQ chan *DGConn
	closeCh chan struct{}
	once    sync.Once
}

// ListenDatagram wraps a packet socket (net.ListenPacket("udp", …), or
// a fault-injecting wrapper around one) in an ARQ flow demultiplexer.
func ListenDatagram(pc net.PacketConn, cfg DatagramConfig) *DatagramListener {
	cfg = cfg.withDefaults()
	l := &DatagramListener{
		pc:      pc,
		cfg:     cfg,
		conns:   make(map[string]*DGConn),
		acceptQ: make(chan *DGConn, dgAcceptBacklog),
		closeCh: make(chan struct{}),
	}
	go l.demux()
	return l
}

// Accept returns the next new flow.
func (l *DatagramListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acceptQ:
		return c, nil
	case <-l.closeCh:
		return nil, net.ErrClosed
	}
}

// Addr returns the underlying socket's address.
func (l *DatagramListener) Addr() net.Addr { return l.pc.LocalAddr() }

// Close shuts the socket and fails every live flow.
func (l *DatagramListener) Close() error {
	l.mu.Lock()
	l.closed = true
	conns := make([]*DGConn, 0, len(l.conns))
	for _, c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	l.once.Do(func() { close(l.closeCh) })
	err := l.pc.Close()
	for _, c := range conns {
		c.mu.Lock()
		c.failLocked(net.ErrClosed)
		c.mu.Unlock()
	}
	return err
}

// demux is the single socket read loop: decode, route to the flow by
// source address, creating flows for new sources on valid DATA.
func (l *DatagramListener) demux() {
	buf := make([]byte, 64<<10)
	for {
		n, addr, err := l.pc.ReadFrom(buf)
		if err != nil {
			if l.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient socket errors (ICMP-borne, injected timeouts):
			// keep serving; reliability lives in the ARQ layer.
			continue
		}
		pkt, derr := decodeDatagram(buf[:n])
		if derr != nil {
			continue // corrupt datagrams drop silently, like loss
		}
		key := addr.String()
		l.mu.Lock()
		c := l.conns[key]
		if c == nil {
			// Only a DATA packet opens a flow: stray ACKs and FIN
			// retransmits from dead incarnations must not conjure
			// ghost connections.
			if l.closed || pkt.Kind != dgKindData || len(l.acceptQ) == cap(l.acceptQ) {
				l.mu.Unlock()
				continue
			}
			c = l.newFlowLocked(key, addr, pkt.Conn)
			l.acceptQ <- c
		}
		l.mu.Unlock()
		c.handlePacket(pkt)
	}
}

func (l *DatagramListener) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// newFlowLocked creates the server-side DGConn for a new source
// address, adopting the client's connection ID.
func (l *DatagramListener) newFlowLocked(key string, addr net.Addr, connID uint32) *DGConn {
	cfg := l.cfg
	// Decorrelate per-flow jitter while keeping it derived from the
	// listener seed, for reproducible tests.
	cfg.Seed = l.cfg.Seed ^ int64(connID)
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	send := func(b []byte) { l.pc.WriteTo(b, addr) }
	done := func() {
		l.mu.Lock()
		if l.conns[key] != nil {
			delete(l.conns, key)
		}
		l.mu.Unlock()
	}
	c := newDGConn(cfg, connID, l.pc.LocalAddr(), addr, send, done)
	l.conns[key] = c
	return c
}

// NewDatagramClientConn runs the client half of an ARQ flow over an
// already-connected packet conn (one datagram per Read/Write) — the
// seam where tests and the streamer CLI insert fault-injecting
// wrappers.
func NewDatagramClientConn(pc net.Conn, cfg DatagramConfig) *DGConn {
	cfg = cfg.withDefaults()
	c := newDGConn(cfg, randomConnID(), pc.LocalAddr(), pc.RemoteAddr(),
		func(b []byte) { pc.Write(b) },
		func() { pc.Close() })
	go c.readLoop(pc)
	return c
}

// readLoop pumps the client socket into the flow until the socket
// closes (done() on stop) or errors persist past any plausible
// transient.
func (c *DGConn) readLoop(pc net.Conn) {
	buf := make([]byte, 64<<10)
	consecutive := 0
	for {
		n, err := pc.Read(buf)
		if err != nil {
			select {
			case <-c.stopCh:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Connected UDP surfaces ICMP unreachable as ECONNREFUSED:
			// transient while the server rebinds. Persistent errors
			// eventually fail the flow through retransmit exhaustion,
			// but cap the spin here too.
			if consecutive++; consecutive > 1000 {
				c.mu.Lock()
				c.failLocked(fmt.Errorf("datagram socket: %w", err))
				c.mu.Unlock()
				return
			}
			time.Sleep(time.Millisecond)
			continue
		}
		consecutive = 0
		pkt, derr := decodeDatagram(buf[:n])
		if derr != nil {
			continue
		}
		c.handlePacket(pkt)
	}
}

// DialDatagram opens an ARQ flow to a UDP address.
func DialDatagram(addr string, cfg DatagramConfig) (*DGConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	return NewDatagramClientConn(pc, cfg), nil
}
