package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"hash/fnv"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestDatagramCodecRoundTrip: every packet kind encodes and decodes to
// itself.
func TestDatagramCodecRoundTrip(t *testing.T) {
	data := appendDataPacket(nil, dgKindData, 0xDEADBEEF, 42, []byte("picture bytes"))
	p, err := decodeDatagram(data)
	if err != nil {
		t.Fatalf("decode data: %v", err)
	}
	if p.Kind != dgKindData || p.Conn != 0xDEADBEEF || p.Seq != 42 || string(p.Payload) != "picture bytes" {
		t.Fatalf("data round trip: %+v", p)
	}

	fin := appendDataPacket(nil, dgKindFin, 7, 99, nil)
	p, err = decodeDatagram(fin)
	if err != nil {
		t.Fatalf("decode fin: %v", err)
	}
	if p.Kind != dgKindFin || p.Conn != 7 || p.Seq != 99 || len(p.Payload) != 0 {
		t.Fatalf("fin round trip: %+v", p)
	}

	ack := appendAckPacket(nil, 7, 1000, 0xA5A5)
	p, err = decodeDatagram(ack)
	if err != nil {
		t.Fatalf("decode ack: %v", err)
	}
	if p.Kind != dgKindAck || p.Conn != 7 || p.Cum != 1000 || p.Bitmap != 0xA5A5 {
		t.Fatalf("ack round trip: %+v", p)
	}
}

// TestDatagramCodecVectors pins the packet bytes: one packet of each
// kind, as the encoders wrote them before the packets moved onto
// package frame. The encoders must still produce them, and the decoder
// must accept them.
func TestDatagramCodecVectors(t *testing.T) {
	for _, c := range []struct {
		pkt  dgPacket
		got  []byte
		want string
	}{
		{dgPacket{Kind: dgKindData, Conn: 0xDEADBEEF, Seq: 42, Payload: []byte("picture bytes")},
			appendDataPacket(nil, dgKindData, 0xDEADBEEF, 42, []byte("picture bytes")),
			"64deadbeef0000002a000d7069637475726520627974657350252417"},
		{dgPacket{Kind: dgKindFin, Conn: 7, Seq: 99, Payload: []byte{}},
			appendDataPacket(nil, dgKindFin, 7, 99, nil),
			"66000000070000006300005cd0a660"},
		{dgPacket{Kind: dgKindAck, Conn: 7, Cum: 1000, Bitmap: 0xA5A5},
			appendAckPacket(nil, 7, 1000, 0xA5A5),
			"6100000007000003e8000000000000a5a55fcaec93"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%c packet: %s, want %s", c.pkt.Kind, got, c.want)
		}
		want, _ := hex.DecodeString(c.want)
		if p, err := decodeDatagram(want); err != nil || !reflect.DeepEqual(p, c.pkt) {
			t.Errorf("%c vector decodes as %+v, %v", c.pkt.Kind, p, err)
		}
	}
}

// TestDatagramCodecRejectsCorrupt: every malformation decodes to an
// ErrCorrupt-classed error, never a panic or a bogus packet.
func TestDatagramCodecRejectsCorrupt(t *testing.T) {
	good := appendDataPacket(nil, dgKindData, 1, 2, []byte("payload"))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF
	badLen := append([]byte(nil), good...)
	badLen[9] ^= 0x01 // length field no longer matches the datagram
	finPayload := appendDataPacket(nil, dgKindData, 1, 2, []byte("x"))
	finPayload[0] = dgKindFin // fin must carry no payload
	// Re-CRC so only the fin-with-payload rule fails.
	finPayload = appendDataPacket(finPayload[:0], dgKindFin, 1, 2, nil)
	finPayload = append(finPayload[:dgDataHeader-2], 0, 1, 'x', 0, 0, 0, 0)

	cases := [][]byte{
		nil,
		{},
		{dgKindData},
		good[:dgDataHeader], // truncated before CRC
		good[:len(good)-1],  // truncated CRC
		append(good, 0x00),  // trailing byte
		flipped,             // CRC flip
		badLen,              // length/datagram mismatch
		{'z', 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown kind
		appendAckPacket(nil, 1, 2, 3)[:dgAckSize-1],     // truncated ack
	}
	for i, buf := range cases {
		if _, err := decodeDatagram(buf); err == nil {
			t.Errorf("case %d: corrupt datagram decoded cleanly", i)
		} else if ClassifyFault(err) != FaultCorrupt {
			t.Errorf("case %d: classified %s, want corrupt", i, ClassifyFault(err))
		}
	}
}

// startEchoListener runs a datagram listener whose accepted flows echo
// every byte back until EOF.
func startEchoListener(t *testing.T, cfg DatagramConfig) *DatagramListener {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen udp: %v", err)
	}
	l := ListenDatagram(pc, cfg)
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(conn, conn)
				conn.Close()
			}()
		}
	}()
	return l
}

// TestDatagramConnEcho: bytes written over the ARQ flow come back
// intact over clean UDP loopback.
func TestDatagramConnEcho(t *testing.T) {
	l := startEchoListener(t, DatagramConfig{Seed: 11})
	c, err := DialDatagram(l.Addr().String(), DatagramConfig{Seed: 12})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	msg := bytes.Repeat([]byte("smooth"), 4096) // crosses several MTUs
	if _, err := c.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatalf("read echo: %v", err)
	}
	if !bytes.Equal(msg, got) {
		t.Fatal("echo differs from sent bytes")
	}
}

// lossyConn deterministically mangles the client→server packet stream:
// drops, duplicates, and displaces packets by index, exercising every
// ARQ recovery path without randomness.
type lossyConn struct {
	net.Conn
	mu   sync.Mutex
	n    int
	held []byte
}

func (c *lossyConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.n
	c.n++
	switch {
	case i%5 == 2: // drop
		return len(b), nil
	case i%7 == 3: // duplicate
		c.Conn.Write(b)
		c.Conn.Write(b)
		return len(b), nil
	case i%11 == 4 && c.held == nil: // hold for reordering
		c.held = append([]byte(nil), b...)
		return len(b), nil
	}
	n, err := c.Conn.Write(b)
	if c.held != nil {
		c.Conn.Write(c.held) // emit the held packet one slot late
		c.held = nil
	}
	return n, err
}

// TestDatagramConnLossy: a flow over a dropping/duplicating/reordering
// channel still delivers a byte-exact stream, and the ARQ counters show
// the machinery actually fired.
func TestDatagramConnLossy(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen udp: %v", err)
	}
	l := ListenDatagram(pc, DatagramConfig{Seed: 21})
	defer l.Close()

	type result struct {
		sum uint64
		n   int64
	}
	srvDone := make(chan result, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		h := fnv.New64a()
		n, _ := io.Copy(h, conn)
		conn.Close()
		srvDone <- result{h.Sum64(), n}
	}()

	raddr, _ := net.ResolveUDPAddr("udp", l.Addr().String())
	udp, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatalf("dial udp: %v", err)
	}
	cfg := DatagramConfig{
		Seed: 22,
		MTU:  512,
		RTO:  Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
	}
	c := NewDatagramClientConn(&lossyConn{Conn: udp}, cfg)

	payload := make([]byte, 96<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	want := fnv.New64a()
	want.Write(payload)

	c.SetWriteDeadline(time.Now().Add(20 * time.Second))
	for off := 0; off < len(payload); off += 1024 {
		end := min(off+1024, len(payload))
		if _, err := c.Write(payload[off:end]); err != nil {
			t.Fatalf("write at %d: %v", off, err)
		}
	}
	stats := c.Stats()
	c.Close() // FIN: server's io.Copy ends at EOF

	select {
	case got := <-srvDone:
		if got.n != int64(len(payload)) {
			t.Fatalf("server received %d bytes, want %d", got.n, len(payload))
		}
		if got.sum != want.Sum64() {
			t.Fatal("delivered bytes differ from sent bytes")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("transfer did not complete")
	}
	if stats.Retransmits+stats.FastRetransmits == 0 {
		t.Error("lossy channel produced no retransmissions")
	}
	t.Logf("stats: %+v", stats)
}

// blackholeAddr/blackholeConn: a packet conn that discards every write
// and never delivers a read — the shape of a totally dead channel.
type blackholeAddr struct{}

func (blackholeAddr) Network() string { return "udp" }
func (blackholeAddr) String() string  { return "blackhole" }

type blackholeConn struct {
	closed    chan struct{}
	closeOnce sync.Once
}

func newBlackholeConn() *blackholeConn { return &blackholeConn{closed: make(chan struct{})} }

func (c *blackholeConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}
func (c *blackholeConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *blackholeConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
func (c *blackholeConn) LocalAddr() net.Addr              { return blackholeAddr{} }
func (c *blackholeConn) RemoteAddr() net.Addr             { return blackholeAddr{} }
func (c *blackholeConn) SetDeadline(time.Time) error      { return nil }
func (c *blackholeConn) SetReadDeadline(time.Time) error  { return nil }
func (c *blackholeConn) SetWriteDeadline(time.Time) error { return nil }

// TestDatagramRetransmitExhausted: a dead channel fails the flow with
// the retransmit-exhausted class after the attempt budget, not a hang.
func TestDatagramRetransmitExhausted(t *testing.T) {
	cfg := DatagramConfig{
		Seed:           31,
		MTU:            64,
		Window:         4,
		RTO:            Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		MaxRetransmits: 3,
	}
	c := NewDatagramClientConn(newBlackholeConn(), cfg)
	defer c.Close()

	c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	var err error
	for i := 0; i < 1000 && err == nil; i++ {
		_, err = c.Write(make([]byte, 256)) // overfill the window
	}
	if err == nil {
		t.Fatal("write into a black hole never failed")
	}
	if !errors.Is(err, ErrRetransmitExhausted) {
		t.Fatalf("got %v, want ErrRetransmitExhausted", err)
	}
	if ClassifyFault(err) != FaultRetransmitExhausted {
		t.Fatalf("classified %s, want retransmit-exhausted", ClassifyFault(err))
	}
}

// TestDatagramReorderOverflow: a sequence displaced beyond the bounded
// reassembly window tears the flow down with the reorder-overflow
// class.
func TestDatagramReorderOverflow(t *testing.T) {
	c := NewDatagramClientConn(newBlackholeConn(), DatagramConfig{Seed: 41})
	defer c.Close()

	c.handlePacket(dgPacket{Kind: dgKindData, Conn: c.ConnID(), Seq: dgReassemblyWindow, Payload: []byte("x")})
	_, err := c.Read(make([]byte, 1))
	if !errors.Is(err, ErrReorderOverflow) {
		t.Fatalf("got %v, want ErrReorderOverflow", err)
	}
	if ClassifyFault(err) != FaultReorderOverflow {
		t.Fatalf("classified %s, want reorder-overflow", ClassifyFault(err))
	}
}

// TestDatagramStaleAck: an acknowledgement for sequences never sent —
// stale-incarnation traffic past the ID check — fails the flow with
// the stale-duplicate class.
func TestDatagramStaleAck(t *testing.T) {
	c := NewDatagramClientConn(newBlackholeConn(), DatagramConfig{Seed: 51})
	defer c.Close()

	c.handlePacket(dgPacket{Kind: dgKindAck, Conn: c.ConnID(), Cum: 5})
	_, err := c.Write([]byte("x"))
	if !errors.Is(err, ErrStaleDuplicate) {
		t.Fatalf("got %v, want ErrStaleDuplicate", err)
	}
	if ClassifyFault(err) != FaultStaleDuplicate {
		t.Fatalf("classified %s, want stale-duplicate", ClassifyFault(err))
	}
}

// TestDatagramStaleIncarnationDropped: packets under a foreign
// connection ID are dropped silently — counted, never delivered.
func TestDatagramStaleIncarnationDropped(t *testing.T) {
	c := NewDatagramClientConn(newBlackholeConn(), DatagramConfig{Seed: 61})
	defer c.Close()

	c.handlePacket(dgPacket{Kind: dgKindData, Conn: c.ConnID() + 1, Seq: 0, Payload: []byte("ghost")})
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := c.Read(make([]byte, 8)); err == nil || n != 0 {
		t.Fatalf("read returned (%d, %v), want a deadline expiry and no ghost bytes", n, err)
	}
	if got := c.Stats().StaleDropped; got != 1 {
		t.Fatalf("StaleDropped = %d, want 1", got)
	}
}

// TestDatagramFrameProtocolOverARQ: the stream frame codec — CRC,
// sequence discipline and all — runs over a DGConn unchanged.
func TestDatagramFrameProtocolOverARQ(t *testing.T) {
	l := startEchoListener(t, DatagramConfig{Seed: 71})
	c, err := DialDatagram(l.Addr().String(), DatagramConfig{Seed: 72})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	fw := NewFrameWriter(c)
	fr := NewFrameReader(c)
	c.SetDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < 5; i++ {
		// The echo server reflects the raw bytes, so the reflected
		// frames carry the same CRCs and sequence numbers the reader
		// expects — any ARQ slip (lost, duplicated, reordered bytes)
		// would trip the frame layer's own checks.
		want := RateNotification{Index: i, Rate: float64(1000 * (i + 1))}
		if err := fw.WriteRate(want); err != nil {
			t.Fatalf("write rate %d: %v", i, err)
		}
		msg, err := fr.ReadMessage()
		if err != nil {
			t.Fatalf("read echo %d: %v", i, err)
		}
		got, ok := msg.(*RateNotification)
		if !ok || *got != want {
			t.Fatalf("echo %d mangled: %T %+v", i, msg, msg)
		}
	}
}
