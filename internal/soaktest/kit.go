// Package soaktest is the test kit smoothd's server, cluster and daemon
// suites share: one client kit, one resumable client, one soak loop, one
// wait loop, free loopback addresses, and Check, the one check of the
// promises smoothd keeps once a soak's clients are done.
//
// It imports neither internal/server nor internal/cluster. The server's
// soaks are tests inside package server, so a kit that imported it would
// be an import cycle. Check therefore reads a server through the JSON
// form of its /stats document (server.Snapshot and
// server.StreamSnapshot), which also lets cmd/smoothd's process smokes
// use it.
package soaktest

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"net"
	"testing"
	"time"

	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/transport"
)

// TimeScale compresses schedule time in every soak so multi-second
// schedules replay in milliseconds.
const TimeScale = 200

// Kit is everything a test client needs to stream one Driving1 trace:
// one random payload per picture, sized to the picture rounded up to
// whole bytes, and the hello that declares the payloads' wire peak.
type Kit struct {
	Trace    *trace.Trace
	Payloads [][]byte
	Hello    transport.StreamHello
	// Key is the shared secret when Hello.Integrity is HMAC.
	Key []byte
}

// NewKit builds the kit for the first pictures of Driving1. The payloads
// are the same on every call.
func NewKit(t testing.TB, pictures int) *Kit {
	t.Helper()
	tr, err := trace.Driving1(pictures, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	payloads := make([][]byte, tr.Len())
	for i, s := range tr.Sizes {
		payloads[i] = make([]byte, int((s+7)/8))
		rng.Read(payloads[i])
	}
	hello := transport.StreamHello{Tau: tr.Tau, GOP: tr.GOP, K: 1, D: 0.2, Pictures: tr.Len()}
	if hello.PeakRate, err = transport.WirePeak(hello, nil, payloads); err != nil {
		t.Fatal(err)
	}
	return &Kit{Trace: tr, Payloads: payloads, Hello: hello}
}

// Tag is the prefix tag a server holds once it has accepted the kit's
// first n pictures. In FNV mode it is computed from the tag's
// definition (payloadFNV) rather than by the transport package.
func (k *Kit) Tag(n int) uint64 {
	if k.Hello.Integrity == transport.IntegrityFNV {
		return payloadFNV(k.Payloads[:n])
	}
	sum, err := transport.PrefixSum(k.Hello.Integrity, k.Key, k.Payloads, n)
	if err != nil {
		panic(err) // the kit's own mode and key: a broken kit, not a broken server
	}
	return sum
}

// payloadFNV is the sender-side mirror of the server's fnv-mode prefix
// tag: FNV-1a over one 16-byte record per payload in index order,
// big-endian uint64(len) ‖ CRC-32C ‖ CRC-32/IEEE.
func payloadFNV(payloads [][]byte) uint64 {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	h := fnv.New64a()
	for _, p := range payloads {
		var rec [16]byte
		binary.BigEndian.PutUint64(rec[0:8], uint64(len(p)))
		binary.BigEndian.PutUint32(rec[8:12], crc32.Checksum(p, castagnoli))
		binary.BigEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(p))
		h.Write(rec[:])
	}
	return h.Sum64()
}

// Stream dials addr, declares, and — when admitted — uploads the whole
// trace at TimeScale.
func (k *Kit) Stream(ctx context.Context, addr string) (transport.Verdict, error) {
	return k.StreamWith(ctx, addr, TimeScale, nil)
}

// StreamWith is Stream with schedule time running scale times faster
// than the wall clock; the benchmarks collapse client-side pacing
// entirely (scale 1e6) so they time the server machinery, not the
// schedule clock. Like ResumableSender, it uploads each picture whole
// at its encoder arrival and sends no rate frame: the server smooths.
// When admitted, it calls gate (if set) after reading the verdict and
// streams only once gate returns.
func (k *Kit) StreamWith(ctx context.Context, addr string, scale float64, gate func()) (transport.Verdict, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return transport.Verdict{}, err
	}
	defer conn.Close()
	fw := transport.NewFrameWriter(conn)
	if err := fw.WriteHello(k.Hello); err != nil {
		return transport.Verdict{}, err
	}
	fr := transport.NewFrameReader(conn)
	v, err := fr.ReadVerdict()
	if err != nil || !v.IsAdmitted() {
		return v, err
	}
	if gate != nil {
		gate()
	}
	p := transport.NewPacer(nil, scale, 0, 0)
	for i, payload := range k.Payloads {
		if err := p.Wait(ctx, float64(i)*k.Trace.Tau); err != nil {
			return v, err
		}
		if err := fw.WritePictureHeader(i, k.Trace.TypeOf(i), payload); err != nil {
			return v, err
		}
		if err := fw.WriteChunk(payload); err != nil {
			return v, err
		}
	}
	if err := fw.WriteEnd(); err != nil {
		return v, err
	}
	// Wait for the completion ack so the server's final write never races
	// our close — with a resume window configured, a reset ack write
	// would otherwise park the finished stream for the whole window.
	fr.ReadMessageTimeout(10 * time.Second)
	return v, nil
}

// Hand is a connection a test drives frame by frame, with the verdict
// its first message drew.
type Hand struct {
	net.Conn
	W       *transport.FrameWriter
	R       *transport.FrameReader
	Verdict transport.Verdict
}

// Dial opens a connection to addr for a test to drive by hand: it sends
// first, a StreamHello or a StreamResume, and reads the verdict. The
// connection closes when the test ends, if not before.
func Dial(t testing.TB, addr string, first any) *Hand {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	h := &Hand{Conn: conn, W: transport.NewFrameWriter(conn), R: transport.NewFrameReader(conn)}
	switch m := first.(type) {
	case transport.StreamHello:
		err = h.W.WriteHello(m)
	case transport.StreamResume:
		err = h.W.WriteResume(m)
	default:
		err = fmt.Errorf("soaktest: a connection cannot open with a %T", first)
	}
	if err == nil {
		h.Verdict, err = h.R.ReadVerdictTimeout(10 * time.Second)
	}
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// Finish sends the kit's pictures from picture from on, then the end
// marker, and waits for the completion ack.
func (h *Hand) Finish(t testing.TB, k *Kit, from int) {
	t.Helper()
	k.Send(t, h.W, from, k.Trace.Len())
	if err := h.W.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.R.ReadMessageTimeout(10 * time.Second); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("completion ack: %v", err)
	}
}

// Handshake dials addr and declares the kit's hello, returning the open
// connection, its writer and the verdict, for tests that hold sessions
// without streaming.
func (k *Kit) Handshake(t testing.TB, addr string) (net.Conn, *transport.FrameWriter, transport.Verdict) {
	t.Helper()
	h := Dial(t, addr, k.Hello)
	return h.Conn, h.W, h.Verdict
}

// Send writes pictures [from, to) as framed pictures, unpaced.
func (k *Kit) Send(t testing.TB, fw *transport.FrameWriter, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := fw.WritePictureHeader(i, k.Trace.TypeOf(i), k.Payloads[i]); err != nil {
			t.Fatalf("picture %d header: %v", i, err)
		}
		if err := fw.WriteChunk(k.Payloads[i]); err != nil {
			t.Fatalf("picture %d payload: %v", i, err)
		}
	}
}
