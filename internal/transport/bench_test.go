package transport

import (
	"bytes"
	"io"
	"net"
	"testing"

	"mpegsmooth/internal/mpeg"
)

// encodePictures frames count pictures of size payloadBytes into one
// contiguous byte stream, exactly as a sender would put them on the
// wire (header frame followed by the raw payload chunk).
func encodePictures(tb testing.TB, count, payloadBytes int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for i := 0; i < count; i++ {
		if err := fw.WritePictureHeader(i, mpeg.TypeP, payload); err != nil {
			tb.Fatal(err)
		}
		if err := fw.WriteChunk(payload); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFrameReaderSteadyStateZeroAlloc pins the ingest hot path at zero
// allocations per frame: a pooled FrameReader decoding a steady stream
// of pictures must reuse its scratch buffer, its PictureFrame value,
// and the pooled payload buffers, allocating nothing once warm. A
// regression here puts the garbage collector back in the per-picture
// path, which is exactly what the pool exists to prevent.
func TestFrameReaderSteadyStateZeroAlloc(t *testing.T) {
	const runs = 200
	stream := encodePictures(t, runs+8, 4096)
	fr := NewFrameReader(bytes.NewReader(stream))
	var pool BufferPool
	fr.Pool = &pool

	readOne := func() {
		m, err := fr.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		pic, ok := m.(*PictureFrame)
		if !ok {
			t.Fatalf("read %T, want *PictureFrame", m)
		}
		pool.Put(pic.Payload)
	}
	// Warm up: first reads grow the scratch buffer and seed the pool.
	for i := 0; i < 4; i++ {
		readOne()
	}
	if allocs := testing.AllocsPerRun(runs, readOne); allocs != 0 {
		t.Errorf("steady-state pooled frame read allocates %.1f objects/frame, want 0", allocs)
	}
}

// writePictures returns a step that frames one picture the way the
// pacing loop does: a rate notification, the staged header, and the
// payload in two chunks, the first carrying the header.
func writePictures(t *testing.T, fw *FrameWriter) func() {
	payload := make([]byte, 4096)
	return func() {
		if err := fw.WriteRate(RateNotification{Index: 0, Rate: 1e6}); err != nil {
			t.Fatal(err)
		}
		if err := fw.WritePictureHeader(0, mpeg.TypeI, payload); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteChunk(payload[:1024]); err != nil {
			t.Fatal(err)
		}
		if err := fw.WriteChunk(payload[1024:]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameWriterSteadyStateZeroAlloc pins the egress side the same
// way: once the writer's scratch buffer is warm, framing a picture —
// staging its header and sending it with the first payload chunk —
// must not allocate. io.Discard takes net.Buffers' sequential-Write
// fallback.
func TestFrameWriterSteadyStateZeroAlloc(t *testing.T) {
	writeOne := writePictures(t, NewFrameWriter(io.Discard))
	writeOne() // warm the scratch buffer
	// Indexes repeat across runs; the reader end would reject that, but
	// framing doesn't care and io.Discard has no reader end.
	if allocs := testing.AllocsPerRun(200, writeOne); allocs != 0 {
		t.Errorf("steady-state frame write allocates %.1f objects/frame, want 0", allocs)
	}
}

// TestFrameWriterTCPZeroAlloc is the same pin over a loopback
// *net.TCPConn, where header and first chunk leave in one writev.
func TestFrameWriterTCPZeroAlloc(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := conn.(*net.TCPConn); !ok {
		t.Fatalf("dialed %T, want *net.TCPConn", conn)
	}
	writeOne := writePictures(t, NewFrameWriter(conn))
	writeOne() // warm the scratch buffer and the connection's iovec cache
	allocs := testing.AllocsPerRun(200, writeOne)
	conn.Close()
	<-drained
	if allocs != 0 {
		t.Errorf("steady-state frame write over TCP allocates %.1f objects/frame, want 0", allocs)
	}
}

// BenchmarkFrameReaderPictures measures raw frame-decode throughput,
// pooled versus allocate-per-message. The pooled configuration is the
// server's; the alloc configuration is the pre-pool behaviour kept for
// caller-owned payloads.
func BenchmarkFrameReaderPictures(b *testing.B) {
	const payloadBytes = 4096
	for _, pooled := range []bool{true, false} {
		name := "alloc"
		if pooled {
			name = "pooled"
		}
		b.Run(name, func(b *testing.B) {
			const chunk = 512 // frames per reader session
			stream := encodePictures(b, chunk, payloadBytes)
			var pool BufferPool
			rd := bytes.NewReader(stream)
			fr := NewFrameReader(rd)
			if pooled {
				fr.Pool = &pool
			}
			b.SetBytes(payloadBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%chunk == 0 && i > 0 {
					// Sessions carry a sequence counter, so replaying
					// the stream needs a fresh reader (pool persists).
					rd.Reset(stream)
					fr = NewFrameReader(rd)
					if pooled {
						fr.Pool = &pool
					}
				}
				m, err := fr.ReadMessage()
				if err != nil {
					b.Fatal(err)
				}
				pic := m.(*PictureFrame)
				if pooled {
					pool.Put(pic.Payload)
				}
			}
		})
	}
}
