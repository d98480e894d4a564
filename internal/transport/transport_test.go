package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/trace"
)

func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.WriteRate(RateNotification{Index: 7, Rate: 1.5e6}); err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4, 5}
	if err := w.WritePictureHeader(7, mpeg.TypeP, payload); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEnd(); err != nil {
		t.Fatal(err)
	}

	r := NewFrameReader(&buf)
	msg, err := r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	rn, ok := msg.(*RateNotification)
	if !ok || rn.Index != 7 || rn.Rate != 1.5e6 {
		t.Fatalf("got %#v", msg)
	}
	msg, err = r.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	pf, ok := msg.(*PictureFrame)
	if !ok || pf.Index != 7 || pf.Type != mpeg.TypeP || !bytes.Equal(pf.Payload, payload) {
		t.Fatalf("got %#v", msg)
	}
	if _, err := r.ReadMessage(); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// rawFrame builds a CRC-valid frame by hand, for tests that need to put
// field values on the wire the writer would refuse.
func rawFrame(kind byte, seq uint32, body []byte) []byte {
	buf := append([]byte{kind}, binary.BigEndian.AppendUint32(nil, seq)...)
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// writeLog records each Write call separately, the way a faultnet
// wrapper sees its op sequence.
type writeLog struct{ writes [][]byte }

func (l *writeLog) Write(p []byte) (int, error) {
	l.writes = append(l.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestFrameWriterStagedHeaderOps: staging a picture header changes
// neither the bytes on the wire nor, on a writer without writev, the
// sequence of Write calls — every frame and chunk is still its own
// Write, in order. A staged header goes out ahead of whatever frame
// follows it.
func TestFrameWriterStagedHeaderOps(t *testing.T) {
	payload := []byte("0123456789")
	var log writeLog
	w := NewFrameWriter(&log)
	steps := []func() error{
		func() error { return w.WriteRate(RateNotification{Index: 0, Rate: 1e6}) },
		func() error { return w.WritePictureHeader(0, mpeg.TypeP, payload) },
		func() error { return w.WriteChunk(payload[:4]) },
		func() error { return w.WriteChunk(payload[4:]) },
		func() error { return w.WritePictureHeader(1, mpeg.TypeB, payload) },
		func() error { return w.WriteEnd() }, // flushes the staged header first
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	picBody := func(index uint32, ty mpeg.PictureType) []byte {
		body := binary.BigEndian.AppendUint32(nil, index)
		body = append(body, byte(ty))
		body = binary.BigEndian.AppendUint32(body, uint32(len(payload)))
		return binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(payload))
	}
	rateBody := binary.BigEndian.AppendUint32(nil, 0)
	rateBody = binary.BigEndian.AppendUint64(rateBody, math.Float64bits(1e6))
	want := [][]byte{
		rawFrame(kindRate, 0, rateBody),
		rawFrame(kindPicture, 1, picBody(0, mpeg.TypeP)),
		payload[:4],
		payload[4:],
		rawFrame(kindPicture, 2, picBody(1, mpeg.TypeB)),
		rawFrame(kindEnd, 3, nil),
	}
	if len(log.writes) != len(want) {
		t.Fatalf("%d writes, want %d", len(log.writes), len(want))
	}
	for i := range want {
		if !bytes.Equal(log.writes[i], want[i]) {
			t.Errorf("write %d: %x, want %x", i, log.writes[i], want[i])
		}
	}
}

func TestWireValidation(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.WriteRate(RateNotification{Index: -1, Rate: 1}); err == nil {
		t.Error("negative index should fail")
	}
	if err := w.WriteRate(RateNotification{Index: 0, Rate: 0}); err == nil {
		t.Error("zero rate should fail")
	}
	if err := w.WritePictureHeader(0, mpeg.TypeI, nil); err == nil {
		t.Error("zero size should fail")
	}
	if err := w.WritePictureHeader(0, mpeg.TypeI, make([]byte, DefaultMaxPictureBytes+1)); err == nil {
		t.Error("oversize picture should fail")
	}
	// Unknown kind byte.
	if _, err := NewFrameReader(bytes.NewReader([]byte{0xFF})).ReadMessage(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown kind: want ErrCorrupt, got %v", err)
	}
	// Truncated payload: header promises 100 bytes, only 3 arrive.
	var b2 bytes.Buffer
	w2 := NewFrameWriter(&b2)
	if err := w2.WritePictureHeader(0, mpeg.TypeI, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteChunk([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFrameReader(&b2).ReadMessage(); err == nil {
		t.Error("truncated payload should fail")
	}
	// Peer announcing an absurd payload size (a CRC-valid frame the
	// writer itself would never emit) must be rejected before any
	// allocation happens.
	body := make([]byte, 13)
	binary.BigEndian.PutUint32(body[5:9], 0xFFFFFFFF)
	r := NewFrameReader(bytes.NewReader(rawFrame(kindPicture, 0, body)))
	if _, err := r.ReadMessage(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized announcement: want ErrCorrupt, got %v", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(nil)).ReadMessage(); err != io.EOF {
		t.Error("empty stream should EOF")
	}
}

// TestCorruptFrameDetected: a single flipped bit anywhere in a frame
// fails the CRC.
func TestCorruptFrameDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := NewFrameWriter(&buf).WriteRate(RateNotification{Index: 3, Rate: 2e6}); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for i := range clean {
		data := append([]byte(nil), clean...)
		data[i] ^= 0x10
		_, err := NewFrameReader(bytes.NewReader(data)).ReadMessage()
		if err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
}

// TestSequenceDiscontinuityDetected: dropping a frame breaks the seq
// chain and is reported as ErrBadSeq, not silently decoded.
func TestSequenceDiscontinuityDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.WriteRate(RateNotification{Index: 0, Rate: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	// Skip the first frame entirely: rate frame is 1+4+12+4 bytes.
	data := buf.Bytes()[21:]
	if _, err := NewFrameReader(bytes.NewReader(data)).ReadMessage(); !errors.Is(err, ErrBadSeq) {
		t.Fatalf("want ErrBadSeq, got %v", err)
	}
}

// testSchedule builds a short smoothed schedule with its payloads.
func testSchedule(t testing.TB, pictures int) (*core.Schedule, [][]byte) {
	t.Helper()
	tr, err := trace.Generate(trace.SynthConfig{
		Name:  "wire",
		GOP:   mpeg.GOP{M: 3, N: 9},
		IBase: 40_000, PBase: 18_000, BBase: 6_000,
		Scenes: []trace.ScenePhase{{Pictures: pictures, Complexity: 1, Motion: 0.5}},
		Seed:   42,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Smooth(tr, core.Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	payloads := make([][]byte, tr.Len())
	for i, s := range tr.Sizes {
		p := make([]byte, int((s+7)/8))
		rng.Read(p)
		payloads[i] = p
	}
	return sched, payloads
}

// runSession sends a schedule over the given connection pair at a
// compressed timescale and returns the receiver's report.
func runSession(t *testing.T, sched *core.Schedule, payloads [][]byte, cw io.Writer, cr io.Reader, closeW func() error) *Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sendErr := make(chan error, 1)
	go func() {
		s := &Sender{TimeScale: 100, Chunk: 512}
		err := s.Send(ctx, NewFrameWriter(cw), sched, payloads)
		if closeW != nil {
			closeW()
		}
		sendErr <- err
	}()
	report, err := Receive(ctx, cr)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	return report
}

func verifyReport(t *testing.T, sched *core.Schedule, payloads [][]byte, report *Report) {
	t.Helper()
	n := len(payloads)
	if len(report.Pictures) != n {
		t.Fatalf("received %d pictures, want %d", len(report.Pictures), n)
	}
	for i, p := range report.Pictures {
		if p.Index != i {
			t.Fatalf("picture %d has index %d (reordered?)", i, p.Index)
		}
		if p.Bytes != len(payloads[i]) {
			t.Fatalf("picture %d: %d bytes, want %d", i, p.Bytes, len(payloads[i]))
		}
		if p.Sum64 != PayloadSum64(payloads[i]) {
			t.Fatalf("picture %d: payload corrupted in flight", i)
		}
		if p.Type != sched.Trace.TypeOf(i) {
			t.Fatalf("picture %d: type %v, want %v", i, p.Type, sched.Trace.TypeOf(i))
		}
		if p.NotifiedRate <= 0 {
			t.Fatalf("picture %d arrived with no rate notification", i)
		}
		if p.NotifiedRate != sched.Rates[i] {
			t.Fatalf("picture %d: notified %v, schedule says %v", i, p.NotifiedRate, sched.Rates[i])
		}
	}
	// The number of notifications equals the number of rate changes + 1.
	changes := 1
	for i := 1; i < n; i++ {
		if sched.Rates[i] != sched.Rates[i-1] {
			changes++
		}
	}
	if len(report.Notifications) != changes {
		t.Fatalf("%d notifications, want %d", len(report.Notifications), changes)
	}
}

func TestSessionOverTCP(t *testing.T) {
	sched, payloads := testSchedule(t, 27)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-connCh
	defer server.Close()

	report := runSession(t, sched, payloads, client, server, nil)
	verifyReport(t, sched, payloads, report)
}

func TestSessionOverPipe(t *testing.T) {
	sched, payloads := testSchedule(t, 18)
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()
	report := runSession(t, sched, payloads, cw, cr, nil)
	verifyReport(t, sched, payloads, report)
}

// TestSendDecisionsFromSession drives the sender straight from a
// core.Session's decision stream — no Schedule in between — and checks
// the receiver sees the same pictures, rates, and payloads as the
// schedule path.
func TestSendDecisionsFromSession(t *testing.T) {
	sched, payloads := testSchedule(t, 18)
	tr := sched.Trace
	sess, err := core.NewSession(tr.Tau, tr.GOP, sched.Config)
	if err != nil {
		t.Fatal(err)
	}
	var decisions []core.Decision
	for _, size := range tr.Sizes {
		ds, err := sess.Push(size)
		if err != nil {
			t.Fatal(err)
		}
		decisions = append(decisions, ds...)
	}
	decisions = append(decisions, sess.Close()...)
	if len(decisions) != tr.Len() {
		t.Fatalf("%d decisions for %d pictures", len(decisions), tr.Len())
	}

	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sendErr := make(chan error, 1)
	go func() {
		s := &Sender{TimeScale: 100, Chunk: 512}
		sendErr <- s.SendDecisions(ctx, NewFrameWriter(cw), decisions, tr.TypeOf, payloads)
	}()
	report, err := Receive(ctx, cr)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	verifyReport(t, sched, payloads, report)
}

func TestPacingHonorsSchedule(t *testing.T) {
	// At TimeScale 100, a ~0.9 s schedule replays in ~9 ms. Verify the
	// session takes at least the scheduled duration (pacing is real) and
	// arrival spacing is monotone.
	sched, payloads := testSchedule(t, 27)
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()
	start := time.Now()
	report := runSession(t, sched, payloads, cw, cr, nil)
	elapsed := time.Since(start)
	n := len(sched.Rates)
	wantMin := time.Duration(sched.Depart[n-1] / 100 * float64(time.Second))
	if elapsed < wantMin {
		t.Fatalf("session took %v, pacing demands at least %v", elapsed, wantMin)
	}
	for i := 1; i < len(report.Pictures); i++ {
		if report.Pictures[i].Arrival < report.Pictures[i-1].Arrival {
			t.Fatalf("arrival order violated at %d", i)
		}
	}
}

func TestArrivalTimesTrackSchedule(t *testing.T) {
	// Each picture's last byte must arrive close to its scheduled
	// departure time (scaled). Loose tolerance: scheduler jitter, pipe
	// handoff, and test-machine noise.
	sched, payloads := testSchedule(t, 27)
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()
	const scale = 20.0
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		s := &Sender{TimeScale: scale, Chunk: 512}
		s.Send(ctx, NewFrameWriter(cw), sched, payloads)
	}()
	report, err := Receive(ctx, cr)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Pictures) != len(payloads) {
		t.Fatalf("received %d pictures", len(report.Pictures))
	}
	for i, p := range report.Pictures {
		want := sched.Depart[i] / scale
		got := p.Arrival.Seconds()
		// Never early beyond one chunk; late by at most 50 ms wall time.
		if got < want-0.005 {
			t.Fatalf("picture %d arrived %.4fs, before scheduled %.4fs", i, got, want)
		}
		if got > want+0.05 {
			t.Fatalf("picture %d arrived %.4fs, way after scheduled %.4fs", i, got, want)
		}
	}
}

func TestSenderRejectsMismatchedPayloads(t *testing.T) {
	sched, payloads := testSchedule(t, 18)
	var buf bytes.Buffer
	s := &Sender{TimeScale: 1000}
	if err := s.Send(context.Background(), NewFrameWriter(&buf), sched, payloads[:3]); err == nil {
		t.Fatal("payload count mismatch should fail")
	}
}

func TestSenderHonorsCancellation(t *testing.T) {
	sched, payloads := testSchedule(t, 27)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cw, cr := net.Pipe()
	defer cw.Close()
	defer cr.Close()
	go io.Copy(io.Discard, cr)
	s := &Sender{TimeScale: 1} // real time: would take ~1 s without cancel
	start := time.Now()
	err := s.Send(ctx, NewFrameWriter(cw), sched, payloads)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation not honoured promptly")
	}
}

func TestReceiverSurvivesAbruptClose(t *testing.T) {
	cw, cr := net.Pipe()
	go func() {
		w := NewFrameWriter(cw)
		w.WritePictureHeader(0, mpeg.TypeI, make([]byte, 100))
		w.WriteChunk(make([]byte, 10)) // partial payload
		cw.Close()
	}()
	_, err := Receive(context.Background(), cr)
	if err == nil {
		t.Fatal("truncated stream should error")
	}
}
