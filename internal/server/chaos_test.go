package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/transport"
)

// payloadFNV is the sender-side mirror of the server's fnv-mode prefix
// tag, computed here from its definition rather than by the transport
// package: FNV-1a over one 16-byte record per payload in index order,
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

// checkSoakEnd checks what every soak harness demands of a server once
// its clients are done: the admissions it expects, no stream failed,
// active or parked, every reservation back (nothing reserved, the whole
// capacity available), and each finished stream holding all of kit's
// pictures with the sender's exact bytes. It returns the snapshot it
// checked.
func checkSoakEnd(t *testing.T, srv *Server, admitted int64, kit *clientKit) Snapshot {
	t.Helper()
	snap := srv.Snapshot()
	if snap.Streams.Admitted != admitted {
		t.Errorf("admitted %d sessions, want %d: handshake retries double-reserved", snap.Streams.Admitted, admitted)
	}
	if s := snap.Streams; s.Failed != 0 || s.Active != 0 || s.Parked != 0 {
		t.Errorf("%d streams failed, %d active, %d parked; want none", s.Failed, s.Active, s.Parked)
	}
	if snap.ReservedPeak != 0 || snap.AvailablePeak != snap.CapacityBPS {
		t.Errorf("reservations leaked: %.0f bps reserved, %.0f of %.0f available",
			snap.ReservedPeak, snap.AvailablePeak, snap.CapacityBPS)
	}
	// Lossless and byte-exact: every finished stream accepted every
	// picture, in order, with the sender's exact bytes.
	fin := srv.FinishedStreams()
	if int64(len(fin)) != snap.Streams.Completed {
		t.Errorf("%d finished snapshots for %d completed streams", len(fin), snap.Streams.Completed)
	}
	wantFNV := payloadFNV(kit.payloads)
	for _, ss := range fin {
		if ss.Pictures != kit.tr.Len() || ss.PayloadFNV != wantFNV {
			t.Errorf("stream %d: %d pictures, payload hash %016x; want %d, %016x — bytes corrupted or lost",
				ss.ID, ss.Pictures, ss.PayloadFNV, kit.tr.Len(), wantFNV)
		}
	}
	return snap
}

// startChaosServer is startServer with the listener wrapped in a
// fault-injecting network.
func startChaosServer(t testing.TB, cfg Config, nw *faultnet.Network) (*Server, string) {
	t.Helper()
	if cfg.TimeScale == 0 {
		cfg.TimeScale = soakTimeScale
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(nw.Listener(ln)) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func resumableClient(kit *clientKit, addr string, seed int64) *transport.ResumableSender {
	return &transport.ResumableSender{
		Sender: transport.Sender{TimeScale: soakTimeScale, Chunk: 512, WriteTimeout: 5 * time.Second},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		Hello:       kit.hello,
		Backoff:     transport.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond},
		MaxAttempts: 25,
		Seed:        seed,
	}
}

// TestChaosSoakResumableStreams is the acceptance soak: 20 resumable
// clients stream through fault-injecting networks on BOTH sides — the
// server's listener and each client's dialer — that corrupt bytes,
// stall reads, and abruptly reset connections. Every stream must
// complete with a byte-exact payload hash — a flaky link costs delay
// and reconnects, never pictures — every client must hold exactly one
// admission (the nonce ledger absorbing every lost or mangled
// handshake), and the classified fault counters must show the chaos
// actually happened.
func TestChaosSoakResumableStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	const clients = 20
	kit := makeClient(t, testTrace(t, 72))

	nw := faultnet.New(faultnet.Config{
		Seed:        42,
		CorruptProb: 0.02,
		ResetProb:   0.01,
		StallProb:   0.02,
		Stall:       20 * time.Millisecond,
		// Keep the hello/resume/verdict/ack exchanges clean so faults
		// concentrate on the picture stream rather than re-rolling
		// admission.
		FaultFreeBytes: 256,
	})
	// The client-side network exercises the senders' own read and write
	// paths: verdicts and completion acks arrive corrupted, outbound
	// handshakes die mid-flight. Milder mix than the server side so the
	// compounded fault rate stays inside MaxAttempts.
	clientNet := faultnet.New(faultnet.Config{
		Seed:           4242,
		CorruptProb:    0.01,
		ResetProb:      0.005,
		StallProb:      0.01,
		Stall:          20 * time.Millisecond,
		FaultFreeBytes: 256,
	})
	srv, addr := startChaosServer(t, Config{
		LinkRate:     float64(clients+1) * kit.hello.PeakRate,
		ReadTimeout:  2 * time.Second,
		ResumeWindow: 5 * time.Second,
	}, nw)

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		resumes  int
		failures []error
	)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs := resumableClient(kit, addr, int64(i+1))
			rs.Dial = clientNet.Dialer(rs.Dial)
			res, err := rs.Stream(ctx, kit.payloads)
			mu.Lock()
			defer mu.Unlock()
			resumes += res.Resumes
			if err != nil {
				failures = append(failures, fmt.Errorf("client %d: %w", i, err))
			}
		}(i)
	}
	wg.Wait()
	for _, err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	waitFor(t, "all streams drained", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == clients && s.Streams.Active == 0
	})
	// Exactly-once admission under chaos: every retried or deduplicated
	// handshake converged on one reservation per client, and the ledger
	// survived the churn.
	snap := checkSoakEnd(t, srv, clients, kit)
	// The chaos was real on both sides: each harness injected faults,
	// the server classified them, and streams came back.
	counts := nw.Counts()
	if counts.Corrupted+counts.Resets+counts.Stalls == 0 {
		t.Fatal("server-side fault harness injected nothing; soak proved nothing")
	}
	cc := clientNet.Counts()
	if cc.Corrupted+cc.Resets+cc.Stalls == 0 {
		t.Fatal("client-side fault harness injected nothing")
	}
	if got := snap.Faults.Corrupt + snap.Faults.Timeout + snap.Faults.Reset; got == 0 {
		t.Fatalf("server classified no faults (harness injected %+v)", counts)
	}
	if snap.Faults.Resumed < 1 || resumes < 1 {
		t.Fatalf("no stream resumed (server %d, clients %d)", snap.Faults.Resumed, resumes)
	}
}

// TestPartitionSpanningResume: a full network partition longer than the
// server's read timeout but shorter than the resume window severs a
// live stream on both sides at once. The partition classifies as a
// timeout (retryable) for everyone — the server parks, the client backs
// off through ErrPartitioned dial-less failures — and when the window
// heals the stream resumes and completes byte-exact.
func TestPartitionSpanningResume(t *testing.T) {
	if testing.Short() {
		t.Skip("partition soak skipped in -short mode")
	}
	kit := makeClient(t, testTrace(t, 72))
	wantFNV := payloadFNV(kit.payloads)

	nw := faultnet.New(faultnet.Config{Seed: 7})
	srv, addr := startChaosServer(t, Config{
		LinkRate:     2 * kit.hello.PeakRate,
		ReadTimeout:  300 * time.Millisecond,
		ResumeWindow: 10 * time.Second,
	}, nw)

	rs := resumableClient(kit, addr, 11)
	// Both directions cross the same partitioned network.
	rs.Dial = nw.Dialer(rs.Dial)
	rs.HandshakeTimeout = 500 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan struct{})
	var (
		res transport.StreamResult
		err error
	)
	go func() {
		defer close(done)
		res, err = rs.Stream(ctx, kit.payloads)
	}()

	// Let the stream get going, then cut the world for longer than the
	// read timeout (so both ends fault) but far less than the resume
	// window (so the reservation survives).
	waitFor(t, "stream underway", func() bool {
		snap := srv.Snapshot()
		return len(snap.PerStream) == 1 && snap.PerStream[0].Pictures > 3
	})
	nw.PartitionFor(900 * time.Millisecond)

	<-done
	if err != nil {
		t.Fatalf("stream did not survive the partition: %v", err)
	}
	waitFor(t, "completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })

	snap := srv.Snapshot()
	if snap.Streams.Failed != 0 {
		t.Fatalf("stream failed: %+v", snap.Streams)
	}
	// The partition was classified as a retryable timeout somewhere —
	// client or server side — never a terminal fault.
	if res.Faults[transport.FaultOther] != 0 {
		t.Fatalf("client classified a partition fault as terminal: %+v", res.Faults)
	}
	if int64(res.Faults[transport.FaultTimeout])+snap.Faults.Timeout < 1 {
		t.Fatalf("nobody classified a timeout across the partition (client %+v, server %+v)",
			res.Faults, snap.Faults)
	}
	if res.Resumes < 1 {
		t.Fatalf("partition did not force a resume: %+v", res)
	}
	if nw.Counts().Partitions < 1 {
		t.Fatal("no partition was injected")
	}
	fin := srv.FinishedStreams()
	if len(fin) != 1 || fin[0].PayloadFNV != wantFNV || fin[0].Pictures != kit.tr.Len() {
		t.Fatalf("stream not byte-exact after partition resume: %+v", fin)
	}
	if snap.ReservedPeak != 0 {
		t.Fatalf("reservation leaked: %.0f", snap.ReservedPeak)
	}
}

// stallOnceConn pauses its write side once, after `after` bytes, for
// longer than the server's read deadline — a sender that freezes
// mid-payload and then comes back to a connection the server gave up on.
type stallOnceConn struct {
	net.Conn
	after int
	stall time.Duration
	once  sync.Once
	sent  int
}

func (c *stallOnceConn) Write(p []byte) (int, error) {
	if c.sent >= c.after {
		c.once.Do(func() { time.Sleep(c.stall) })
	}
	n, err := c.Conn.Write(p)
	c.sent += n
	return n, err
}

// TestStalledSenderParksAndResumes: a mid-payload stall trips the
// server's read deadline, the stream parks as a timeout fault, and the
// sender — finding its connection dead when it wakes — reconnects and
// resumes. The stream completes byte-exact.
func TestStalledSenderParksAndResumes(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	wantFNV := payloadFNV(kit.payloads)
	srv, addr := startServer(t, Config{
		LinkRate:     2 * kit.hello.PeakRate,
		ReadTimeout:  150 * time.Millisecond,
		ResumeWindow: 10 * time.Second,
	})

	dials := 0
	rs := resumableClient(kit, addr, 7)
	plainDial := rs.Dial
	rs.Dial = func(ctx context.Context) (net.Conn, error) {
		conn, err := plainDial(ctx)
		if err != nil {
			return nil, err
		}
		dials++
		if dials == 1 {
			return &stallOnceConn{Conn: conn, after: 2048, stall: 600 * time.Millisecond}, nil
		}
		return conn, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rs.Stream(ctx, kit.payloads)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if res.Resumes < 1 {
		t.Fatalf("stall did not force a resume: %+v", res)
	}
	waitFor(t, "completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })

	snap := srv.Snapshot()
	if snap.Streams.Failed != 0 {
		t.Fatalf("stream failed: %+v", snap.Streams)
	}
	if snap.Faults.Timeout < 1 {
		t.Fatalf("stall not classified as timeout: %+v", snap.Faults)
	}
	if snap.Faults.Resumed < 1 {
		t.Fatalf("resume not counted: %+v", snap.Faults)
	}
	fin := srv.FinishedStreams()
	if len(fin) != 1 || fin[0].PayloadFNV != wantFNV {
		t.Fatalf("stream not byte-exact after stall+resume")
	}
}

// TestMalformedHelloRejectedCleanly: garbage, truncated hellos, and
// unknown resume tokens each get a clean malformed verdict (best
// effort), reserve nothing, and leak no goroutines.
func TestMalformedHelloRejectedCleanly(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	srv, addr := startServer(t, Config{
		LinkRate:     1e7,
		ReadTimeout:  200 * time.Millisecond,
		ResumeWindow: time.Second,
	})
	before := runtime.NumGoroutine()

	// A valid hello frame to truncate mid-body.
	var helloBuf bytes.Buffer
	if err := transport.NewFrameWriter(&helloBuf).WriteHello(kit.hello); err != nil {
		t.Fatal(err)
	}
	helloBytes := helloBuf.Bytes()

	const rounds = 9
	for i := 0; i < rounds; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0: // not our protocol at all
			conn.Write([]byte("GET /stats HTTP/1.1\r\n\r\n"))
			v, err := transport.NewFrameReader(conn).ReadVerdictTimeout(5 * time.Second)
			if err != nil {
				t.Fatalf("round %d: no verdict for garbage: %v", i, err)
			}
			if v.Code != transport.RejectedMalformed {
				t.Fatalf("round %d: verdict %+v, want rejected-malformed", i, v)
			}
		case 1: // a hello that dies mid-frame
			conn.Write(helloBytes[:len(helloBytes)-5])
		case 2: // resume with a token the server never issued
			if err := transport.NewFrameWriter(conn).WriteResume(transport.StreamResume{Token: 0xBAD}); err != nil {
				t.Fatal(err)
			}
			v, err := transport.NewFrameReader(conn).ReadVerdictTimeout(5 * time.Second)
			if err != nil {
				t.Fatalf("round %d: no verdict for bad token: %v", i, err)
			}
			if v.Code != transport.RejectedMalformed {
				t.Fatalf("round %d: verdict %+v, want rejected-malformed", i, v)
			}
		}
		conn.Close()
	}
	waitFor(t, "malformed rejections counted", func() bool {
		return srv.Snapshot().Streams.RejectedMalformed == rounds
	})
	snap := srv.Snapshot()
	if snap.Streams.Admitted != 0 || snap.ReservedPeak != 0 {
		t.Fatalf("malformed sessions admitted or reserved: %+v, %.0f reserved",
			snap.Streams, snap.ReservedPeak)
	}
	// Every handler goroutine must have exited: no parked phantoms, no
	// leaked readers. Allow slack for runtime background goroutines.
	waitFor(t, "handler goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before+3
	})
}
