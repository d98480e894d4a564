package server

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/soaktest"
	"mpegsmooth/internal/transport"
)

// startChaosServer is startServer with the listener wrapped in a
// fault-injecting network.
func startChaosServer(t testing.TB, cfg Config, nw *faultnet.Network) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, cfg, nw.Listener(ln)), ln.Addr().String()
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
	kit := soaktest.NewKit(t, 72)

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
		LinkRate:     float64(clients+1) * kit.Hello.PeakRate,
		ReadTimeout:  2 * time.Second,
		ResumeWindow: 5 * time.Second,
	}, nw)

	tally := soaktest.StartSoak(t, kit, clients, func(i int) *transport.ResumableSender {
		rs := kit.Resumable(addr, int64(i+1))
		rs.Dial = clientNet.Dialer(rs.Dial)
		return rs
	}).Wait()
	soaktest.WaitFor(t, "all streams drained", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == clients && s.Streams.Active == 0
	})
	// Exactly-once admission under chaos: every retried or deduplicated
	// handshake converged on one reservation per client, and the ledger
	// survived the churn.
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: clients, Servers: []soaktest.Stats{stats(t, srv)}})
	snap := srv.Snapshot()
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
	if snap.Faults.Resumed < 1 || tally.Resumes < 1 {
		t.Fatalf("no stream resumed (server %d, clients %d)", snap.Faults.Resumed, tally.Resumes)
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
	kit := soaktest.NewKit(t, 72)

	nw := faultnet.New(faultnet.Config{Seed: 7})
	srv, addr := startChaosServer(t, Config{
		LinkRate:     2 * kit.Hello.PeakRate,
		ReadTimeout:  300 * time.Millisecond,
		ResumeWindow: 10 * time.Second,
	}, nw)

	rs := kit.Resumable(addr, 11)
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
		res, err = rs.Stream(ctx, kit.Payloads)
	}()

	// Let the stream get going, then cut the world for longer than the
	// read timeout (so both ends fault) but far less than the resume
	// window (so the reservation survives).
	soaktest.WaitFor(t, "stream underway", func() bool {
		snap := srv.Snapshot()
		return len(snap.PerStream) == 1 && snap.PerStream[0].Pictures > 3
	})
	nw.PartitionFor(900 * time.Millisecond)

	<-done
	if err != nil {
		t.Fatalf("stream did not survive the partition: %v", err)
	}
	soaktest.WaitFor(t, "completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, srv)}})

	// The partition was classified as a retryable timeout somewhere —
	// client or server side — never a terminal fault.
	snap := srv.Snapshot()
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
	kit := soaktest.NewKit(t, 54)
	srv, addr := startServer(t, Config{
		LinkRate:     2 * kit.Hello.PeakRate,
		ReadTimeout:  150 * time.Millisecond,
		ResumeWindow: 10 * time.Second,
	})

	dials := 0
	rs := kit.Resumable(addr, 7)
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
	res, err := rs.Stream(ctx, kit.Payloads)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if res.Resumes < 1 {
		t.Fatalf("stall did not force a resume: %+v", res)
	}
	soaktest.WaitFor(t, "completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, srv)}})

	snap := srv.Snapshot()
	if snap.Faults.Timeout < 1 {
		t.Fatalf("stall not classified as timeout: %+v", snap.Faults)
	}
	if snap.Faults.Resumed < 1 {
		t.Fatalf("resume not counted: %+v", snap.Faults)
	}
}

// TestMalformedHelloRejectedCleanly: garbage, truncated hellos, and
// unknown resume tokens each get a clean malformed verdict (best
// effort), reserve nothing, and leak no goroutines.
func TestMalformedHelloRejectedCleanly(t *testing.T) {
	kit := soaktest.NewKit(t, 27)
	srv, addr := startServer(t, Config{
		LinkRate:     1e7,
		ReadTimeout:  200 * time.Millisecond,
		ResumeWindow: time.Second,
	})
	before := runtime.NumGoroutine()

	// A valid hello frame to truncate mid-body.
	var helloBuf bytes.Buffer
	if err := transport.NewFrameWriter(&helloBuf).WriteHello(kit.Hello); err != nil {
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
	soaktest.WaitFor(t, "malformed rejections counted", func() bool {
		return srv.Snapshot().Streams.RejectedMalformed == rounds
	})
	snap := srv.Snapshot()
	if snap.Streams.Admitted != 0 || snap.ReservedPeak != 0 {
		t.Fatalf("malformed sessions admitted or reserved: %+v, %.0f reserved",
			snap.Streams, snap.ReservedPeak)
	}
	// Every handler goroutine must have exited: no parked phantoms, no
	// leaked readers. Allow slack for runtime background goroutines.
	soaktest.WaitFor(t, "handler goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before+3
	})
}
