package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/transport"
)

// startDatagramServer boots a server whose listener is the datagram
// ARQ demultiplexer over a fault-injected UDP socket: the entire
// hello/verdict/resume/exactly-once protocol rides the packet channel.
func startDatagramServer(t testing.TB, cfg Config, nw *faultnet.PacketNet,
	dgCfg transport.DatagramConfig) (*Server, string) {
	t.Helper()
	if cfg.TimeScale == 0 {
		cfg.TimeScale = soakTimeScale
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := transport.ListenDatagram(nw.WrapPacketConn(pc), dgCfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, pc.LocalAddr().String()
}

// datagramSoakRTO is the ARQ retransmission schedule both sides use in
// the soak: fast enough to chew through burst loss inside the test
// budget, bounded enough that a deep outage exhausts the schedule and
// exercises the reconnect/resume machinery instead of stalling forever.
var datagramSoakRTO = transport.Backoff{Base: 5 * time.Millisecond, Max: 80 * time.Millisecond}

// datagramClient builds a resumable sender that dials ARQ flows over a
// fault-injected UDP socket — a fresh socket (and flow incarnation) per
// reconnect, exactly like the production dial path.
func datagramClient(kit *clientKit, addr string, seed int64,
	nw *faultnet.PacketNet, dgCfg transport.DatagramConfig) *transport.ResumableSender {
	return &transport.ResumableSender{
		Sender: transport.Sender{TimeScale: soakTimeScale, Chunk: 512, WriteTimeout: 10 * time.Second},
		Dial: func(ctx context.Context) (net.Conn, error) {
			raddr, err := net.ResolveUDPAddr("udp", addr)
			if err != nil {
				return nil, err
			}
			udp, err := net.DialUDP("udp", nil, raddr)
			if err != nil {
				return nil, err
			}
			return transport.NewDatagramClientConn(nw.WrapConn(udp), dgCfg), nil
		},
		Hello:       kit.hello,
		Backoff:     transport.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond},
		MaxAttempts: 40,
		Seed:        seed,
	}
}

// datagramChaosConfig is the packet fault mix both directions run in
// the soak: baseline i.i.d. loss, duplication, bounded reordering, and
// Gilbert–Elliott near-outage bursts long enough to exhaust the ARQ
// retransmission schedule — forcing flows to die and resume rather
// than merely slow down.
func datagramChaosConfig(seed int64) faultnet.PacketConfig {
	return faultnet.PacketConfig{
		Seed:        seed,
		LossProb:    0.03,
		DupProb:     0.05,
		ReorderProb: 0.05,
		ReorderSpan: 4,
		Burst:       faultnet.PacketBurst{EnterProb: 0.004, ExitProb: 0.02, LossProb: 1},
	}
}

// TestDatagramChaosSoak is the datagram acceptance soak, run across
// multiple seeds: resumable clients stream over ARQ flows whose packet
// channels reorder, duplicate, and burst-drop in BOTH directions.
// Every stream must complete with a byte-exact payload hash, every
// client must hold exactly one admission, and no reservation may leak
// — bursty loss slows a stream or forces a resume, but never corrupts
// it, double-admits it, or wedges the server.
func TestDatagramChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("datagram soak skipped in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDatagramSoak(t, seed)
		})
	}
}

func runDatagramSoak(t *testing.T, seed int64) {
	const clients = 6
	kit := makeClient(t, testTrace(t, 60))

	srvNet := faultnet.NewPacketNet(datagramChaosConfig(seed))
	clientNet := faultnet.NewPacketNet(datagramChaosConfig(seed*1000 + 17))
	srv, addr := startDatagramServer(t, Config{
		LinkRate: float64(clients+1) * kit.hello.PeakRate,
		// A parked flow's liveness signal is pure silence — no UDP
		// reset arrives when the peer redials — so the read timeout is
		// the only thing freeing a dead flow for its successor.
		ReadTimeout:  time.Second,
		ResumeWindow: 20 * time.Second,
	}, srvNet, transport.DatagramConfig{
		Seed:           seed,
		RTO:            datagramSoakRTO,
		MaxRetransmits: 8,
		Linger:         200 * time.Millisecond,
	})

	clientDG := transport.DatagramConfig{
		Seed:           seed + 500,
		RTO:            datagramSoakRTO,
		MaxRetransmits: 8,
		Linger:         200 * time.Millisecond,
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		resumes  int
		failures []error
	)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs := datagramClient(kit, addr, seed*100+int64(i+1), clientNet, clientDG)
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
	// Lossless, byte-exact and exactly-once through drops, dups, and
	// reordering: the ARQ layer plus the resume protocol never let a
	// damaged packet channel damage a stream, and every redial, replayed
	// hello, and deduplicated handshake converged on one reservation per
	// client, and every reservation came back.
	snap := checkSoakEnd(t, srv, clients, kit)
	// The chaos was real in both directions: each injector dropped,
	// duplicated, AND reordered.
	for side, counts := range map[string]faultnet.PacketCounts{
		"server": srvNet.Counts(), "client": clientNet.Counts(),
	} {
		if counts.Dropped+counts.BurstDropped == 0 || counts.Duplicated == 0 || counts.Reordered == 0 {
			t.Fatalf("%s-side injector idle: %+v", side, counts)
		}
	}
	t.Logf("seed %d: resumes=%d faults=%+v server=%+v client=%+v",
		seed, resumes, snap.Faults, srvNet.Counts(), clientNet.Counts())
}
