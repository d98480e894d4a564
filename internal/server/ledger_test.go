package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/soaktest"
	"mpegsmooth/internal/transport"
)

// tombstoneCount counts the tombstone ledger's entries, checking that
// its insertion order tracks its map.
func tombstoneCount(t *testing.T, l *tombLedger) int {
	t.Helper()
	if len(l.order) != len(l.m) {
		t.Fatalf("%d tokens in order, %d tombstones", len(l.order), len(l.m))
	}
	return len(l.m)
}

// TestTombstoneLedgerFloodBounded pins the completion-tombstone ledger
// under a sustained completion flood: every tombstone still inside its
// TTL stays answerable, however many strangers complete after it, and
// the ledger holds completion rate × TTL entries, not the whole flood.
func TestTombstoneLedgerFloodBounded(t *testing.T) {
	srv, err := New(Config{LinkRate: 1e9, ResumeWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ttl := srv.tombstoneTTL()
	base := time.Unix(1000, 0)
	// 100 000 completions at 2 000/s: 50 s of flood against a 30 s TTL.
	const flood, gap = 100_000, 500 * time.Microsecond
	at := func(i int) time.Time { return base.Add(time.Duration(i) * gap) }
	for i := 0; i < flood; i++ {
		now := at(i)
		srv.tombstones.put(uint64(0x100000+i), tombstone{
			fnv: uint64(i), pictures: i, expires: now.Add(ttl),
		}, now)
		if i%997 == 0 {
			// A sample of the flood so far: answerable exactly while
			// inside its TTL.
			for j := 0; j <= i; j += 4999 {
				tomb, ok := srv.tombstones.lookup(uint64(0x100000+j), now)
				if live := now.Before(at(j).Add(ttl)); ok != live || (ok && tomb.pictures != j) {
					t.Fatalf("at completion %d: tombstone %d answered=%v (%+v), want %v", i, j, ok, tomb, live)
				}
			}
		}
	}
	end := at(flood - 1)
	window := int(ttl / gap) // completions still inside their TTL at end
	if n := tombstoneCount(t, &srv.tombstones); n < window || n > window+1 {
		t.Errorf("ledger holds %d tombstones at the end of the flood, want rate × TTL = %d (+ 1 at the expiry boundary)", n, window)
	}
	if _, ok := srv.tombstones.lookup(uint64(0x100000+flood-window), end); !ok {
		t.Error("oldest in-window tombstone lost by the end of the flood")
	}
}

// TestTombstoneLedgerKeepsTTLThroughLull: a burst of completions, a
// lull, then a trickle. Every tombstone stays answerable for exactly
// its TTL, however the completion rate swings.
func TestTombstoneLedgerKeepsTTLThroughLull(t *testing.T) {
	srv, err := New(Config{LinkRate: 1e9, ResumeWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ttl := srv.tombstoneTTL()
	if ttl != 30*time.Second {
		t.Fatalf("tombstone TTL %v, want the 30 s floor", ttl)
	}
	t0 := time.Unix(1000, 0)
	entomb := func(token uint64, now time.Time) {
		srv.tombstones.put(token, tombstone{fnv: token, pictures: 1, expires: now.Add(ttl)}, now)
	}
	const burst, trickle = 100_000, 1_000
	for i := 0; i < burst; i++ {
		entomb(uint64(1+i), t0)
	}
	lull := t0.Add(12 * time.Second)
	for i := 0; i < trickle; i++ {
		entomb(uint64(1+burst+i), lull)
	}
	lost := 0
	for i := 0; i < burst; i++ {
		if tomb, ok := srv.tombstones.lookup(uint64(1+i), lull); !ok || tomb.fnv != uint64(1+i) {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("%d of %d tombstones unanswerable 12 s into their 30 s TTL", lost, burst)
	}
	late := t0.Add(31 * time.Second)
	for i := 0; i < burst; i++ {
		if _, ok := srv.tombstones.lookup(uint64(1+i), late); ok {
			t.Fatalf("tombstone %d answered 31 s after completion, past its 30 s TTL", 1+i)
		}
	}
	for i := 0; i < trickle; i++ {
		if _, ok := srv.tombstones.lookup(uint64(1+burst+i), late); !ok {
			t.Fatalf("trickle tombstone %d lost 19 s into its TTL", 1+burst+i)
		}
	}
	// The next completion sweeps the expired burst: memory follows the
	// live set, not the history.
	for i := 0; i < trickle; i++ {
		entomb(uint64(1+burst+trickle+i), late)
	}
	if n := tombstoneCount(t, &srv.tombstones); n != 2*trickle {
		t.Errorf("ledger holds %d tombstones after the burst expired, want %d", n, 2*trickle)
	}
}

// TestHelloNonceReservesOnce pins the guard against a second
// reservation: the nonce map, read once under the server mutex in admit,
// in the critical section that reserves.
func TestHelloNonceReservesOnce(t *testing.T) {
	kit := soaktest.NewKit(t, 54)
	kit.Hello.Nonce = 0x5EED5EED
	peak := kit.Hello.PeakRate

	t.Run("concurrent-duplicates", func(t *testing.T) {
		const clients = 16
		// Room for every client: only the nonce can stop a second
		// reservation. The hellos go through admit's one decision at
		// once.
		srv, _ := startServer(t, Config{LinkRate: clients * peak})
		start := make(chan struct{})
		streams := make([]*stream, clients)
		verdicts := make([]transport.Verdict, clients)
		var wg sync.WaitGroup
		for c := range clients {
			conn, peer := net.Pipe()
			defer conn.Close()
			defer peer.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				hello := kit.Hello
				<-start
				o := srv.admit(wire{conn, transport.NewFrameReader(conn), transport.NewFrameWriter(conn)}, &hello, nil)
				streams[c], verdicts[c] = o.st, transport.Verdict{Code: o.code}
			}()
		}
		close(start)
		wg.Wait()

		var admitted *stream
		for c, v := range verdicts {
			switch {
			case v.IsAdmitted() && streams[c] != nil:
				if admitted != nil {
					t.Errorf("client %d admitted as stream %d, stream %d already holds the nonce", c, streams[c].id, admitted.id)
				}
				admitted = streams[c]
			case v.Code != transport.RejectedBusy || streams[c] != nil:
				t.Errorf("client %d: verdict %v, want one admitted and the rest busy", c, v.Code)
			}
		}
		// Nothing is released while the hellos race, so the reservation
		// now is the most it reached.
		snap := srv.Snapshot()
		if snap.ReservedPeak > peak*(1+1e-9) || snap.Streams.Admitted != 1 {
			t.Fatalf("%d hellos with one nonce: %d admitted, %.0f bps reserved (one peak is %.0f)",
				clients, snap.Streams.Admitted, snap.ReservedPeak, peak)
		}
		srv.finish(admitted, errors.New("test: abandoned after admission"))
		srv.mu.Lock()
		outlived := srv.nonces[kit.Hello.Nonce] != nil
		srv.mu.Unlock()
		if outlived {
			t.Error("nonce outlived its stream")
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		snap = srv.Snapshot()
		if snap.ReservedPeak != 0 || snap.Streams.Active != 0 || snap.Streams.Admitted != 1 {
			t.Errorf("after shutdown: reserved %.0f bps, %d active, %d admitted",
				snap.ReservedPeak, snap.Streams.Active, snap.Streams.Admitted)
		}
	})

	t.Run("changed-parameters", func(t *testing.T) {
		srv, addr := startServer(t, Config{LinkRate: 4 * peak})
		conn, _, v := kit.Handshake(t, addr)
		if !v.IsAdmitted() {
			t.Fatalf("first hello: %+v", v)
		}
		changed := *kit
		changed.Hello.PeakRate = 2 * peak
		reuse, _, v := changed.Handshake(t, addr)
		reuse.Close()
		if v.Code != transport.RejectedMalformed {
			t.Errorf("live nonce with a different peak: verdict %v, want %v", v.Code, transport.RejectedMalformed)
		}
		snap := srv.Snapshot()
		if snap.ReservedPeak != peak || snap.Streams.Admitted != 1 {
			t.Errorf("reserved %.0f bps for %d admissions, want one peak of %.0f", snap.ReservedPeak, snap.Streams.Admitted, peak)
		}
		conn.Close()
		released := func() bool {
			s := srv.Snapshot()
			return s.Streams.Active == 0 && s.ReservedPeak == 0
		}
		soaktest.WaitFor(t, "reservation release", released)
		// The nonce died with its stream: reusing it now is a new stream.
		reuse, _, v = changed.Handshake(t, addr)
		reuse.Close()
		if !v.IsAdmitted() {
			t.Errorf("nonce reused after its stream ended: verdict %v, want admitted", v.Code)
		}
		soaktest.WaitFor(t, "second reservation release", released)
	})
}

// TestRolledBackAdmissionCountedOnce: an admission whose journal record
// never became durable is rolled back as busy and not counted as
// admitted, so a sender whose retry is admitted counts once.
func TestRolledBackAdmissionCountedOnce(t *testing.T) {
	kit := soaktest.NewKit(t, 27)
	kit.Hello.Nonce = 0xB0B5
	// Sync 1 is Open's snapshot; sync 2 is the first admission's batch.
	faulty := journal.NewFaultFS(journal.NewMemFS(), journal.FaultConfig{FailSync: 2})
	j, err := journal.Open(journal.Config{FS: faulty, FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{
		LinkRate: 2 * kit.Hello.PeakRate, ResumeWindow: 5 * time.Second, Journal: j,
	})
	conn, _, v := kit.Handshake(t, addr)
	conn.Close()
	if v.Code != transport.RejectedBusy {
		t.Fatalf("hello whose admission record failed to sync: verdict %v, want %v", v.Code, transport.RejectedBusy)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if v, err := kit.Stream(ctx, addr); err != nil || !v.IsAdmitted() {
		t.Fatalf("retried hello: verdict %v, %v", v.Code, err)
	}
	soaktest.WaitFor(t, "the retried stream to complete", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0
	})
	// One admission for the rolled-back hello and its admitted retry.
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, srv)}})
	if busy := srv.Snapshot().Streams.RejectedBusy; busy != 1 {
		t.Errorf("rejected_busy %d, want 1: the rolled-back hello", busy)
	}
}

// TestDupHelloDuringAdmissionCommit: a hello retransmitted while its
// first copy's admission is still inside the journal fsync is answered
// busy, and the first copy's connection is left alone: the admission
// commits and its verdict arrives there. The sender, retrying with the
// same nonce until it is admitted, reattaches to that one admission and
// streams the whole trace. Nothing is admitted twice and nothing fails.
func TestDupHelloDuringAdmissionCommit(t *testing.T) {
	kit := soaktest.NewKit(t, 27)
	kit.Hello.Nonce = 0xD0B1E
	// Sync 1 is Open's snapshot; sync 2 is the first admission's batch.
	faulty := journal.NewFaultFS(journal.NewMemFS(), journal.FaultConfig{})
	held, release := faulty.HoldSync(2)
	defer release()
	j, err := journal.Open(journal.Config{FS: faulty, FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{
		LinkRate: 2 * kit.Hello.PeakRate, ResumeWindow: 5 * time.Second, Journal: j,
	})

	// Hello A: its admission waits in the held fsync.
	first, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := transport.NewFrameWriter(first).WriteHello(kit.Hello); err != nil {
		t.Fatal(err)
	}
	select {
	case <-held:
	case <-time.After(15 * time.Second):
		t.Fatal("the admission never reached its fsync")
	}
	// The same hello on a second connection.
	dup, _, v := kit.Handshake(t, addr)
	dup.Close()
	if v.Code != transport.RejectedBusy {
		t.Errorf("hello retransmitted during its admission's fsync: verdict %v, want %v", v.Code, transport.RejectedBusy)
	}
	release()
	if v, err := transport.NewFrameReader(first).ReadVerdictTimeout(10 * time.Second); err != nil {
		t.Errorf("first hello's connection: %v; want its admission's verdict", err)
	} else if !v.IsAdmitted() {
		t.Errorf("first hello: verdict %v, want %v", v.Code, transport.Admitted)
	}

	// The sender gives up on that connection and retries.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := kit.Resumable(addr, 1).Stream(ctx, kit.Payloads); err != nil {
		t.Fatalf("sender: %v", err)
	}
	soaktest.WaitFor(t, "the stream to finish", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed+s.Streams.Failed >= 1 && s.Streams.Active == 0
	})
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, srv)}})
}

// gatedWriter is an egress sink whose writes block until release is
// closed: it holds an acked stream short of finish.
type gatedWriter struct{ release chan struct{} }

func (g gatedWriter) Write(p []byte) (int, error) {
	<-g.release
	return len(p), nil
}

// TestResumeRacingFinish: resumes that race a completed stream's finish
// are answered by the live stream (Admitted or RejectedBusy) or by its
// tombstone (AlreadyComplete, carrying the final hash), never as an
// unknown token: finish drops the token and entombs the stream in one
// critical section, and a resume reads both under the same lock.
func TestResumeRacingFinish(t *testing.T) {
	kit := soaktest.NewKit(t, 9)
	release := make(chan struct{})
	srv, addr := startServer(t, Config{
		LinkRate: 2 * kit.Hello.PeakRate, ResumeWindow: 5 * time.Second,
		Egress: gatedWriter{release},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// The sender's completion ack arrives while egress is held at the
	// gate: every picture is accepted, and the stream is still live.
	v, err := kit.Stream(ctx, addr)
	if err != nil || !v.IsAdmitted() {
		t.Fatalf("stream: verdict %v, %v", v.Code, err)
	}
	wantFNV := kit.Tag(kit.Trace.Len())
	const resumers = 4
	var busy atomic.Int64
	var wg sync.WaitGroup
	for range resumers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				got, err := soaktest.Resume(addr, v.ResumeToken)
				if err != nil {
					t.Errorf("resume: %v", err)
					return
				}
				switch got.Code {
				case transport.RejectedBusy:
					busy.Add(1)
					continue
				case transport.AlreadyComplete:
					if got.NextIndex != len(kit.Payloads) || got.PrefixFNV != wantFNV {
						t.Errorf("already complete at %d pictures, hash %016x; want %d, %016x",
							got.NextIndex, got.PrefixFNV, len(kit.Payloads), wantFNV)
					}
				case transport.Admitted:
				default:
					t.Errorf("resume racing finish: verdict %v", got.Code)
				}
				return
			}
		}()
	}
	soaktest.WaitFor(t, "resumes answered by the live stream", func() bool { return busy.Load() >= resumers })
	close(release)
	wg.Wait()
	soaktest.WaitFor(t, "the stream to finish", func() bool { return srv.Snapshot().Streams.Active == 0 })
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, srv)}})
	if n := srv.Snapshot().Streams.RejectedMalformed; n != 0 {
		t.Errorf("rejected_malformed %d, want 0: a resume found neither the stream nor its tombstone", n)
	}
}
