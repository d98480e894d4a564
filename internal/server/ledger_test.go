package server

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/transport"
)

// tombstoneCount sums the tombstone ledger's entries across shards,
// checking that each shard's insertion order tracks its map.
func tombstoneCount(t *testing.T, l *tombLedger) int {
	t.Helper()
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		if len(sh.order) != len(sh.m) {
			t.Fatalf("shard %d: %d tokens in order, %d tombstones", i, len(sh.order), len(sh.m))
		}
		n += len(sh.m)
	}
	return n
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
	if n := tombstoneCount(t, &srv.tombstones); n < window || n > window+ledgerShards*4 {
		t.Errorf("ledger holds %d tombstones at the end of the flood, want rate × TTL = %d (+ per-shard sweep slack)", n, window)
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
	// The next completion in each shard sweeps that shard's expired
	// burst: memory follows the live set, not the history.
	for i := 0; i < trickle; i++ {
		entomb(uint64(1+burst+trickle+i), late)
	}
	if n := tombstoneCount(t, &srv.tombstones); n != 2*trickle {
		t.Errorf("ledger holds %d tombstones after the burst expired, want %d", n, 2*trickle)
	}
}

// TestHelloNonceReservesOnce pins the guard against a second
// reservation: the nonce map, read under the server mutex in admit.
func TestHelloNonceReservesOnce(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	kit.hello.Nonce = 0x5EED5EED
	peak := kit.hello.PeakRate

	t.Run("concurrent-duplicates", func(t *testing.T) {
		const clients = 16
		// Room for every client: only the nonce can stop a second
		// reservation. The hellos go straight into admit at once, as if
		// all 16 had raced past handleHello's lock-free probe together
		// (over TCP the probe reattaches most of them before admit).
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
				hello := kit.hello
				<-start
				streams[c], verdicts[c], _ = srv.admit(conn,
					transport.NewFrameReader(conn), transport.NewFrameWriter(conn), &hello)
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
		if srv.nonces.get(kit.hello.Nonce) != nil {
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
		conn, _, v := kit.handshake(t, addr)
		defer conn.Close()
		if !v.IsAdmitted() {
			t.Fatalf("first hello: %+v", v)
		}
		changed := *kit
		changed.hello.PeakRate = 2 * peak
		reuse, _, v := changed.handshake(t, addr)
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
		waitFor(t, "reservation release", released)
		// The nonce died with its stream: reusing it now is a new stream.
		reuse, _, v = changed.handshake(t, addr)
		reuse.Close()
		if !v.IsAdmitted() {
			t.Errorf("nonce reused after its stream ended: verdict %v, want admitted", v.Code)
		}
		waitFor(t, "second reservation release", released)
	})
}
