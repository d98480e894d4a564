package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/server"
	"mpegsmooth/internal/transport"
)

// crashTimeScale stretches the schedule (relative to the other soaks)
// so the kill lands mid-stream rather than after the fact.
const crashTimeScale = 25

// failoverPair starts a primary/follower pair for one shard on fixed
// addresses and waits until the follower is attached and caught up
// enough to be a real warm standby.
type failoverPair struct {
	primary, follower *Node
	primaryDir        string
	followerDir       string
}

func startFailoverPair(t testing.TB, scfg server.Config) *failoverPair {
	t.Helper()
	addrs := freeAddrs(t, 2)
	peers := []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	p := &failoverPair{primaryDir: t.TempDir(), followerDir: t.TempDir()}
	pcfg := Config{Shard: "alpha", Rank: 0, Peers: peers, Server: scfg,
		Journal: journal.Config{Dir: p.primaryDir, FlushInterval: 5 * time.Millisecond}}
	fastTimings(&pcfg)
	p.primary = startNode(t, pcfg)
	fcfg := Config{Shard: "alpha", Rank: 1, Peers: peers, Server: scfg,
		Journal: journal.Config{Dir: p.followerDir, FlushInterval: 5 * time.Millisecond}}
	fastTimings(&fcfg)
	p.follower = startNode(t, fcfg)
	waitFor(t, "follower attached", func() bool {
		return p.follower.Status().Replication.Connected
	})
	return p
}

// killPrimary is the whole-process crash the failover exists for: the
// primary dies SIGKILL-style (journal abandoned, connections dropped,
// nothing drained) AND its journal directory is destroyed — recovery
// must come entirely from the follower's replica, never the dead
// node's disk.
func (p *failoverPair) killPrimary(t testing.TB) {
	t.Helper()
	p.primary.Kill()
	if err := os.RemoveAll(p.primaryDir); err != nil {
		t.Fatalf("destroying the dead primary's journal dir: %v", err)
	}
}

// runFailover drives `clients` resumable streams through the primary,
// kills it (process and journal dir) once every client is underway and
// the follower has replicated every admission, and requires every
// client to finish byte-exact through the promoted follower with
// exactly one admission each and no leaked reservations.
func runFailover(t *testing.T, seed int64, clients int, mode transport.IntegrityMode, key []byte) {
	kit := makeClient(t, testTrace(t, 240))
	scfg := server.Config{
		LinkRate:     float64(clients+1) * kit.hello.PeakRate,
		ReadTimeout:  2 * time.Second,
		ResumeWindow: 30 * time.Second,
		TimeScale:    crashTimeScale,
		Integrity:    mode,
		IntegrityKey: key,
	}
	pair := startFailoverPair(t, scfg)
	addr := pair.primary.StreamAddr()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		resumes  int
		already  int
		failures []error
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs := resumableClient(kit, addr, seed*100+int64(i)+1)
			rs.Sender.TimeScale = crashTimeScale
			rs.MaxAttempts = 60
			rs.Integrity = mode
			rs.Key = key
			res, err := rs.Stream(ctx, kit.payloads)
			mu.Lock()
			defer mu.Unlock()
			resumes += res.Resumes
			if res.AlreadyComplete {
				already++
			}
			if err != nil {
				failures = append(failures, fmt.Errorf("client %d: %w", i, err))
			}
		}(i)
	}

	// Gate the kill: every client must hold a delivered verdict and at
	// least one accepted picture (so no admission fsync is in flight),
	// and the follower must have replicated every admission with zero
	// record lag — the promotion has to work from the replica alone.
	waitFor(t, "all clients underway", func() bool {
		s := pair.primary.Server().Snapshot()
		if s.Streams.Admitted != int64(clients) || len(s.PerStream) != clients {
			return false
		}
		for _, ss := range s.PerStream {
			if ss.Pictures < 1 {
				return false
			}
		}
		return true
	})
	waitFor(t, "follower caught up", func() bool {
		st := pair.follower.Status().Replication
		return st.AppliedAdmits >= uint64(clients) && st.LagRecords == 0
	})
	primarySnap := pair.primary.Server().Snapshot()
	pair.killPrimary(t)

	wg.Wait()
	for _, err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if resumes < 1 {
		t.Fatal("no client resumed — the kill never landed mid-stream")
	}

	waitFor(t, "follower promoted", func() bool {
		return pair.follower.Role() == RolePrimary
	})
	promoted := pair.follower.Server()
	if promoted == nil {
		t.Fatal("promoted follower has no server")
	}
	waitFor(t, "promoted server drained", func() bool {
		s := promoted.Snapshot()
		return s.Streams.Active == 0 && s.Streams.Parked == 0
	})

	final := promoted.Snapshot()
	// Exactly one admission per client across the promotion: the
	// replicated ledger must rehydrate reservations, never re-admit.
	if total := primarySnap.Streams.Admitted + final.Streams.Admitted; total != int64(clients) {
		t.Errorf("admitted %d sessions across the failover for %d clients (primary %d + promoted %d)",
			total, clients, primarySnap.Streams.Admitted, final.Streams.Admitted)
	}
	if final.Streams.Recovered < 1 {
		t.Error("the promoted follower recovered no stream from its replica — failover was cold")
	}
	// Zero leaked reservations on the promoted follower.
	if final.ReservedPeak != 0 || final.AvailablePeak != final.CapacityBPS {
		t.Errorf("reservations leaked across promotion: reserved %v, available %v, capacity %v",
			final.ReservedPeak, final.AvailablePeak, final.CapacityBPS)
	}
	completed := primarySnap.Streams.Completed + final.Streams.Completed
	if completed+int64(already) < int64(clients) {
		t.Errorf("completions %d + already-complete %d < %d clients", completed, already, clients)
	}
	st := pair.follower.Status()
	if st.Promotions != 1 || st.LastPromotion.IsZero() {
		t.Errorf("promoted status %+v: want exactly one promotion with a timestamp", st)
	}
	// Readiness flipped with the role: the standby now answers ok.
	rec := httptest.NewRecorder()
	pair.follower.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"role":"primary"`) {
		t.Errorf("promoted /healthz = %d %q, want 200 primary", rec.Code, rec.Body.String())
	}

	// Durable ledger on the surviving node agrees: with every client
	// finished, no journaled stream (reservation) survives.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer shutCancel()
	if err := pair.follower.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutting down the promoted follower: %v", err)
	}
	j, err := journal.Open(journal.Config{Dir: pair.followerDir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := len(j.State().Streams); n != 0 {
		t.Errorf("%d streams still journaled on the promoted node after every client finished", n)
	}
}

// TestFailoverPromotionResume is the deterministic acceptance case: one
// client per integrity mode rides a primary kill (process + journal
// dir) through to byte-exact completion on the promoted follower. The
// HMAC variant additionally proves the keyed prefix chain survives
// replication and promotion mid-stream.
func TestFailoverPromotionResume(t *testing.T) {
	if testing.Short() {
		t.Skip("failover test skipped in -short mode")
	}
	t.Run("fnv", func(t *testing.T) {
		runFailover(t, 42, 1, transport.IntegrityFNV, nil)
	})
	t.Run("hmac", func(t *testing.T) {
		runFailover(t, 43, 1, transport.IntegrityHMAC, []byte("failover-test-shared-key"))
	})
}

// TestFailoverChaosSoak is the multi-seed acceptance soak: five
// resumable clients per seed, the whole primary process killed and its
// journal directory deleted mid-stream. Every client must finish
// byte-exact (the resume prefix-hash cross-check runs on every
// reconnect), exactly one admission per client across the promotion,
// zero leaked reservations on the promoted follower.
func TestFailoverChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("failover soak skipped in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runFailover(t, seed, 5, transport.IntegrityFNV, nil)
		})
	}
}
