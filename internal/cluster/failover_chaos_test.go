package cluster

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mpegsmooth/internal/server"
	"mpegsmooth/internal/soaktest"
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
	addrs := soaktest.FreeAddrs(t, 2)
	peers := []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	p := &failoverPair{primaryDir: t.TempDir(), followerDir: t.TempDir()}
	p.primary = startNode(t, nodeConfig("alpha", 0, peers, scfg, p.primaryDir))
	p.follower = startNode(t, nodeConfig("alpha", 1, peers, scfg, p.followerDir))
	soaktest.WaitFor(t, "follower attached", func() bool {
		return p.follower.Status().Replication.Connected
	}, report(p.primary, p.follower))
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
// client to finish through the promoted follower, ending through
// soaktest.Check.
func runFailover(t *testing.T, seed int64, clients int, mode transport.IntegrityMode, key []byte) {
	kit := soaktest.NewKit(t, 240)
	kit.Hello.Integrity, kit.Key = mode, key
	scfg := server.Config{
		LinkRate:     float64(clients+1) * kit.Hello.PeakRate,
		ReadTimeout:  2 * time.Second,
		ResumeWindow: 30 * time.Second,
		TimeScale:    crashTimeScale,
		Integrity:    mode,
		IntegrityKey: key,
	}
	pair := startFailoverPair(t, scfg)
	nodes := report(pair.primary, pair.follower)
	addr := pair.primary.StreamAddr()
	soak := soaktest.StartSoak(t, kit, clients, func(i int) *transport.ResumableSender {
		rs := kit.Resumable(addr, seed*100+int64(i)+1)
		rs.Sender.TimeScale = crashTimeScale
		rs.MaxAttempts = 60
		return rs
	})

	// Gate the kill: every client is underway, and the follower has
	// replicated every admission with zero record lag — the promotion has
	// to work from the replica alone.
	primary := pair.primary.Server()
	soak.Underway(func() soaktest.Stats { return stats(t, primary) }, nodes)
	soaktest.WaitFor(t, "follower caught up", func() bool {
		st := pair.follower.Status().Replication
		return st.AppliedAdmits >= uint64(clients) && st.LagRecords == 0
	}, nodes)
	pair.killPrimary(t)
	tally := soak.Wait()
	if tally.Resumes < 1 {
		t.Fatal("no client resumed — the kill never landed mid-stream")
	}

	soaktest.WaitFor(t, "follower promoted", func() bool {
		return pair.follower.Role() == RolePrimary
	}, nodes)
	promoted := pair.follower.Server()
	if promoted == nil {
		t.Fatal("promoted follower has no server")
	}
	soaktest.WaitFor(t, "promoted server drained", func() bool {
		s := promoted.Snapshot()
		return s.Streams.Active == 0 && s.Streams.Parked == 0
	}, nodes)
	// The replicated ledger must rehydrate reservations, never re-admit.
	end := soaktest.End{Kit: kit, Clients: clients, AlreadyComplete: tally.AlreadyComplete,
		Servers: []soaktest.Stats{stats(t, primary), stats(t, promoted)}, JournalDir: pair.followerDir}
	if promoted.Snapshot().Streams.Recovered < 1 {
		t.Error("the promoted follower recovered no stream from its replica — failover was cold")
	}
	st := pair.follower.Status()
	if st.Promotions != 1 || st.LastPromotion.IsZero() {
		t.Errorf("promoted status %+v: want exactly one promotion with a timestamp", st)
	}
	// Readiness flipped with the role: the standby now answers ok.
	if code, body := opsGet(pair.follower, "/healthz"); code != 200 || !strings.Contains(body, `"role":"primary"`) {
		t.Errorf("promoted /healthz = %d %q, want 200 primary", code, body)
	}

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer shutCancel()
	if err := pair.follower.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutting down the promoted follower: %v", err)
	}
	soaktest.Check(t, end)
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
