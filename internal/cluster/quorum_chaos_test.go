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
)

// quorumTrio is the multi-follower chain under test: one primary
// (rank 0) and two followers (ranks 1 and 2) on one shard, configured
// for quorum-2 commits — every admission/completion verdict waits for
// the primary's fsync plus one follower ack.
type quorumTrio struct {
	nodes []*Node // indexed by rank
	dirs  []string
	addr  string // the shard's stream address
}

func startQuorumTrio(t testing.TB, scfg server.Config, seed int64) *quorumTrio {
	t.Helper()
	addrs := freeAddrs(t, 2)
	peers := []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	trio := &quorumTrio{}
	for rank := 0; rank < 3; rank++ {
		dir := t.TempDir()
		cfg := Config{Shard: "alpha", Rank: rank, Peers: peers, Server: scfg,
			Replicas: 2, Quorum: 2, Seed: seed*10 + int64(rank) + 1,
			Journal: journal.Config{Dir: dir, FlushInterval: 5 * time.Millisecond}}
		fastTimings(&cfg)
		trio.nodes = append(trio.nodes, startNode(t, cfg))
		trio.dirs = append(trio.dirs, dir)
	}
	trio.addr = trio.nodes[0].StreamAddr()
	// The gate starts degraded (no followers yet); every test must see
	// the quorum actually form before disrupting anything, or the
	// guarantee under test is not yet in force.
	waitFor(t, "quorum formed", func() bool {
		st := trio.nodes[0].Status().Replication
		return st.ReplicasConnected == 2 && !st.QuorumDegraded
	})
	return trio
}

// The three disruption schedules of the quorum chaos suite.
const (
	schedKillPrimary   = "kill-primary"
	schedKillFollower  = "kill-follower"
	schedPartitionHeal = "partition-heal"
)

// runQuorumChaos drives `clients` resumable streams through a quorum-2
// trio, disrupts it mid-stream per the schedule, and requires every
// client to finish byte-exact with exactly one admission each, zero
// acknowledged-then-forgotten records, and zero leaked reservations.
//
// The kill-primary schedule deliberately does NOT wait for the
// followers to catch up before the kill — and destroys the dead
// primary's journal directory. Recovery must come entirely from the
// quorum guarantee: any admission verdict a client holds was acked by
// rank 1 before it was released, so rank 1's replica alone must carry
// every acknowledged session. The exactly-one-admission assertion below
// is the acknowledged-then-forgotten check: a forgotten admission would
// force a re-admission on the survivor and overshoot the total.
func runQuorumChaos(t *testing.T, seed int64, clients int, schedule string) {
	kit := makeClient(t, testTrace(t, 240))
	scfg := server.Config{
		LinkRate:     float64(clients+1) * kit.hello.PeakRate,
		ReadTimeout:  2 * time.Second,
		ResumeWindow: 30 * time.Second,
		TimeScale:    crashTimeScale,
	}
	trio := startQuorumTrio(t, scfg, seed)
	epoch0 := trio.nodes[0].Epoch()
	if epoch0 == 0 {
		t.Fatal("primary serving without a fencing epoch")
	}

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
			rs := resumableClient(kit, trio.addr, seed*100+int64(i)+1)
			rs.Sender.TimeScale = crashTimeScale
			rs.MaxAttempts = 60
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

	// Gate the disruption: every client holds a delivered (quorum-acked)
	// admission verdict and at least one accepted picture, so it lands
	// mid-stream with no admission fsync in flight.
	waitFor(t, "all clients underway", func() bool {
		s := trio.nodes[0].Server().Snapshot()
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
	primarySnap := trio.nodes[0].Server().Snapshot()

	switch schedule {
	case schedKillPrimary:
		trio.nodes[0].Kill()
		if err := os.RemoveAll(trio.dirs[0]); err != nil {
			t.Fatalf("destroying the dead primary's journal dir: %v", err)
		}
	case schedKillFollower:
		// The quorum-carrying rank dies; durability must ride rank 2
		// with no degrade (one follower still satisfies quorum 2) and,
		// above all, no wedged admissions.
		trio.nodes[1].Kill()
		if err := os.RemoveAll(trio.dirs[1]); err != nil {
			t.Fatalf("destroying the dead follower's journal dir: %v", err)
		}
	case schedPartitionHeal:
		// The primary is isolated, NOT killed: the deposed-primary case
		// epoch fencing exists for. It demotes itself (it cannot prove
		// authority), rank 1 promotes under a higher epoch, and the old
		// primary rejoins as a follower after the heal.
		trio.nodes[0].Partition()
	default:
		t.Fatalf("unknown schedule %q", schedule)
	}

	wg.Wait()
	for _, err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	var survivor *Node
	if schedule == schedKillFollower {
		survivor = trio.nodes[0]
		if survivor.Role() != RolePrimary {
			t.Fatal("primary lost its role when a follower died")
		}
	} else {
		if resumes < 1 {
			t.Fatal("no client resumed — the disruption never landed mid-stream")
		}
		// Rank 1 must be the promotion winner: it is the rank the quorum
		// guarantee deposited every acknowledged record on.
		waitFor(t, "rank 1 promoted", func() bool {
			return trio.nodes[1].Role() == RolePrimary
		})
		survivor = trio.nodes[1]
	}
	promoted := survivor.Server()
	if promoted == nil {
		t.Fatal("surviving primary has no server")
	}
	waitFor(t, "surviving server drained", func() bool {
		s := promoted.Snapshot()
		return s.Streams.Active == 0 && s.Streams.Parked == 0
	})

	final := promoted.Snapshot()
	if schedule == schedKillFollower {
		if final.Streams.Admitted != int64(clients) {
			t.Errorf("admitted %d sessions for %d clients", final.Streams.Admitted, clients)
		}
		if final.Streams.Completed+int64(already) < int64(clients) {
			t.Errorf("completions %d + already-complete %d < %d clients", final.Streams.Completed, already, clients)
		}
		if st := survivor.Status().Replication; st.QuorumCommits == 0 {
			t.Error("no quorum commit after the follower kill — durability never rode rank 2")
		}
	} else {
		// Exactly one admission per client across the promotion — the
		// zero-acknowledged-then-forgotten assertion.
		if total := primarySnap.Streams.Admitted + final.Streams.Admitted; total != int64(clients) {
			t.Errorf("admitted %d sessions across the failover for %d clients (primary %d + promoted %d)",
				total, clients, primarySnap.Streams.Admitted, final.Streams.Admitted)
		}
		if final.Streams.Recovered < 1 {
			t.Error("the promoted follower recovered no stream from its replica — failover was cold")
		}
		completed := primarySnap.Streams.Completed + final.Streams.Completed
		if completed+int64(already) < int64(clients) {
			t.Errorf("completions %d + already-complete %d < %d clients", completed, already, clients)
		}
		if survivor.Epoch() <= epoch0 {
			t.Errorf("promoted epoch %d did not advance past the deposed primary's %d", survivor.Epoch(), epoch0)
		}
	}
	// Zero leaked reservations on the survivor.
	if final.ReservedPeak != 0 || final.AvailablePeak != final.CapacityBPS {
		t.Errorf("reservations leaked: reserved %v, available %v, capacity %v",
			final.ReservedPeak, final.AvailablePeak, final.CapacityBPS)
	}

	if schedule == schedPartitionHeal {
		// The deposed primary stood down instead of split-braining...
		if d := trio.nodes[0].Demotions(); d < 1 {
			t.Errorf("deposed primary demoted %d times, want >= 1", d)
		}
		// ...and after the heal it rejoins the shard as a follower of
		// the new primary, adopting the higher epoch via resync.
		trio.nodes[0].Heal()
		waitFor(t, "deposed primary re-attached as follower", func() bool {
			st := trio.nodes[0].Status()
			return st.Role == RoleFollower && st.Replication.Connected
		})
		waitFor(t, "deposed primary adopted the new epoch", func() bool {
			return trio.nodes[0].Status().Replication.Epoch >= survivor.Epoch()
		})
	}

	// The surviving primary's quorum re-forms from the remaining
	// followers, and readiness flips back with it.
	waitFor(t, "quorum re-formed on the survivor", func() bool {
		st := survivor.Status().Replication
		return st.ReplicasConnected >= 1 && !st.QuorumDegraded
	})
	rec := httptest.NewRecorder()
	survivor.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"role":"primary"`) {
		t.Errorf("survivor /healthz = %d %q, want 200 primary", rec.Code, rec.Body.String())
	}

	// Durable ledger agreement: with every client finished, no journaled
	// stream (reservation) survives on the surviving primary's disk.
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer shutCancel()
	survivorDir := trio.dirs[1]
	if schedule == schedKillFollower {
		survivorDir = trio.dirs[0]
	}
	if err := survivor.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutting down the surviving primary: %v", err)
	}
	j, err := journal.Open(journal.Config{Dir: survivorDir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := len(j.State().Streams); n != 0 {
		t.Errorf("%d streams still journaled on the survivor after every client finished", n)
	}
	if e := j.Epoch(); e == 0 {
		t.Error("survivor journal carries no fencing epoch")
	}
}

// TestQuorumKillPrimary: the primary process dies and its journal
// directory is destroyed with NO follower catch-up gate — the quorum
// ack-hold alone must guarantee rank 1 carries every acknowledged
// admission through the promotion.
func TestQuorumKillPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("quorum chaos skipped in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runQuorumChaos(t, seed, 4, schedKillPrimary)
		})
	}
}

// TestQuorumKillFollower: the quorum-carrying follower dies mid-stream.
// A sick standby may slow durability but must never wedge admission —
// commits ride the next rank and every client still finishes.
func TestQuorumKillFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("quorum chaos skipped in -short mode")
	}
	for _, seed := range []int64{4, 5, 6} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runQuorumChaos(t, seed, 4, schedKillFollower)
		})
	}
}

// TestQuorumPartitionHeal: the primary is partitioned (isolated, not
// killed), rank 1 promotes under a higher epoch, and the deposed
// primary demotes and rejoins as a follower after the heal — the epoch
// fencing acceptance case.
func TestQuorumPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("quorum chaos skipped in -short mode")
	}
	for _, seed := range []int64{7, 8, 9} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runQuorumChaos(t, seed, 4, schedPartitionHeal)
		})
	}
}

// TestQuorumStatsSurface pins the ops satellite: the primary's /stats
// (and the smoothd_cluster expvar mirror) expose the quorum state —
// configured/connected replicas, per-follower acked-cursor lag, the
// epoch, and the degrade counters — and /healthz flips loudly to
// not-ready/quorum-degraded when the followers fall away.
func TestQuorumStatsSurface(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	scfg := server.Config{LinkRate: 2 * kit.hello.PeakRate, TimeScale: soakTimeScale, ResumeWindow: 10 * time.Second}
	trio := startQuorumTrio(t, scfg, 77)
	primary := trio.nodes[0]

	rs := resumableClient(kit, trio.addr, 1)
	if _, err := rs.Stream(context.Background(), kit.payloads); err != nil {
		t.Fatalf("stream through quorum primary: %v", err)
	}

	st := primary.Status().Replication
	if st.Epoch == 0 || st.ReplicasConfigured != 2 || st.QuorumConfigured != 2 || st.ReplicasConnected != 2 {
		t.Errorf("quorum status %+v: want epoch > 0, 2 replicas configured+connected, quorum 2", st)
	}
	if st.QuorumCommits == 0 {
		t.Errorf("quorum status %+v: a completed stream produced no quorum commit", st)
	}
	if len(st.AckLagRecords) != 2 {
		t.Errorf("ack lag gauge has %d followers, want 2: %v", len(st.AckLagRecords), st.AckLagRecords)
	}
	waitFor(t, "acked cursors caught up", func() bool {
		for _, lag := range primary.Status().Replication.AckLagRecords {
			if lag != 0 {
				return false
			}
		}
		return true
	})

	// JSON shape: every quorum gauge is a stable key under
	// cluster.replication, asserted the same way as the lag gauges.
	get := func(n *Node, path string) (int, string) {
		rec := httptest.NewRecorder()
		n.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	_, body := get(primary, "/stats")
	for _, key := range []string{
		`"epoch"`, `"replicas_configured"`, `"replicas_connected"`, `"quorum_configured"`,
		`"quorum_degraded"`, `"quorum_commits"`, `"local_commits"`, `"quorum_degraded_events"`,
		`"ack_timeouts"`, `"ack_lag_records"`, `"dial_retries"`, `"demotions"`,
	} {
		if !strings.Contains(body, key) {
			t.Errorf("primary /stats lacks %s", key)
		}
	}
	if code, body := get(primary, "/healthz"); code != 200 {
		t.Errorf("primary /healthz = %d %q with the quorum formed", code, body)
	}

	// Both followers die: quorum 2 is impossible, the primary degrades —
	// still admitting on local durability, but loudly not-ready.
	trio.nodes[1].Kill()
	trio.nodes[2].Kill()
	waitFor(t, "quorum degraded after follower loss", func() bool {
		return primary.Status().Replication.QuorumDegraded
	})
	if code, body := get(primary, "/healthz"); code != 503 ||
		!strings.Contains(body, `"reason":"quorum-degraded"`) {
		t.Errorf("degraded primary /healthz = %d %q, want 503 quorum-degraded", code, body)
	}
	// No wedge: a client admitted under the degraded gate still streams
	// to completion on local commits.
	rs = resumableClient(kit, trio.addr, 2)
	if _, err := rs.Stream(context.Background(), kit.payloads); err != nil {
		t.Fatalf("stream through degraded primary: %v", err)
	}
	st = primary.Status().Replication
	if st.DegradedEvents < 1 || st.LocalCommits == 0 {
		t.Errorf("degraded counters %+v: want a degraded event and local commits", st)
	}
}

// benchClusterIngest is the quorum variant of the server package's
// BenchmarkServerIngestJournal: same journal-first commit path, but
// over real TCP through a cluster primary, with the verdict ack-hold
// measured against a live follower chain.
func benchClusterIngest(b *testing.B, quorum int) {
	const streams = 4
	kit := makeClient(b, testTrace(b, 54))
	addrs := freeAddrs(b, 2)
	peers := []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	scfg := server.Config{LinkRate: float64(streams+1) * kit.hello.PeakRate, TimeScale: 1e6, ResumeWindow: 10 * time.Second}
	pcfg := Config{Shard: "alpha", Rank: 0, Peers: peers, Server: scfg,
		Replicas: 1, Quorum: quorum, Seed: 1,
		Journal: journal.Config{Dir: b.TempDir(), FlushInterval: time.Millisecond}}
	fastTimings(&pcfg)
	primary := startNode(b, pcfg)
	fcfg := Config{Shard: "alpha", Rank: 1, Peers: peers, Server: scfg,
		Replicas: 1, Quorum: quorum, Seed: 2,
		Journal: journal.Config{Dir: b.TempDir(), FlushInterval: time.Millisecond}}
	fastTimings(&fcfg)
	follower := startNode(b, fcfg)
	waitFor(b, "follower attached", func() bool {
		st := primary.Status().Replication
		if quorum >= 2 {
			return st.ReplicasConnected == 1 && !st.QuorumDegraded
		}
		return follower.Status().Replication.Connected
	})

	var streamBytes int64
	for _, p := range kit.payloads {
		streamBytes += int64(len(p))
	}
	b.SetBytes(streams * streamBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < streams; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				rs := resumableClient(kit, primary.StreamAddr(), int64(i*streams+j)+1)
				rs.Sender.TimeScale = 1e6
				if _, err := rs.Stream(context.Background(), kit.payloads); err != nil {
					b.Error(err)
				}
			}(j)
		}
		wg.Wait()
	}
	b.StopTimer()
}

// BenchmarkClusterIngestQuorum records the ack-hold overhead: "local"
// is the journal-first path with quorum gating off, "quorum2" holds
// every verdict for a follower ack over the same loopback link.
func BenchmarkClusterIngestQuorum(b *testing.B) {
	b.Run("local", func(b *testing.B) { benchClusterIngest(b, 0) })
	b.Run("quorum2", func(b *testing.B) { benchClusterIngest(b, 2) })
}
