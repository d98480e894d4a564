package cluster

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/server"
	"mpegsmooth/internal/soaktest"
	"mpegsmooth/internal/transport"
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
	addrs := soaktest.FreeAddrs(t, 2)
	peers := []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	trio := &quorumTrio{}
	for rank := 0; rank < 3; rank++ {
		dir := t.TempDir()
		cfg := nodeConfig("alpha", rank, peers, scfg, dir)
		cfg.Replicas = 2
		cfg.Quorum = 2
		cfg.Seed = seed*10 + int64(rank) + 1
		trio.nodes = append(trio.nodes, startNode(t, cfg))
		trio.dirs = append(trio.dirs, dir)
	}
	trio.addr = trio.nodes[0].StreamAddr()
	// The gate starts degraded (no followers yet); every test must see
	// the quorum actually form before disrupting anything, or the
	// guarantee under test is not yet in force.
	soaktest.WaitFor(t, "quorum formed", func() bool {
		st := trio.nodes[0].Status().Replication
		return st.ReplicasConnected == 2 && !st.QuorumDegraded
	}, report(trio.nodes...))
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
// client to finish, ending through soaktest.Check.
//
// The kill-primary schedule deliberately does NOT wait for the
// followers to catch up before the kill — and destroys the dead
// primary's journal directory. Recovery must come entirely from the
// quorum guarantee: any admission verdict a client holds was acked by
// rank 1 before it was released, so rank 1's replica alone must carry
// every acknowledged session. The check's one-admission-per-client
// promise is the acknowledged-then-forgotten check: a forgotten
// admission would force a re-admission on the survivor and overshoot
// the total.
func runQuorumChaos(t *testing.T, seed int64, clients int, schedule string) {
	kit := soaktest.NewKit(t, 240)
	scfg := server.Config{
		LinkRate:     float64(clients+1) * kit.Hello.PeakRate,
		ReadTimeout:  2 * time.Second,
		ResumeWindow: 30 * time.Second,
		TimeScale:    crashTimeScale,
	}
	trio := startQuorumTrio(t, scfg, seed)
	nodes := report(trio.nodes...)
	epoch0 := trio.nodes[0].Epoch()
	if epoch0 == 0 {
		t.Fatal("primary serving without a fencing epoch")
	}
	soak := soaktest.StartSoak(t, kit, clients, func(i int) *transport.ResumableSender {
		rs := kit.Resumable(trio.addr, seed*100+int64(i)+1)
		rs.Sender.TimeScale = crashTimeScale
		rs.MaxAttempts = 60
		return rs
	})

	// Gate the disruption: every client holds a delivered (quorum-acked)
	// admission verdict and at least one accepted picture.
	primary := trio.nodes[0].Server()
	soak.Underway(func() soaktest.Stats { return stats(t, primary) }, nodes)

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
	tally := soak.Wait()

	end := soaktest.End{Kit: kit, Clients: clients, AlreadyComplete: tally.AlreadyComplete}
	var survivor *Node
	if schedule == schedKillFollower {
		survivor, end.JournalDir = trio.nodes[0], trio.dirs[0]
		if survivor.Role() != RolePrimary {
			t.Fatal("primary lost its role when a follower died")
		}
	} else {
		if tally.Resumes < 1 {
			t.Fatal("no client resumed — the disruption never landed mid-stream")
		}
		// Rank 1 must be the promotion winner: it is the rank the quorum
		// guarantee deposited every acknowledged record on.
		soaktest.WaitFor(t, "rank 1 promoted", func() bool {
			return trio.nodes[1].Role() == RolePrimary
		}, nodes)
		survivor, end.JournalDir = trio.nodes[1], trio.dirs[1]
		end.Servers = append(end.Servers, stats(t, primary))
	}
	promoted := survivor.Server()
	if promoted == nil {
		t.Fatal("surviving primary has no server")
	}
	soaktest.WaitFor(t, "surviving server drained", func() bool {
		s := promoted.Snapshot()
		return s.Streams.Active == 0 && s.Streams.Parked == 0
	}, nodes)
	end.Servers = append(end.Servers, stats(t, promoted))

	if schedule == schedKillFollower {
		if st := survivor.Status().Replication; st.QuorumCommits == 0 {
			t.Error("no quorum commit after the follower kill — durability never rode rank 2")
		}
	} else {
		if promoted.Snapshot().Streams.Recovered < 1 {
			t.Error("the promoted follower recovered no stream from its replica — failover was cold")
		}
		if survivor.Epoch() <= epoch0 {
			t.Errorf("promoted epoch %d did not advance past the deposed primary's %d", survivor.Epoch(), epoch0)
		}
	}

	if schedule == schedPartitionHeal {
		// The deposed primary stood down instead of split-braining...
		if d := trio.nodes[0].Demotions(); d < 1 {
			t.Errorf("deposed primary demoted %d times, want >= 1", d)
		}
		// ...and after the heal it rejoins the shard as a follower of
		// the new primary, adopting the higher epoch via resync.
		trio.nodes[0].Heal()
		soaktest.WaitFor(t, "deposed primary re-attached as follower", func() bool {
			st := trio.nodes[0].Status()
			return st.Role == RoleFollower && st.Replication.Connected
		}, nodes)
		soaktest.WaitFor(t, "deposed primary adopted the new epoch", func() bool {
			return trio.nodes[0].Status().Replication.Epoch >= survivor.Epoch()
		}, nodes)
	}

	// The surviving primary's quorum re-forms from the remaining
	// followers, and readiness flips back with it.
	soaktest.WaitFor(t, "quorum re-formed on the survivor", func() bool {
		st := survivor.Status().Replication
		return st.ReplicasConnected >= 1 && !st.QuorumDegraded
	}, nodes)
	if code, body := opsGet(survivor, "/healthz"); code != 200 || !strings.Contains(body, `"role":"primary"`) {
		t.Errorf("survivor /healthz = %d %q, want 200 primary", code, body)
	}

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer shutCancel()
	if err := survivor.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutting down the surviving primary: %v", err)
	}
	soaktest.Check(t, end)
	j, err := journal.Open(journal.Config{Dir: end.JournalDir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
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
	kit := soaktest.NewKit(t, 54)
	scfg := server.Config{LinkRate: 2 * kit.Hello.PeakRate, TimeScale: soaktest.TimeScale, ResumeWindow: 10 * time.Second}
	trio := startQuorumTrio(t, scfg, 77)
	primary := trio.nodes[0]

	rs := kit.Resumable(trio.addr, 1)
	if _, err := rs.Stream(context.Background(), kit.Payloads); err != nil {
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
	soaktest.WaitFor(t, "acked cursors caught up", func() bool {
		for _, lag := range primary.Status().Replication.AckLagRecords {
			if lag != 0 {
				return false
			}
		}
		return true
	})

	// JSON shape: every quorum gauge is a stable key under
	// cluster.replication, asserted the same way as the lag gauges.
	_, body := opsGet(primary, "/stats")
	for _, key := range []string{
		`"epoch"`, `"replicas_configured"`, `"replicas_connected"`, `"quorum_configured"`,
		`"quorum_degraded"`, `"quorum_commits"`, `"local_commits"`, `"quorum_degraded_events"`,
		`"ack_timeouts"`, `"ack_lag_records"`, `"dial_retries"`, `"demotions"`,
	} {
		if !strings.Contains(body, key) {
			t.Errorf("primary /stats lacks %s", key)
		}
	}
	if code, body := opsGet(primary, "/healthz"); code != 200 {
		t.Errorf("primary /healthz = %d %q with the quorum formed", code, body)
	}

	// Both followers die: quorum 2 is impossible, the primary degrades —
	// still admitting on local durability, but loudly not-ready.
	trio.nodes[1].Kill()
	trio.nodes[2].Kill()
	soaktest.WaitFor(t, "quorum degraded after follower loss", func() bool {
		return primary.Status().Replication.QuorumDegraded
	})
	if code, body := opsGet(primary, "/healthz"); code != 503 ||
		!strings.Contains(body, `"reason":"quorum-degraded"`) {
		t.Errorf("degraded primary /healthz = %d %q, want 503 quorum-degraded", code, body)
	}
	// No wedge: a client admitted under the degraded gate still streams
	// to completion on local commits.
	rs = kit.Resumable(trio.addr, 2)
	if _, err := rs.Stream(context.Background(), kit.Payloads); err != nil {
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
	kit := soaktest.NewKit(b, 54)
	addrs := soaktest.FreeAddrs(b, 2)
	peers := []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	scfg := server.Config{LinkRate: float64(streams+1) * kit.Hello.PeakRate, TimeScale: 1e6, ResumeWindow: 10 * time.Second}
	var nodes [2]*Node
	for rank := range nodes {
		cfg := nodeConfig("alpha", rank, peers, scfg, b.TempDir())
		cfg.Replicas, cfg.Quorum, cfg.Seed = 1, quorum, int64(rank+1)
		cfg.Journal.FlushInterval = time.Millisecond
		nodes[rank] = startNode(b, cfg)
	}
	primary, follower := nodes[0], nodes[1]
	soaktest.WaitFor(b, "follower attached", func() bool {
		st := primary.Status().Replication
		if quorum >= 2 {
			return st.ReplicasConnected == 1 && !st.QuorumDegraded
		}
		return follower.Status().Replication.Connected
	})

	var streamBytes int64
	for _, p := range kit.Payloads {
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
				rs := kit.Resumable(primary.StreamAddr(), int64(i*streams+j)+1)
				rs.Sender.TimeScale = 1e6
				if _, err := rs.Stream(context.Background(), kit.Payloads); err != nil {
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
