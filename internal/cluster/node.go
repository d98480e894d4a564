package cluster

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/server"
)

// Role is a node's current position in its shard.
type Role string

const (
	RolePrimary  Role = "primary"
	RoleFollower Role = "follower"
)

// Peer names one shard of the fleet: the address its primary serves
// streams on and the address it replicates its journal from. Every node
// in the fleet is configured with the same peer list; a shard's
// followers share the shard's addresses and take them over on
// promotion.
type Peer struct {
	Name       string
	StreamAddr string
	ReplAddr   string
}

// Config describes one cluster node.
type Config struct {
	// Shard is this node's shard name; it must appear in Peers.
	Shard string
	// Rank orders a shard's nodes: rank 0 starts as the primary, ranks
	// 1.. are followers whose promotion attempts stagger by rank so the
	// lowest surviving rank wins the listen-port race.
	Rank int
	// Peers lists every shard in the fleet (including this node's own).
	Peers []Peer
	// Journal configures this node's own journal — the primary's
	// authoritative log, or the follower's warm standby replica.
	Journal journal.Config
	// Server is the template for the stream server this node runs when
	// primary; Journal, Route, and OwnsToken are injected by the node.
	Server server.Config
	// HeartbeatInterval paces the primary's replication heartbeats
	// (default 250ms). FailoverTimeout is how long a follower tolerates
	// silence before concluding the primary is dead (default 2s); half
	// of it separates the ranks' promotion attempts. DialTimeout bounds
	// replication dials (default 1s).
	HeartbeatInterval time.Duration
	FailoverTimeout   time.Duration
	DialTimeout       time.Duration
	// Replicas is the number of followers this shard is configured with
	// — the replication factor beyond the primary (default 1). It
	// bounds Quorum and is reported in /stats.
	Replicas int
	// Quorum is how many replicas (primary included) must have fsynced
	// a record before its admission or completion verdict is released:
	// 2 means primary + 1 follower. 0 or 1 disables quorum gating —
	// verdicts release on the primary's fsync alone, as before. Must
	// not exceed Replicas+1.
	Quorum int
	// AckTimeout is the per-record deadline for gathering follower acks
	// before the primary degrades to local-quorum commits (default
	// FailoverTimeout/2). More than ackWindow unacked in-flight records
	// trigger the same degrade.
	AckTimeout time.Duration
	// Seed fixes the node's randomness — promotion-stagger jitter and
	// replication dial backoff — for deterministic tests; 0 draws from
	// the global source.
	Seed int64
	Logf func(format string, args ...any)
}

// Node is one smoothd process in a cluster: a shard primary serving
// streams and publishing its journal, or a warm-standby follower
// replaying that feed and ready to promote.
type Node struct {
	cfg    Config
	ring   *Ring
	self   Peer
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu            sync.Mutex
	role          Role
	srv           *server.Server
	jrnl          *journal.Journal
	streamLn      net.Listener
	replLn        net.Listener
	replConn      net.Conn
	quorum        *quorumTracker
	followerConns map[net.Conn]struct{}
	promotions    int64
	lastPromotion time.Time
	serveErr      error
	stopped       bool

	heard     atomic.Int64 // unix nanos of the last replication frame
	connected atomic.Bool
	// isolated simulates a network partition: while set, this node's
	// injected listens and dials fail, so it can neither serve nor
	// reach its peers — but the process stays alive, which is exactly
	// the deposed-primary scenario epoch fencing exists for.
	isolated atomic.Bool
	// epoch is the fencing term this node last served as primary under
	// (stamped into every replication cursor and server verdict).
	epoch atomic.Uint64

	followers     int64 // attached followers (primary)
	followerDrops int64
	dialRetries   int64 // failed replication dial attempts (follower)
	demotions     int64

	// rng drives promotion-stagger jitter and dial backoff. It is only
	// touched from the node's single follower goroutine.
	rng *rand.Rand

	repl replState
}

// errIsolated is what the partition simulation injects for every
// network operation of an isolated node.
var errIsolated = errors.New("cluster: node is partitioned (simulated)")

// replState tracks the follower's replication cursor against the
// primary's.
type replState struct {
	mu           sync.Mutex
	primary      journal.Offsets // primary's cursor as of the last frame
	base         uint64          // records covered by the last snapshot
	baseBytes    uint64
	baseSegment  uint64 // primary segment the last snapshot came from
	applied      uint64 // records replayed since the snapshot
	appliedBytes uint64
	admits       uint64 // admit records replayed since the snapshot
	heartbeats   int64
	resyncs      int64
}

func (r *replState) resync(cursor journal.Offsets) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.primary = cursor
	r.base, r.baseBytes, r.baseSegment = cursor.Records, cursor.Bytes, cursor.SegmentSeq
	r.applied, r.appliedBytes, r.admits = 0, 0, 0
	r.resyncs++
}

// recordApplied notes one replayed record against the cursor the
// primary sent with it.
func (r *replState) recordApplied(cursor journal.Offsets, kind byte, size int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.primary = cursor
	r.applied++
	r.appliedBytes += uint64(size)
	if kind == journal.KindAdmit {
		r.admits++
	}
}

func (r *replState) heartbeat(cursor journal.Offsets) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.primary = cursor
	r.heartbeats++
}

// cursorSeq is the cumulative primary publish sequence this follower
// has durably applied — the value its replication acks carry. It is
// exact, not approximate: the feed is in-order and gap-free (a dropped
// subscriber resyncs from a snapshot, which resets the base).
func (r *replState) cursorSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.base + r.applied
}

// ReplStatus is the replication side of a node's Status: the primary
// reports its publish cursor and attached followers, a follower reports
// how far behind the primary's last-heard cursor it is.
type ReplStatus struct {
	Connected        bool   `json:"connected"`
	Followers        int64  `json:"followers"`
	FollowerDrops    int64  `json:"follower_drops"`
	PublishedRecords uint64 `json:"published_records"`
	PublishedBytes   uint64 `json:"published_bytes"`
	AppliedRecords   uint64 `json:"applied_records"`
	AppliedAdmits    uint64 `json:"applied_admits"`
	LagRecords       uint64 `json:"lag_records"`
	LagBytes         uint64 `json:"lag_bytes"`
	LagSegments      uint64 `json:"lag_segments"`
	Heartbeats       int64  `json:"heartbeats"`
	Resyncs          int64  `json:"resyncs"`
	DialRetries      int64  `json:"dial_retries"`
	// Quorum state (primary): configured/connected replicas, the
	// per-follower acked-cursor lag against the publish cursor, and the
	// degrade counters. ReplicasConfigured is reported even when quorum
	// gating is off; the rest are meaningful with Quorum >= 2.
	Epoch              uint64            `json:"epoch"`
	ReplicasConfigured int               `json:"replicas_configured"`
	ReplicasConnected  int               `json:"replicas_connected"`
	QuorumConfigured   int               `json:"quorum_configured"`
	QuorumDegraded     bool              `json:"quorum_degraded"`
	QuorumCommits      int64             `json:"quorum_commits"`
	LocalCommits       int64             `json:"local_commits"`
	DegradedEvents     int64             `json:"quorum_degraded_events"`
	AckTimeouts        int64             `json:"ack_timeouts"`
	AckLagRecords      map[string]uint64 `json:"ack_lag_records,omitempty"`
	Demotions          int64             `json:"demotions"`
}

// Status is the cluster-level ops view of one node.
type Status struct {
	Shard         string     `json:"shard"`
	Role          Role       `json:"role"`
	Rank          int        `json:"rank"`
	Promotions    int64      `json:"promotions"`
	LastPromotion time.Time  `json:"last_promotion"`
	Ring          []string   `json:"ring"`
	Replication   ReplStatus `json:"replication"`
}

// Snapshot is the full /stats document a cluster node serves: the
// cluster status plus, on a primary, the embedded server snapshot.
type Snapshot struct {
	Cluster Status           `json:"cluster"`
	Server  *server.Snapshot `json:"server,omitempty"`
}

// activeNode backs the process-wide "smoothd_cluster" expvar,
// mirroring the server package's "smoothd" var.
var (
	activeNode     atomic.Pointer[Node]
	nodeExpvarOnce sync.Once
)

// New validates the configuration and builds the node. Start launches
// it.
func New(cfg Config) (*Node, error) {
	if cfg.Shard == "" {
		return nil, fmt.Errorf("cluster: config needs a shard name")
	}
	var self Peer
	names := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		names = append(names, p.Name)
		if p.Name == cfg.Shard {
			self = p
		}
	}
	if self.Name == "" {
		return nil, fmt.Errorf("cluster: shard %q is not in the peer list", cfg.Shard)
	}
	if self.StreamAddr == "" || self.ReplAddr == "" {
		return nil, fmt.Errorf("cluster: shard %q needs stream and replication addresses", cfg.Shard)
	}
	if cfg.Rank < 0 {
		return nil, fmt.Errorf("cluster: negative rank %d", cfg.Rank)
	}
	ring, err := NewRing(names, DefaultVnodes)
	if err != nil {
		return nil, err
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 250 * time.Millisecond
	}
	if cfg.FailoverTimeout <= 0 {
		cfg.FailoverTimeout = 2 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Quorum < 0 {
		return nil, fmt.Errorf("cluster: negative quorum %d", cfg.Quorum)
	}
	if cfg.Quorum > cfg.Replicas+1 {
		return nil, fmt.Errorf("cluster: quorum %d needs more than the %d configured replicas plus the primary",
			cfg.Quorum, cfg.Replicas)
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = cfg.FailoverTimeout / 2
	}
	// A primary that dies must leave its parked reservations resumable
	// on the promoted follower; a zero resume window would expire them
	// at recovery. Default it rather than fail silently.
	if cfg.Server.ResumeWindow <= 0 {
		cfg.Server.ResumeWindow = 10 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:           cfg,
		ring:          ring,
		self:          self,
		ctx:           ctx,
		cancel:        cancel,
		role:          RoleFollower,
		followerConns: map[net.Conn]struct{}{},
		rng:           rand.New(rand.NewSource(seed)),
	}
	activeNode.Store(n)
	nodeExpvarOnce.Do(func() {
		expvar.Publish("smoothd_cluster", expvar.Func(func() any {
			if node := activeNode.Load(); node != nil {
				return node.Status()
			}
			return nil
		}))
	})
	return n, nil
}

// Start launches the node in its configured role: rank 0 opens the
// journal and serves immediately as primary; higher ranks open a
// standby journal and follow the shard's replication feed.
func (n *Node) Start() error {
	if n.cfg.Rank == 0 {
		return n.startPrimary()
	}
	jrnl, err := journal.Open(n.cfg.Journal)
	if err != nil {
		return fmt.Errorf("cluster: standby journal: %w", err)
	}
	n.mu.Lock()
	n.jrnl = jrnl
	n.mu.Unlock()
	n.logf("cluster: %s following %s", n.id(), n.self.ReplAddr)
	n.wg.Add(1)
	go n.followLoop()
	return nil
}

func (n *Node) startPrimary() error {
	jrnl, err := journal.Open(n.cfg.Journal)
	if err != nil {
		return fmt.Errorf("cluster: journal: %w", err)
	}
	epoch, gate, err := n.beginEpoch(jrnl)
	if err != nil {
		jrnl.Close()
		return err
	}
	srv, err := server.New(n.serverConfig(jrnl, epoch, gate))
	if err != nil {
		jrnl.Close()
		return err
	}
	ln, err := n.listenTCP(n.self.StreamAddr)
	if err != nil {
		srv.Kill()
		return fmt.Errorf("cluster: stream listener: %w", err)
	}
	replLn, err := n.listenTCP(n.self.ReplAddr)
	if err != nil {
		srv.Kill()
		ln.Close()
		return fmt.Errorf("cluster: replication listener: %w", err)
	}
	n.adoptPrimary(srv, jrnl, ln, replLn, epoch, gate)
	n.logf("cluster: %s serving as primary on %s (replication on %s, epoch %d)",
		n.id(), ln.Addr(), replLn.Addr(), epoch)
	return nil
}

// beginEpoch opens a new primary term: the successor epoch is fsynced
// into the journal before anything is served under it, so this node can
// never forget it was (or failed to stay) the term's primary. The
// returned gate is the quorum tracker for the term, nil when quorum
// gating is disabled.
func (n *Node) beginEpoch(jrnl *journal.Journal) (uint64, *quorumTracker, error) {
	epoch := jrnl.Epoch() + 1
	if _, err := jrnl.AppendEpoch(epoch); err != nil {
		return 0, nil, fmt.Errorf("cluster: fencing epoch %d not journalable: %w", epoch, err)
	}
	var gate *quorumTracker
	if n.cfg.Quorum >= 2 {
		gate = newQuorumTracker(n.cfg.Quorum-1, ackWindow, n.cfg.AckTimeout, n.cfg.Logf)
	}
	return epoch, gate, nil
}

// adoptPrimary installs the server and listeners and spawns the serve
// and publish loops; it is the single transition into the primary role.
func (n *Node) adoptPrimary(srv *server.Server, jrnl *journal.Journal, ln, replLn net.Listener, epoch uint64, gate *quorumTracker) {
	n.epoch.Store(epoch)
	n.mu.Lock()
	n.role = RolePrimary
	n.srv = srv
	n.jrnl = jrnl
	n.streamLn = ln
	n.replLn = replLn
	n.quorum = gate
	n.mu.Unlock()
	n.wg.Add(2)
	go func() {
		defer n.wg.Done()
		if err := srv.Serve(ln); err != nil {
			n.mu.Lock()
			n.serveErr = err
			n.mu.Unlock()
		}
	}()
	go func() {
		defer n.wg.Done()
		n.publishLoop(replLn, jrnl)
	}()
}

// tryPromote runs the follower's election protocol once the primary has
// been silent past FailoverTimeout. Ranks stagger their attempts — with
// seeded jitter on top of the rank term, so two followers whose clocks
// detected the silence in the same instant still cannot race the
// port-bind election in lockstep; after the stagger, a probe of the
// shard's replication address detects an already-promoted peer. The
// real lock is the OS: whoever binds the shard's stream address is the
// new primary. Returns true when this node promoted.
func (n *Node) tryPromote() bool {
	step := n.cfg.FailoverTimeout / 2
	stagger := time.Duration(n.cfg.Rank-1) * step
	if jitter := step / 2; jitter > 0 {
		stagger += time.Duration(n.rng.Int63n(int64(jitter)))
	}
	if stagger > 0 {
		if !n.sleep(stagger) {
			return false
		}
		if c, err := n.dialTCP(n.self.ReplAddr); err == nil {
			// A lower rank already promoted; go back to following it.
			c.Close()
			n.noteHeard()
			return false
		}
	}
	deadline := time.Now().Add(n.cfg.FailoverTimeout)
	var ln net.Listener
	for {
		var err error
		ln, err = n.listenTCP(n.self.StreamAddr)
		if err == nil {
			break
		}
		if n.ctx.Err() != nil {
			return false
		}
		if time.Now().After(deadline) {
			// Lost the bind race — someone else owns the address now.
			n.noteHeard()
			return false
		}
		n.sleep(20 * time.Millisecond)
	}
	if err := n.promote(ln); err != nil {
		ln.Close()
		n.logf("cluster: %s: promotion failed: %v", n.id(), err)
		n.noteHeard()
		return false
	}
	return true
}

// promote turns the warm standby into the shard primary: flush and
// close the standby journal, re-open it authoritatively (which compacts
// and replays it), build a server on top — recovery parks every
// journaled stream at its replicated watermark — and take over the
// shard's addresses.
func (n *Node) promote(ln net.Listener) error {
	n.logf("cluster: %s promoting: primary silent for %v", n.id(), time.Since(n.lastHeard()).Round(time.Millisecond))
	n.mu.Lock()
	standby := n.jrnl
	n.jrnl = nil
	n.mu.Unlock()
	if standby != nil {
		if err := standby.Close(); err != nil {
			n.logf("cluster: %s: closing standby journal: %v", n.id(), err)
		}
	}
	jrnl, err := journal.Open(n.cfg.Journal)
	if err != nil {
		return fmt.Errorf("re-opening journal: %w", err)
	}
	epoch, gate, err := n.beginEpoch(jrnl)
	if err != nil {
		jrnl.Close()
		return err
	}
	srv, err := server.New(n.serverConfig(jrnl, epoch, gate))
	if err != nil {
		jrnl.Close()
		return err
	}
	var replLn net.Listener
	deadline := time.Now().Add(n.cfg.FailoverTimeout)
	for {
		replLn, err = n.listenTCP(n.self.ReplAddr)
		if err == nil {
			break
		}
		if n.ctx.Err() != nil || time.Now().After(deadline) {
			srv.Kill()
			return fmt.Errorf("replication listener: %w", err)
		}
		n.sleep(20 * time.Millisecond)
	}
	n.mu.Lock()
	n.promotions++
	n.lastPromotion = time.Now()
	n.mu.Unlock()
	n.adoptPrimary(srv, jrnl, ln, replLn, epoch, gate)
	snap := srv.Snapshot()
	n.logf("cluster: %s promoted to primary on %s at epoch %d (%d streams recovered, %d tombstones)",
		n.id(), ln.Addr(), epoch, snap.Streams.Recovered, snap.Streams.RecoveredTombstones)
	return nil
}

// demote is the reverse transition: a primary that has learned it was
// deposed — a follower or ack arrived carrying a higher epoch, or the
// partition simulation isolated it — stands down instead of
// split-braining. The serving state is torn down crash-style (the
// journal keeps exactly what fsync guaranteed; active client streams
// are severed and will resume against the rightful primary), the
// journal reopens as a warm standby, and the node rejoins the shard as
// a follower: the ordinary election machinery then decides whether it
// re-attaches to the new primary or — if nobody actually promoted —
// wins the next election itself.
func (n *Node) demote(reason string) {
	n.mu.Lock()
	if n.role != RolePrimary || n.stopped {
		n.mu.Unlock()
		return
	}
	n.role = RoleFollower
	srv := n.srv
	n.srv = nil
	n.jrnl = nil
	replLn := n.replLn
	n.streamLn, n.replLn = nil, nil
	gate := n.quorum
	n.quorum = nil
	conns := make([]net.Conn, 0, len(n.followerConns))
	for c := range n.followerConns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	atomic.AddInt64(&n.demotions, 1)
	n.logf("cluster: %s demoting: %s", n.id(), reason)
	if gate != nil {
		gate.close()
	}
	if replLn != nil {
		replLn.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if srv != nil {
		srv.Kill() // closes the stream listener and client conns, abandons the journal
	}
	for n.ctx.Err() == nil {
		jrnl, err := journal.Open(n.cfg.Journal)
		if err == nil {
			n.mu.Lock()
			n.jrnl = jrnl
			n.mu.Unlock()
			break
		}
		n.logf("cluster: %s: reopening journal as standby: %v", n.id(), err)
		if !n.sleep(n.cfg.DialTimeout / 4) {
			return
		}
	}
	if n.ctx.Err() != nil {
		return
	}
	n.noteHeard() // fresh silence clock: give the rightful primary a full window
	n.wg.Add(1)
	go n.followLoop()
}

// Partition simulates a network partition around this node: every
// subsequent listen and dial fails, the replication listener and all
// follower connections close, and client streams are severed — but the
// process stays alive. An isolated primary demotes (it can no longer
// prove its authority); on Heal it rejoins as a follower and either
// re-attaches to whoever promoted meanwhile — learning the higher epoch
// — or, if nobody did, wins the next election with a fresh epoch.
func (n *Node) Partition() {
	if n.isolated.Swap(true) {
		return
	}
	n.logf("cluster: %s partitioned (simulated)", n.id())
	n.mu.Lock()
	role := n.role
	replConn := n.replConn
	n.mu.Unlock()
	if role == RolePrimary {
		n.demote("partitioned from the shard")
		return
	}
	if replConn != nil {
		replConn.Close()
	}
}

// Heal ends a simulated partition: the node's network works again.
func (n *Node) Heal() {
	if !n.isolated.Swap(false) {
		return
	}
	n.logf("cluster: %s partition healed", n.id())
}

// serverConfig injects the node's journal, fencing epoch, quorum gate
// and, in a multi-shard fleet, the placement hooks into the configured
// server template.
func (n *Node) serverConfig(jrnl *journal.Journal, epoch uint64, gate *quorumTracker) server.Config {
	cfg := n.cfg.Server
	cfg.Journal = jrnl
	cfg.Epoch = epoch
	if gate != nil {
		cfg.Quorum = gate
	}
	if cfg.Logf == nil {
		cfg.Logf = n.cfg.Logf
	}
	if len(n.ring.Nodes()) > 1 {
		addrs := make(map[string]string, len(n.cfg.Peers))
		for _, p := range n.cfg.Peers {
			addrs[p.Name] = p.StreamAddr
		}
		shard := n.cfg.Shard
		ring := n.ring
		cfg.Route = func(key uint64) (string, bool) {
			owner := ring.Owner(key)
			if owner == shard {
				return "", true
			}
			return addrs[owner], false
		}
		cfg.OwnsToken = func(token uint64) bool {
			return ring.Owner(token) == shard
		}
	}
	return cfg
}

// Shutdown stops the node gracefully: a primary drains its active
// streams (journaling their final watermarks), a follower flushes and
// closes its standby journal.
func (n *Node) Shutdown(ctx context.Context) error {
	n.cancel()
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return nil
	}
	n.stopped = true
	srv, jrnl, replLn, replConn, gate := n.srv, n.jrnl, n.replLn, n.replConn, n.quorum
	n.mu.Unlock()
	if gate != nil {
		gate.close()
	}
	if replLn != nil {
		replLn.Close()
	}
	if replConn != nil {
		replConn.Close()
	}
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx) // closes the stream listener and the journal
	} else if jrnl != nil {
		err = jrnl.Close()
	}
	n.wg.Wait()
	return err
}

// Kill stops the node abruptly, crash-style: nothing is flushed beyond
// what fsync already guaranteed, and the journal is abandoned exactly
// as a dead process would leave it.
func (n *Node) Kill() {
	n.cancel()
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	srv, jrnl, streamLn, replLn, replConn, gate := n.srv, n.jrnl, n.streamLn, n.replLn, n.replConn, n.quorum
	n.mu.Unlock()
	if gate != nil {
		gate.close()
	}
	if replLn != nil {
		replLn.Close()
	}
	if replConn != nil {
		replConn.Close()
	}
	if srv != nil {
		srv.Kill() // closes the stream listener, abandons the journal
	} else {
		if streamLn != nil {
			streamLn.Close()
		}
		if jrnl != nil {
			jrnl.Abandon()
		}
	}
	n.wg.Wait()
}

// Role reports the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Server returns the stream server while the node is primary, nil
// otherwise.
func (n *Node) Server() *server.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != RolePrimary {
		return nil
	}
	return n.srv
}

// StreamAddr reports the shard's stream address as actually bound
// (resolving a ":0" config), or the configured one before any bind.
func (n *Node) StreamAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.streamLn != nil {
		return n.streamLn.Addr().String()
	}
	return n.self.StreamAddr
}

// Status assembles the cluster-level ops view.
func (n *Node) Status() Status {
	n.mu.Lock()
	role := n.role
	jrnl := n.jrnl
	promotions := n.promotions
	lastPromotion := n.lastPromotion
	gate := n.quorum
	n.mu.Unlock()
	st := Status{
		Shard:         n.cfg.Shard,
		Role:          role,
		Rank:          n.cfg.Rank,
		Promotions:    promotions,
		LastPromotion: lastPromotion,
		Ring:          n.ring.Nodes(),
	}
	st.Replication.Epoch = n.epoch.Load()
	st.Replication.ReplicasConfigured = n.cfg.Replicas
	st.Replication.QuorumConfigured = n.cfg.Quorum
	st.Replication.DialRetries = atomic.LoadInt64(&n.dialRetries)
	st.Replication.Demotions = atomic.LoadInt64(&n.demotions)
	if role == RolePrimary {
		st.Replication.Followers = atomic.LoadInt64(&n.followers)
		st.Replication.FollowerDrops = atomic.LoadInt64(&n.followerDrops)
		var published uint64
		if jrnl != nil {
			at := jrnl.FollowOffsets()
			st.Replication.PublishedRecords = at.Records
			st.Replication.PublishedBytes = at.Bytes
			published = at.Records
		}
		if gate != nil {
			qs := gate.status()
			st.Replication.ReplicasConnected = qs.Connected
			st.Replication.QuorumDegraded = qs.Degraded
			st.Replication.QuorumCommits = qs.QuorumCommits
			st.Replication.LocalCommits = qs.LocalCommits
			st.Replication.DegradedEvents = qs.DegradedEvents
			st.Replication.AckTimeouts = qs.AckTimeouts
			st.Replication.AckLagRecords = make(map[string]uint64, len(qs.AckedSeq))
			for name, acked := range qs.AckedSeq {
				var lag uint64
				if published > acked {
					lag = published - acked
				}
				st.Replication.AckLagRecords[name] = lag
			}
		}
		return st
	}
	if jrnl != nil {
		// A follower's epoch is whatever its standby journal has
		// witnessed — the fencing floor it would promote with.
		st.Replication.Epoch = jrnl.Epoch()
	}
	n.repl.mu.Lock()
	applied := n.repl.base + n.repl.applied
	appliedBytes := n.repl.baseBytes + n.repl.appliedBytes
	st.Replication.Connected = n.connected.Load()
	st.Replication.AppliedRecords = applied
	st.Replication.AppliedAdmits = n.repl.admits
	st.Replication.Heartbeats = n.repl.heartbeats
	st.Replication.Resyncs = n.repl.resyncs
	if p := n.repl.primary; p.Records > applied {
		st.Replication.LagRecords = p.Records - applied
	}
	if p := n.repl.primary; p.Bytes > appliedBytes {
		st.Replication.LagBytes = p.Bytes - appliedBytes
	}
	if p := n.repl.primary; p.SegmentSeq > n.repl.baseSegment {
		st.Replication.LagSegments = p.SegmentSeq - n.repl.baseSegment
	}
	n.repl.mu.Unlock()
	return st
}

// Health is the cluster-aware readiness report: a follower is alive but
// not ready (it must not receive hellos), a primary defers to its
// server's own drain state.
func (n *Node) Health() server.Health {
	n.mu.Lock()
	role, srv := n.role, n.srv
	n.mu.Unlock()
	if role != RolePrimary || srv == nil {
		return server.Health{Status: "not-ready", Reason: "follower", Role: string(RoleFollower)}
	}
	if gate := n.quorumGate(); gate != nil && gate.isDegraded() {
		// Loud readiness flip: the primary is still admitting (local
		// durability), but the configured replication quorum is not
		// holding its records.
		return server.Health{Status: "not-ready", Reason: "quorum-degraded", Role: string(RolePrimary)}
	}
	h := srv.Health()
	h.Role = string(RolePrimary)
	return h
}

// OpsHandler serves the cluster node's operations endpoint — the same
// surface as a standalone server's, with the cluster status wrapped
// around the server snapshot and readiness answering for the role:
//
//	GET /livez       liveness (ok while the process runs, any role)
//	GET /healthz     readiness: 503 {"reason":"follower"} on a standby
//	GET /stats       {"cluster": Status, "server": Snapshot-if-primary}
//	GET /debug/vars  expvar (includes "smoothd" and "smoothd_cluster")
func (n *Node) OpsHandler() http.Handler {
	return server.NewOpsHandler(n.Health, func() any {
		snap := Snapshot{Cluster: n.Status()}
		if srv := n.Server(); srv != nil {
			ss := srv.Snapshot()
			snap.Server = &ss
		}
		return snap
	})
}

// id names this node in logs: shard/rank.
func (n *Node) id() string {
	return fmt.Sprintf("%s/%d", n.cfg.Shard, n.cfg.Rank)
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

func (n *Node) noteHeard()           { n.heard.Store(time.Now().UnixNano()) }
func (n *Node) lastHeard() time.Time { return time.Unix(0, n.heard.Load()) }

func (n *Node) setConnected(v bool) { n.connected.Store(v) }

// listenTCP and dialTCP are the node's injected network operations: the
// partition simulation fails them while the node is isolated, so an
// isolated node can neither rebind its shard's addresses nor reach its
// peers — the in-process equivalent of an unreachable host.
func (n *Node) listenTCP(addr string) (net.Listener, error) {
	if n.isolated.Load() {
		return nil, errIsolated
	}
	return net.Listen("tcp", addr)
}

func (n *Node) dialTCP(addr string) (net.Conn, error) {
	if n.isolated.Load() {
		return nil, errIsolated
	}
	return net.DialTimeout("tcp", addr, n.cfg.DialTimeout)
}

// quorumGate returns the active quorum tracker, nil when gating is off
// or the node is not primary.
func (n *Node) quorumGate() *quorumTracker {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.quorum
}

// Epoch reports the fencing term this node last served as primary
// under (zero before any primary term).
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// Demotions reports how many times this node stood down from primary.
func (n *Node) Demotions() int64 { return atomic.LoadInt64(&n.demotions) }

func (n *Node) trackFollowerConn(c net.Conn) {
	n.mu.Lock()
	n.followerConns[c] = struct{}{}
	n.mu.Unlock()
}

func (n *Node) untrackFollowerConn(c net.Conn) {
	n.mu.Lock()
	delete(n.followerConns, c)
	n.mu.Unlock()
}

func (n *Node) setReplConn(c net.Conn) {
	n.mu.Lock()
	n.replConn = c
	n.mu.Unlock()
}

func (n *Node) standby() *journal.Journal {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.jrnl
}

// sleep waits for d or until the node stops; reports whether the full
// wait elapsed.
func (n *Node) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-n.ctx.Done():
		return false
	}
}
