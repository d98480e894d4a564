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
	// primary; Journal, Epoch, Quorum and Route are injected by the node.
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
	// wg counts every goroutine the node starts; a stop returns once
	// they have all exited.
	wg sync.WaitGroup

	mu            sync.Mutex
	state         state
	term          *term // the role's resources; a stopped node keeps its last one
	promotions    int64
	lastPromotion time.Time

	heard     atomic.Int64 // unix nanos of the last replication frame
	connected atomic.Bool
	// isolated simulates a network partition: while set, this node's
	// injected listens and dials fail, so it can neither serve nor
	// reach its peers — but the process stays alive, which is exactly
	// the deposed-primary scenario epoch fencing exists for.
	isolated atomic.Bool
	// epoch is the fencing term this node last served as primary under.
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

// state is where a node is in its lifecycle (DESIGN §12). Node.apply
// makes every move; no move leaves stopped, so a stop wins every race
// with a bring-up.
type state uint8

const (
	following state = iota // a standby follows the shard's primary, or is being opened
	primary                // a primary term serves the shard
	stopped                // Shutdown or Kill ended the node
)

// move names one lifecycle move.
type move uint8

const (
	mvStart   move = iota // rank 0 installs its first primary term
	mvFollow              // a standby: Start at rank ≥ 1, or after a demotion or a failed promotion
	mvPromote             // a follower installs the primary term it brought up
	mvDemote              // a deposed primary takes its term down
	mvStop                // Shutdown or Kill
)

// moves is the transition table: the states each move may leave, a bit
// per state; the state it enters; and the goroutines its caller then
// starts, which apply counts in n.wg under n.mu so that a stop cannot
// miss one.
var moves = [...]struct {
	from  uint8
	to    state
	loops int
}{
	mvStart:   {1 << following, primary, 2},   // Serve, publishLoop
	mvFollow:  {1 << following, following, 1}, // followLoop
	mvPromote: {1 << following, primary, 2},
	mvDemote:  {1 << primary, following, 1}, // teardown, then rejoin
	mvStop:    {1<<following | 1<<primary, stopped, 0},
}

// term is what a node holds in one role. A follower's is its standby
// journal and its connection to the primary; a primary's is the server
// on its journal, the shard's stream and replication listeners, the
// quorum gate, the attached followers' connections and the fencing
// epoch it serves under.
type term struct {
	jrnl   *journal.Journal
	srv    *server.Server // nil on a follower
	ln     net.Listener   // the shard's stream address
	replLn net.Listener   // the shard's replication address
	gate   *quorumTracker // nil with quorum gating off
	epoch  uint64
	// conns are the replication connections the term's loops hold,
	// under n.mu; nil once the term is torn down.
	conns map[net.Conn]struct{}
}

// role is the role t serves in. A node with no term — before Start, or
// between a demotion and its standby — is a follower.
func (t *term) role() Role {
	if t == nil || t.srv == nil {
		return RoleFollower
	}
	return RolePrimary
}

// errStopped refuses a bring-up whose node was stopped meanwhile.
var errStopped = errors.New("cluster: node stopped")

// apply is the one place a node's state changes. A move the table does
// not allow from the node's state is refused: it changes nothing, and
// the term it would have installed is released crash-style, outside
// n.mu. A legal move installs t (start, follow, promote) or takes the
// installed term down (demote; stop, which leaves it in place for Role,
// Status, Server and StreamAddr to answer from), bumps the counter it
// implies, and returns the term it replaced or took down.
func (n *Node) apply(m move, t *term) (old *term, ok bool) {
	n.mu.Lock()
	mv := moves[m]
	if ok = mv.from&(1<<n.state) != 0; ok {
		n.state, old = mv.to, n.term
		if m != mvStop {
			n.term = t
		}
		n.wg.Add(mv.loops)
		switch m {
		case mvPromote:
			n.promotions++
			n.lastPromotion = time.Now()
			fallthrough
		case mvStart:
			n.epoch.Store(t.epoch)
		case mvDemote:
			atomic.AddInt64(&n.demotions, 1)
		}
	}
	n.mu.Unlock()
	if !ok && t != nil {
		n.end(context.Background(), t, false)
	}
	return old, ok
}

// end tears t down: the quorum gate, both listeners and every
// replication connection first, then the server and its journal —
// drained within ctx if drain is set (Shutdown), crash-style otherwise
// (Kill, demote, and a term whose bring-up failed or was refused), so
// the journal keeps exactly what fsync guaranteed. The server closes
// the stream listener too, but only once Serve has taken it.
func (n *Node) end(ctx context.Context, t *term, drain bool) error {
	if t.gate != nil {
		t.gate.close()
	}
	for _, ln := range []net.Listener{t.ln, t.replLn} {
		if ln != nil {
			ln.Close()
		}
	}
	n.mu.Lock()
	conns := t.conns
	t.conns = nil
	n.mu.Unlock()
	for c := range conns {
		c.Close()
	}
	switch {
	case t.srv != nil && drain:
		return t.srv.Shutdown(ctx) // closes the journal
	case t.srv != nil:
		t.srv.Kill() // abandons the journal
	case t.jrnl != nil && drain:
		return t.jrnl.Close()
	case t.jrnl != nil:
		t.jrnl.Abandon()
	}
	return nil
}

// hold registers c with t, for t's teardown to close, and returns the
// func that unregisters it. A term already torn down closes c at once.
func (n *Node) hold(t *term, c net.Conn) (release func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if t.conns == nil {
		c.Close()
	} else {
		t.conns[c] = struct{}{}
	}
	return func() { n.mu.Lock(); delete(t.conns, c); n.mu.Unlock() }
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
		cfg:    cfg,
		ring:   ring,
		self:   self,
		ctx:    ctx,
		cancel: cancel,
		rng:    rand.New(rand.NewSource(seed)),
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

// Start launches the node in its configured role: rank 0 binds the
// shard's stream address and serves as primary; higher ranks open a
// standby journal and follow the shard's replication feed.
func (n *Node) Start() error {
	if n.cfg.Rank > 0 {
		return n.follow()
	}
	ln, err := n.listenTCP(n.self.StreamAddr)
	if err != nil {
		return fmt.Errorf("cluster: stream listener: %w", err)
	}
	return n.lead(mvStart, ln)
}

// lead is the primary bring-up that rank-0 Start and promote share, on
// the shard's stream listener ln: bring the term up, install it with
// move m, and start its Serve and publish loops.
func (n *Node) lead(m move, ln net.Listener) error {
	t := &term{ln: ln, conns: map[net.Conn]struct{}{}}
	if err := n.bringUp(t); err != nil {
		n.end(context.Background(), t, false)
		return err
	}
	if _, ok := n.apply(m, t); !ok {
		return errStopped
	}
	go func() {
		defer n.wg.Done()
		if err := t.srv.Serve(t.ln); err != nil {
			n.logf("cluster: %s: serving streams: %v", n.id(), err)
		}
	}()
	go n.publishLoop(t)
	snap := t.srv.Snapshot()
	n.logf("cluster: %s serving as primary on %s at epoch %d (replication on %s; %d streams recovered, %d tombstones)",
		n.id(), ln.Addr(), t.epoch, t.replLn.Addr(), snap.Streams.Recovered, snap.Streams.RecoveredTombstones)
	return nil
}

// bringUp builds a primary term into t: open the journal; fsync the
// successor epoch into it before anything is served under that epoch,
// so this node can never forget it was (or failed to stay) the term's
// primary; build the server on it, whose recovery parks every journaled
// stream at its watermark; bind the replication address. On error, t
// holds what the earlier steps built.
func (n *Node) bringUp(t *term) (err error) {
	if t.jrnl, err = journal.Open(n.cfg.Journal); err != nil {
		return fmt.Errorf("cluster: journal: %w", err)
	}
	t.epoch = t.jrnl.Epoch() + 1
	if _, err = t.jrnl.AppendEpoch(t.epoch); err != nil {
		return fmt.Errorf("cluster: fencing epoch %d not journalable: %w", t.epoch, err)
	}
	if n.cfg.Quorum >= 2 {
		t.gate = newQuorumTracker(n.cfg.Quorum-1, ackWindow, n.cfg.AckTimeout, n.cfg.Logf)
	}
	if t.srv, err = server.New(n.serverConfig(t)); err != nil {
		return err
	}
	if t.replLn, err = n.bind(n.self.ReplAddr); err != nil {
		return fmt.Errorf("cluster: replication listener: %w", err)
	}
	return nil
}

// follow is the standby bring-up that Start at rank ≥ 1, demote and a
// failed promotion share: open the journal as a warm standby, install
// it, and follow the shard's primary.
func (n *Node) follow() error {
	jrnl, err := journal.Open(n.cfg.Journal)
	if err != nil {
		return fmt.Errorf("cluster: standby journal: %w", err)
	}
	t := &term{jrnl: jrnl, conns: map[net.Conn]struct{}{}}
	if _, ok := n.apply(mvFollow, t); !ok {
		return errStopped
	}
	n.logf("cluster: %s following %s", n.id(), n.self.ReplAddr)
	go n.followLoop(t)
	return nil
}

// rejoin retries the standby bring-up until it succeeds or the node
// stops; a stopped node reopens nothing.
func (n *Node) rejoin() {
	for n.ctx.Err() == nil {
		err := n.follow()
		if err == nil || n.ctx.Err() != nil {
			return
		}
		n.logf("cluster: %s: reopening journal as standby: %v", n.id(), err)
		n.sleep(n.cfg.DialTimeout / 4)
	}
}

// elect runs the follower's election once the primary has been silent
// past FailoverTimeout. Ranks stagger their attempts — with seeded
// jitter on top of the rank term, so two followers whose clocks
// detected the silence in the same instant still cannot race the
// port-bind election in lockstep; after the stagger, a probe of the
// shard's replication address detects an already-promoted peer. The
// real lock is the OS: whoever binds the shard's stream address is the
// new primary. elect returns the won stream listener, or nil.
func (n *Node) elect() net.Listener {
	step := n.cfg.FailoverTimeout / 2
	stagger := time.Duration(n.cfg.Rank-1) * step
	if jitter := step / 2; jitter > 0 {
		stagger += time.Duration(n.rng.Int63n(int64(jitter)))
	}
	if stagger > 0 {
		if !n.sleep(stagger) {
			return nil
		}
		if c, err := n.dialTCP(n.self.ReplAddr); err == nil {
			// A lower rank already promoted; go back to following it.
			c.Close()
			n.noteHeard()
			return nil
		}
	}
	ln, err := n.bind(n.self.StreamAddr)
	if err != nil {
		// Lost the bind race — someone else owns the address now.
		n.noteHeard()
		return nil
	}
	return ln
}

// promote turns the warm standby into the shard primary on the stream
// listener ln it won: close the standby journal, then bring up a primary
// term on the same directory, reopened authoritatively (which compacts
// and replays it) — recovery is the crash-restart path, so every
// journaled stream comes back parked at its replicated watermark. A
// promotion that fails rejoins the shard as a standby.
func (n *Node) promote(standby *term, ln net.Listener) {
	n.logf("cluster: %s promoting: primary silent for %v", n.id(), time.Since(n.lastHeard()).Round(time.Millisecond))
	if err := standby.jrnl.Close(); err != nil {
		n.logf("cluster: %s: closing standby journal: %v", n.id(), err)
	}
	if err := n.lead(mvPromote, ln); err != nil && n.ctx.Err() == nil {
		n.logf("cluster: %s: promotion failed: %v", n.id(), err)
		n.rejoin()
	}
}

// demote stands a deposed primary down instead of split-braining: a
// follower or ack arrived carrying a higher epoch, or the partition
// simulation isolated it. The term is torn down crash-style (the journal
// keeps exactly what fsync guaranteed; active client streams are severed
// and will resume against the rightful primary) and the node rejoins the
// shard as a standby: the ordinary election machinery then decides
// whether it re-attaches to the new primary or — if nobody actually
// promoted — wins the next election itself. The teardown and the rejoin
// run on a goroutine the move counted. demote reports whether the node
// was primary.
func (n *Node) demote(reason string) bool {
	t, ok := n.apply(mvDemote, nil)
	if !ok {
		return false
	}
	n.logf("cluster: %s demoting: %s", n.id(), reason)
	go func() {
		defer n.wg.Done()
		n.end(context.Background(), t, false)
		n.rejoin()
	}()
	return true
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
	if n.demote("partitioned from the shard") {
		return
	}
	// A follower: sever its connection to the primary.
	n.mu.Lock()
	defer n.mu.Unlock()
	if t := n.term; t != nil {
		for c := range t.conns {
			c.Close()
		}
	}
}

// Heal ends a simulated partition: the node's network works again.
func (n *Node) Heal() {
	if !n.isolated.Swap(false) {
		return
	}
	n.logf("cluster: %s partition healed", n.id())
}

// serverConfig injects the term's journal, fencing epoch, quorum gate
// and, in a multi-shard fleet, the placement hook into the configured
// server template.
func (n *Node) serverConfig(t *term) server.Config {
	cfg := n.cfg.Server
	cfg.Journal = t.jrnl
	cfg.Epoch = t.epoch
	if t.gate != nil {
		cfg.Quorum = t.gate
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
	}
	return cfg
}

// Shutdown stops the node gracefully: a primary drains its active
// streams (journaling their final watermarks), a follower flushes and
// closes its standby journal. It returns once every goroutine the node
// started has exited, a bring-up the stop refused included.
func (n *Node) Shutdown(ctx context.Context) error {
	return n.stop(ctx, true)
}

// Kill stops the node abruptly, crash-style: nothing is flushed beyond
// what fsync already guaranteed, and the journal is abandoned exactly
// as a dead process would leave it.
func (n *Node) Kill() {
	n.stop(context.Background(), false)
}

// stop is Shutdown (drain) and Kill: cancel the node's context, move to
// stopped, end the term the node held and wait for its goroutines. A
// second stop returns at once.
func (n *Node) stop(ctx context.Context, drain bool) error {
	n.cancel()
	t, ok := n.apply(mvStop, nil)
	if !ok {
		return nil
	}
	var err error
	if t != nil {
		err = n.end(ctx, t, drain)
	}
	n.wg.Wait()
	return err
}

// current returns the node's term: the installed one or, once the node
// is stopped, the last one.
func (n *Node) current() *term {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Role reports the node's current role; a stopped node reports the
// role it last held.
func (n *Node) Role() Role {
	return n.current().role()
}

// Server returns the stream server while the node is primary, nil
// otherwise.
func (n *Node) Server() *server.Server {
	if t := n.current(); t != nil {
		return t.srv
	}
	return nil
}

// StreamAddr reports the shard's stream address as actually bound
// (resolving a ":0" config), or the configured one before any bind.
func (n *Node) StreamAddr() string {
	if t := n.current(); t != nil && t.ln != nil {
		return t.ln.Addr().String()
	}
	return n.self.StreamAddr
}

// Status assembles the cluster-level ops view.
func (n *Node) Status() Status {
	n.mu.Lock()
	t := n.term
	st := Status{
		Shard:         n.cfg.Shard,
		Role:          t.role(),
		Rank:          n.cfg.Rank,
		Promotions:    n.promotions,
		LastPromotion: n.lastPromotion,
		Ring:          n.ring.Nodes(),
	}
	n.mu.Unlock()
	st.Replication.Epoch = n.epoch.Load()
	st.Replication.ReplicasConfigured = n.cfg.Replicas
	st.Replication.QuorumConfigured = n.cfg.Quorum
	st.Replication.DialRetries = atomic.LoadInt64(&n.dialRetries)
	st.Replication.Demotions = atomic.LoadInt64(&n.demotions)
	if st.Role == RolePrimary {
		st.Replication.Followers = atomic.LoadInt64(&n.followers)
		st.Replication.FollowerDrops = atomic.LoadInt64(&n.followerDrops)
		at := t.jrnl.FollowOffsets()
		st.Replication.PublishedRecords = at.Records
		st.Replication.PublishedBytes = at.Bytes
		if t.gate != nil {
			qs := t.gate.status()
			st.Replication.ReplicasConnected = qs.Connected
			st.Replication.QuorumDegraded = qs.Degraded
			st.Replication.QuorumCommits = qs.QuorumCommits
			st.Replication.LocalCommits = qs.LocalCommits
			st.Replication.DegradedEvents = qs.DegradedEvents
			st.Replication.AckTimeouts = qs.AckTimeouts
			st.Replication.AckLagRecords = make(map[string]uint64, len(qs.AckedSeq))
			for name, acked := range qs.AckedSeq {
				var lag uint64
				if at.Records > acked {
					lag = at.Records - acked
				}
				st.Replication.AckLagRecords[name] = lag
			}
		}
		return st
	}
	if t != nil {
		// A follower's epoch is whatever its standby journal has
		// witnessed — the fencing floor it would promote with.
		st.Replication.Epoch = t.jrnl.Epoch()
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
	t := n.current()
	if t.role() != RolePrimary {
		return server.Health{Status: "not-ready", Reason: "follower", Role: string(RoleFollower)}
	}
	if t.gate != nil && t.gate.isDegraded() {
		// Loud readiness flip: the primary is still admitting (local
		// durability), but the configured replication quorum is not
		// holding its records.
		return server.Health{Status: "not-ready", Reason: "quorum-degraded", Role: string(RolePrimary)}
	}
	h := t.srv.Health()
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

// bind listens on addr, retrying for up to FailoverTimeout while a
// previous holder lets go of it, or until the node stops.
func (n *Node) bind(addr string) (net.Listener, error) {
	deadline := time.Now().Add(n.cfg.FailoverTimeout)
	for {
		ln, err := n.listenTCP(addr)
		if err == nil || n.ctx.Err() != nil || time.Now().After(deadline) {
			return ln, err
		}
		n.sleep(20 * time.Millisecond)
	}
}

// Epoch reports the fencing term this node last served as primary
// under (zero before any primary term).
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// Demotions reports how many times this node stood down from primary.
func (n *Node) Demotions() int64 { return atomic.LoadInt64(&n.demotions) }

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
