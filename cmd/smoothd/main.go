// Command smoothd is the multi-stream smoothing server: it accepts
// picture-stream sessions over TCP, admits each one against a shared
// egress link's capacity by its declared smoothed peak rate, smooths
// every admitted stream through its own session with the configured
// policy, and paces all output onto the shared link. An operations
// endpoint on a side port reports live counters as JSON and expvar.
//
// Usage:
//
//	smoothd -listen 127.0.0.1:8402 -ops 127.0.0.1:8403 -capacity 10e6
//	streamer send -connect 127.0.0.1:8402 -handshake -seq driving1
//
// SIGINT/SIGTERM drain gracefully: no new sessions are admitted, active
// streams run to completion (bounded by -drain-timeout), then the
// process exits with a summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpegsmooth"
	"mpegsmooth/internal/cluster"
	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "smoothd: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smoothd", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", "127.0.0.1:8402", "stream session listen address")
		opsAddr      = fs.String("ops", "127.0.0.1:8403", "operations endpoint listen address (empty = disabled)")
		capacity     = fs.Float64("capacity", 10e6, "shared egress link capacity (bits/s)")
		policySpec   = fs.String("policy", "basic", "rate policy: basic, moving-average, capped:<bps>, min-var")
		maxStreams   = fs.Int("max-streams", 0, "concurrent stream cap (0 = capacity-limited only)")
		readTimeout  = fs.Duration("read-timeout", 30*time.Second, "per-message read deadline")
		writeTimeout = fs.Duration("write-timeout", 30*time.Second, "per-write deadline for verdicts and deadline-capable egress sinks")
		resumeWindow = fs.Duration("resume-window", 10*time.Second, "how long a disconnected stream may reconnect and resume (0 = disabled)")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "graceful drain limit on shutdown")
		timescale    = fs.Float64("timescale", 1, "egress pacing speed multiplier (1 = real time)")
		journalDir   = fs.String("journal-dir", "", "session journal directory: admissions, watermarks, and completions survive a crash-restart (empty = no journal)")
		integrity    = fs.String("integrity", "fnv", "prefix-integrity mode every hello must declare: fnv or hmac-sha256:<keyfile>")
		datagram     = fs.Bool("datagram", false, "listen on UDP and run the stream protocol over the selective-repeat ARQ datagram transport (standalone mode only)")
		quiet        = fs.Bool("quiet", false, "suppress per-session log lines")

		clusterRole = fs.String("cluster", "", "cluster role: primary or follower:<rank> (empty = standalone)")
		shard       = fs.String("shard", "", "this node's shard name (cluster mode)")
		peersSpec   = fs.String("peers", "", "fleet peer list: name=streamAddr/replAddr,... (cluster mode)")
		failoverTO  = fs.Duration("failover-timeout", 2*time.Second, "replication silence a follower tolerates before promoting (cluster mode)")
		replicas    = fs.Int("replicas", 1, "followers configured per shard — the replication factor beyond the primary (cluster mode)")
		quorum      = fs.Int("quorum", 0, "replicas (primary included) that must fsync a record before its verdict releases; 0 or 1 = primary-only durability (cluster mode)")
		ackTimeout  = fs.Duration("ack-timeout", 0, "per-record follower-ack deadline before degrading to local-quorum commits (0 = failover-timeout/2, cluster mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := mpegsmooth.ParsePolicy(*policySpec)
	if err != nil {
		return err
	}
	mode, key, err := mpegsmooth.ParseIntegrity(*integrity)
	if err != nil {
		return err
	}
	logf := func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	scfg := server.Config{
		LinkRate:     *capacity,
		Policy:       policy,
		MaxStreams:   *maxStreams,
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		ResumeWindow: *resumeWindow,
		TimeScale:    *timescale,
		Integrity:    mode,
		IntegrityKey: key,
		Logf:         logf,
	}
	jcfg := journal.Config{Dir: *journalDir, Logf: logf}
	if *clusterRole != "" {
		if *datagram {
			return errors.New("-datagram is standalone-only: cluster replication stays on TCP")
		}
		return runCluster(ctx, out, clusterOpts{
			role:         *clusterRole,
			shard:        *shard,
			peersSpec:    *peersSpec,
			journal:      jcfg,
			opsAddr:      *opsAddr,
			failoverTO:   *failoverTO,
			replicas:     *replicas,
			quorum:       *quorum,
			ackTimeout:   *ackTimeout,
			drainTimeout: *drainTimeout,
			server:       scfg,
			logf:         logf,
		})
	}
	var jrnl *journal.Journal
	if *journalDir != "" {
		jrnl, err = journal.Open(jcfg)
		if err != nil {
			return err
		}
	}
	scfg.Journal = jrnl
	srv, err := server.New(scfg)
	if err != nil {
		// The server never adopted the journal. Close it here: that
		// closes its open segment and stops its flusher.
		if jrnl != nil {
			jrnl.Close()
		}
		return err
	}
	if jrnl != nil {
		snap := srv.Snapshot()
		fmt.Fprintf(out, "smoothd: journal %s: recovered %d parked stream(s), %d completion tombstone(s)\n",
			*journalDir, snap.Streams.Recovered, snap.Streams.RecoveredTombstones)
	}

	var ln net.Listener
	if *datagram {
		// UDP socket + ARQ demultiplexer: every accepted "connection"
		// is a selective-repeat flow, and the stream protocol above it
		// is unchanged.
		pc, err := net.ListenPacket("udp", *listen)
		if err != nil {
			return err
		}
		ln = mpegsmooth.ListenDatagram(pc, mpegsmooth.DatagramConfig{})
	} else {
		ln, err = net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
	}
	defer ln.Close()
	transportName := "tcp"
	if *datagram {
		transportName = "udp/arq"
	}
	fmt.Fprintf(out, "smoothd: streams on %s, transport %s, capacity %.0f bps, policy %s\n",
		ln.Addr(), transportName, *capacity, policy.Name())

	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			return err
		}
		opsSrv = &http.Server{Handler: srv.OpsHandler()}
		go opsSrv.Serve(opsLn)
		defer opsSrv.Close()
		fmt.Fprintf(out, "smoothd: ops on http://%s/stats\n", opsLn.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "smoothd: draining (up to %v)...\n", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Shutdown(drainCtx)
	<-serveErr
	snap := srv.Snapshot()
	fmt.Fprintf(out, "smoothd: exit — %d admitted, %d rejected, %d completed, %d failed, %d resumed, %d hellos deduped, %d already-complete resumes, %d bits egressed\n",
		snap.Streams.Admitted, snap.Streams.Rejected, snap.Streams.Completed,
		snap.Streams.Failed, snap.Faults.Resumed, snap.Streams.HelloDeduped,
		snap.Streams.AlreadyComplete, snap.EgressedBits)
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	if errors.Is(drainErr, context.DeadlineExceeded) {
		fmt.Fprintf(out, "smoothd: drain timed out; %d stream(s) cancelled\n", snap.Streams.Active)
	}
	return nil
}

type clusterOpts struct {
	role         string
	shard        string
	peersSpec    string
	journal      journal.Config
	opsAddr      string
	failoverTO   time.Duration
	replicas     int
	quorum       int
	ackTimeout   time.Duration
	drainTimeout time.Duration
	server       server.Config
	logf         func(format string, args ...any)
}

// runCluster runs the process as one cluster node — a shard primary or
// a warm-standby follower — until the context is cancelled.
func runCluster(ctx context.Context, out io.Writer, o clusterOpts) error {
	rank, err := parseClusterRole(o.role)
	if err != nil {
		return err
	}
	if o.shard == "" {
		return errors.New("cluster mode needs -shard")
	}
	if o.journal.Dir == "" {
		return errors.New("cluster mode needs -journal-dir (the journal is what gets replicated)")
	}
	peers, err := parsePeers(o.peersSpec)
	if err != nil {
		return err
	}
	node, err := cluster.New(cluster.Config{
		Shard:           o.shard,
		Rank:            rank,
		Peers:           peers,
		Journal:         o.journal,
		Server:          o.server,
		FailoverTimeout: o.failoverTO,
		Replicas:        o.replicas,
		Quorum:          o.quorum,
		AckTimeout:      o.ackTimeout,
		Logf:            o.logf,
	})
	if err != nil {
		return err
	}
	if err := node.Start(); err != nil {
		return err
	}
	fmt.Fprintf(out, "smoothd: cluster node %s rank %d, role %s\n", o.shard, rank, node.Role())

	if o.opsAddr != "" {
		opsLn, err := net.Listen("tcp", o.opsAddr)
		if err != nil {
			node.Kill()
			return err
		}
		opsSrv := &http.Server{Handler: node.OpsHandler()}
		go opsSrv.Serve(opsLn)
		defer opsSrv.Close()
		fmt.Fprintf(out, "smoothd: ops on http://%s/stats\n", opsLn.Addr())
	}

	<-ctx.Done()
	fmt.Fprintf(out, "smoothd: draining (up to %v)...\n", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	drainErr := node.Shutdown(drainCtx)
	fmt.Fprintf(out, "smoothd: exit — role %s, %d promotion(s)\n", node.Role(), node.Status().Promotions)
	if drainErr != nil && !errors.Is(drainErr, context.DeadlineExceeded) {
		return drainErr
	}
	return nil
}

// parseClusterRole maps "primary" to rank 0 and "follower:<n>" (n ≥ 1)
// to rank n.
func parseClusterRole(spec string) (int, error) {
	if spec == "primary" {
		return 0, nil
	}
	if rest, ok := strings.CutPrefix(spec, "follower:"); ok {
		rank, err := strconv.Atoi(rest)
		if err != nil || rank < 1 {
			return 0, fmt.Errorf("follower rank must be a positive integer, got %q", rest)
		}
		return rank, nil
	}
	return 0, fmt.Errorf("-cluster must be primary or follower:<rank>, got %q", spec)
}

// parsePeers parses "name=streamAddr/replAddr,..." (slash-separated
// because the addresses themselves contain colons).
func parsePeers(spec string) ([]cluster.Peer, error) {
	var peers []cluster.Peer
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, addrs, ok := strings.Cut(item, "=")
		if !ok {
			return nil, fmt.Errorf("peer %q: want name=streamAddr/replAddr", item)
		}
		stream, repl, ok := strings.Cut(addrs, "/")
		if !ok || stream == "" || repl == "" {
			return nil, fmt.Errorf("peer %q: want name=streamAddr/replAddr", item)
		}
		peers = append(peers, cluster.Peer{Name: name, StreamAddr: stream, ReplAddr: repl})
	}
	if len(peers) == 0 {
		return nil, errors.New("cluster mode needs -peers")
	}
	return peers, nil
}
