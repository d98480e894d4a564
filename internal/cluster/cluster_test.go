package cluster

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/server"
	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/transport"
)

// soakTimeScale compresses schedule time so multi-second schedules
// replay in milliseconds (same convention as the server tests).
const soakTimeScale = 200

func testTrace(t testing.TB, pictures int) *trace.Trace {
	t.Helper()
	tr, err := trace.Driving1(pictures, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// clientKit is everything a test client needs to stream one trace.
type clientKit struct {
	tr       *trace.Trace
	payloads [][]byte
	hello    transport.StreamHello
}

func makeClient(t testing.TB, tr *trace.Trace) *clientKit {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	payloads := make([][]byte, tr.Len())
	for i, s := range tr.Sizes {
		payloads[i] = make([]byte, int((s+7)/8))
		rng.Read(payloads[i])
	}
	hello := transport.StreamHello{Tau: tr.Tau, GOP: tr.GOP, K: 1, D: 0.2, Pictures: tr.Len()}
	peak, err := transport.WirePeak(hello, nil, payloads)
	if err != nil {
		t.Fatal(err)
	}
	hello.PeakRate = peak
	return &clientKit{tr: tr, payloads: payloads, hello: hello}
}

// resumableClient builds the reconnect-and-resume sender every cluster
// test drives: it dials the shard's stream address and follows redirect
// verdicts to other shards.
func resumableClient(kit *clientKit, addr string, seed int64) *transport.ResumableSender {
	dial := func(ctx context.Context, target string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", target)
	}
	return &transport.ResumableSender{
		Sender:      transport.Sender{TimeScale: soakTimeScale, Chunk: 512, WriteTimeout: 5 * time.Second},
		Dial:        func(ctx context.Context) (net.Conn, error) { return dial(ctx, addr) },
		DialAddr:    dial,
		Hello:       kit.hello,
		Backoff:     transport.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond},
		MaxAttempts: 25,
		Seed:        seed,
	}
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// freeAddrs reserves n distinct loopback addresses by binding and
// releasing them; the cluster under test re-binds them by name.
func freeAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startNode builds and starts a node, failing the test on error and
// shutting it down at cleanup (a no-op if the test already stopped it).
func startNode(t testing.TB, cfg Config) *Node {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		n.Shutdown(ctx)
	})
	return n
}

// fastTimings are the tightened failure-detection knobs every test
// uses so failover lands in milliseconds, not seconds.
func fastTimings(cfg *Config) {
	cfg.HeartbeatInterval = 25 * time.Millisecond
	cfg.FailoverTimeout = 500 * time.Millisecond
	cfg.DialTimeout = 250 * time.Millisecond
}

// TestFollowerWarmStandby pins the replication pipeline end to end: a
// real client streams through the primary, and the follower's standby
// journal converges on the same durable state — admits applied, lag
// back to zero — while the ops surface reports role, lag, and readiness
// correctly on both nodes (the healthz/stats satellite).
func TestFollowerWarmStandby(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	addrs := freeAddrs(t, 2)
	peers := []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	scfg := server.Config{LinkRate: 2 * kit.hello.PeakRate, TimeScale: soakTimeScale, ResumeWindow: 10 * time.Second}

	pcfg := Config{Shard: "alpha", Rank: 0, Peers: peers, Server: scfg,
		Journal: journal.Config{Dir: t.TempDir(), FlushInterval: 5 * time.Millisecond}}
	fastTimings(&pcfg)
	primary := startNode(t, pcfg)

	fcfg := Config{Shard: "alpha", Rank: 1, Peers: peers, Server: scfg,
		Journal: journal.Config{Dir: t.TempDir(), FlushInterval: 5 * time.Millisecond}}
	fastTimings(&fcfg)
	follower := startNode(t, fcfg)

	waitFor(t, "follower attached", func() bool {
		return follower.Status().Replication.Connected
	})

	rs := resumableClient(kit, primary.StreamAddr(), 1)
	if _, err := rs.Stream(context.Background(), kit.payloads); err != nil {
		t.Fatalf("stream through primary: %v", err)
	}

	waitFor(t, "follower caught up", func() bool {
		st := follower.Status().Replication
		return st.AppliedAdmits >= 1 && st.LagRecords == 0 && st.Heartbeats >= 1
	})
	if got := follower.Status(); got.Role != RoleFollower || got.Replication.Resyncs < 1 {
		t.Errorf("follower status %+v: want role follower with at least one resync", got)
	}
	pst := primary.Status()
	if pst.Role != RolePrimary || pst.Replication.Followers != 1 || pst.Replication.PublishedRecords == 0 {
		t.Errorf("primary status %+v: want primary with one follower and a nonzero publish cursor", pst.Replication)
	}

	// Readiness: the primary answers ok/primary, the follower 503 with a
	// machine-readable reason — liveness says ok on both.
	get := func(n *Node, path string) (int, string) {
		rec := httptest.NewRecorder()
		n.OpsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get(primary, "/healthz"); code != 200 || !strings.Contains(body, `"role":"primary"`) {
		t.Errorf("primary /healthz = %d %q", code, body)
	}
	if code, body := get(follower, "/healthz"); code != 503 ||
		!strings.Contains(body, `"status":"not-ready"`) || !strings.Contains(body, `"reason":"follower"`) {
		t.Errorf("follower /healthz = %d %q, want 503 not-ready/follower", code, body)
	}
	for _, n := range []*Node{primary, follower} {
		if code, body := get(n, "/livez"); code != 200 || body != "ok\n" {
			t.Errorf("/livez = %d %q", code, body)
		}
	}

	// /stats JSON shape: the follower document must expose the lag
	// gauges and role under "cluster"; the primary embeds the server
	// snapshot alongside.
	var doc map[string]json.RawMessage
	_, body := get(follower, "/stats")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("follower /stats is not JSON: %v", err)
	}
	if _, ok := doc["server"]; ok {
		t.Error("follower /stats embeds a server snapshot; a standby runs no server")
	}
	var cl map[string]json.RawMessage
	if err := json.Unmarshal(doc["cluster"], &cl); err != nil {
		t.Fatalf("follower /stats cluster section: %v", err)
	}
	for _, key := range []string{"shard", "role", "rank", "promotions", "last_promotion", "ring", "replication"} {
		if _, ok := cl[key]; !ok {
			t.Errorf("follower /stats cluster section lacks %q", key)
		}
	}
	var repl map[string]json.RawMessage
	if err := json.Unmarshal(cl["replication"], &repl); err != nil {
		t.Fatalf("follower /stats replication section: %v", err)
	}
	for _, key := range []string{"connected", "applied_records", "applied_admits", "lag_records", "lag_bytes", "lag_segments", "heartbeats", "resyncs",
		"epoch", "replicas_configured", "replicas_connected", "quorum_configured", "quorum_degraded",
		"quorum_commits", "local_commits", "quorum_degraded_events", "ack_timeouts", "dial_retries", "demotions"} {
		if _, ok := repl[key]; !ok {
			t.Errorf("follower /stats replication section lacks %q", key)
		}
	}
	_, body = get(primary, "/stats")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("primary /stats is not JSON: %v", err)
	}
	if _, ok := doc["server"]; !ok {
		t.Error("primary /stats lacks the embedded server snapshot")
	}

	// The expvar mirror publishes the same Status document.
	v := expvar.Get("smoothd_cluster")
	if v == nil {
		t.Fatal("smoothd_cluster expvar not published")
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(v.String()), &ev); err != nil {
		t.Fatalf("smoothd_cluster expvar is not JSON: %v", err)
	}
	if _, ok := ev["replication"]; !ok {
		t.Error("smoothd_cluster expvar lacks the replication section")
	}
}

// TestShardedRedirect pins sharded placement: a fleet of two
// single-node shards, every client dialing shard alpha. Hellos whose
// nonce hashes to beta get a redirect verdict, the sender follows it,
// and every stream completes on its owning shard with no admission on
// the wrong one.
func TestShardedRedirect(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	addrs := freeAddrs(t, 4)
	peers := []Peer{
		{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]},
		{Name: "beta", StreamAddr: addrs[2], ReplAddr: addrs[3]},
	}
	const clients = 8
	scfg := server.Config{LinkRate: float64(clients+1) * kit.hello.PeakRate, TimeScale: soakTimeScale}
	nodes := make([]*Node, len(peers))
	for i, p := range peers {
		cfg := Config{Shard: p.Name, Rank: 0, Peers: peers, Server: scfg,
			Journal: journal.Config{Dir: t.TempDir(), FlushInterval: 5 * time.Millisecond}}
		fastTimings(&cfg)
		nodes[i] = startNode(t, cfg)
	}

	// Crypto-random hello nonces made placement probabilistic: about one
	// run in 256 dealt all eight nonces to alpha, no redirect ever
	// happened, and the assertions below flaked. Deal the nonces
	// ourselves — half provably owned by each shard — so placement
	// always engages.
	ring := nodes[0].ring
	nonces := make([]uint64, 0, clients)
	owned := map[string]int{}
	for key := uint64(1); len(nonces) < clients; key++ {
		if owner := ring.Owner(key); owned[owner] < clients/2 {
			owned[owner]++
			nonces = append(nonces, key)
		}
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		redirects int
		failures  []error
		tokens    = make([]uint64, clients)
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs := resumableClient(kit, nodes[0].StreamAddr(), int64(i)+1)
			rs.Hello.Nonce = nonces[i]
			res, err := rs.Stream(context.Background(), kit.payloads)
			mu.Lock()
			defer mu.Unlock()
			redirects += res.Redirects
			tokens[i] = res.Verdict.ResumeToken
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
	if redirects == 0 {
		t.Error("no client was redirected — sharded placement never engaged")
	}
	var admitted, redirected int64
	for i, n := range nodes {
		snap := n.Server().Snapshot()
		admitted += snap.Streams.Admitted
		redirected += snap.Streams.Redirected
		t.Logf("shard %s: %d admitted, %d redirected", peers[i].Name, snap.Streams.Admitted, snap.Streams.Redirected)
	}
	if admitted != clients {
		t.Errorf("admitted %d across the fleet for %d clients", admitted, clients)
	}
	if redirected == 0 {
		t.Error("no server counted a redirect")
	}
	// Token homing: every resume token was issued by the shard that owns
	// the client's nonce and hashes to that shard, so a resume routes
	// straight home.
	for i, tok := range tokens {
		if got, want := ring.Owner(tok), ring.Owner(nonces[i]); got != want {
			t.Errorf("client %d: resume token %016x is owned by %s, its nonce by %s", i, tok, got, want)
		}
	}
	// Determinism: both shards computed the same ring.
	for _, key := range []uint64{1, 2, 3, 1 << 40, 1<<63 - 1} {
		if a, b := ring.Owner(key), nodes[1].ring.Owner(key); a != b {
			t.Fatalf("ring disagreement for key %d: %s vs %s", key, a, b)
		}
	}
}
