package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"mpegsmooth"
	"mpegsmooth/internal/transport"
)

// reserveAddrs grabs n distinct loopback addresses by binding and
// releasing them; the cluster processes re-bind them by name.
func reserveAddrs(t *testing.T, n int) []string {
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

// clusterProc is one smoothd OS process under test.
type clusterProc struct {
	cmd *exec.Cmd
	out *syncBuffer
}

func startClusterProc(t *testing.T, bin string, args ...string) *clusterProc {
	t.Helper()
	p := &clusterProc{cmd: exec.Command(bin, args...), out: &syncBuffer{}}
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.cmd.ProcessState == nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
	})
	return p
}

// stats fetches and decodes one node's /stats document.
func stats(opsAddr string) (map[string]any, error) {
	resp, err := http.Get("http://" + opsAddr + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return doc, nil
}

func clusterSection(opsAddr, key string) (any, error) {
	doc, err := stats(opsAddr)
	if err != nil {
		return nil, err
	}
	cl, ok := doc["cluster"].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("no cluster section in %v", doc)
	}
	return cl[key], nil
}

func pollSmoke(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterFailoverSmoke is the three-process smoke `make cluster`
// runs: a primary and a follower smoothd as real OS processes, a
// resumable client streaming through the shard, then SIGKILL on the
// primary plus deletion of its journal directory. The client must
// finish through the follower, which must report itself promoted on
// its ops endpoint.
func TestClusterFailoverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "smoothd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building smoothd: %v\n%s", err, out)
	}

	addrs := reserveAddrs(t, 2)
	peerSpec := "alpha=" + addrs[0] + "/" + addrs[1]
	primaryDir := t.TempDir()
	common := []string{
		"-shard", "alpha",
		"-peers", peerSpec,
		"-ops", "127.0.0.1:0",
		"-capacity", "50e6",
		"-timescale", "25",
		"-resume-window", "30s",
		"-failover-timeout", "500ms",
	}
	primary := startClusterProc(t, bin, append([]string{"-cluster", "primary", "-journal-dir", primaryDir}, common...)...)
	primaryOps := waitAddr(t, primary.out, opsAddrRe)
	follower := startClusterProc(t, bin, append([]string{"-cluster", "follower:1", "-journal-dir", t.TempDir()}, common...)...)
	followerOps := waitAddr(t, follower.out, opsAddrRe)

	pollSmoke(t, "follower attached to the primary", func() bool {
		repl, err := clusterSection(followerOps, "replication")
		if err != nil {
			return false
		}
		m, ok := repl.(map[string]any)
		return ok && m["connected"] == true
	})

	tr, err := mpegsmooth.Driving1(240, 1)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, tr.Len())
	for i, bits := range tr.Sizes {
		payloads[i] = make([]byte, (bits+7)/8)
	}
	hello := mpegsmooth.StreamHello{Tau: tr.Tau, GOP: tr.GOP, K: 1, D: 0.2, Pictures: tr.Len()}
	if hello.PeakRate, err = transport.WirePeak(hello, nil, payloads); err != nil {
		t.Fatal(err)
	}
	rs := &mpegsmooth.ResumableSender{
		Sender: mpegsmooth.Sender{TimeScale: 25, Chunk: 512, WriteTimeout: 5 * time.Second},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addrs[0])
		},
		Hello:       hello,
		Backoff:     mpegsmooth.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond},
		MaxAttempts: 60,
		Seed:        1,
	}
	type result struct {
		res mpegsmooth.StreamResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := rs.Stream(context.Background(), payloads)
		done <- result{res, err}
	}()

	// Kill only after the client is admitted and streaming and the
	// follower has replicated the admission.
	pollSmoke(t, "client admitted on the primary", func() bool {
		doc, err := stats(primaryOps)
		if err != nil {
			return false
		}
		srv, ok := doc["server"].(map[string]any)
		if !ok {
			return false
		}
		streams, ok := srv["streams"].(map[string]any)
		return ok && streams["admitted"] == float64(1)
	})
	pollSmoke(t, "follower replicated the admission", func() bool {
		repl, err := clusterSection(followerOps, "replication")
		if err != nil {
			return false
		}
		m, ok := repl.(map[string]any)
		return ok && m["applied_admits"] == float64(1) && m["lag_records"] == float64(0)
	})

	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.cmd.Wait()
	if err := os.RemoveAll(primaryDir); err != nil {
		t.Fatal(err)
	}
	t.Log("primary killed and its journal dir destroyed")

	r := <-done
	if r.err != nil {
		t.Fatalf("client did not survive the failover: %v\nfollower output:\n%s", r.err, follower.out.String())
	}
	if r.res.Resumes < 1 {
		t.Errorf("client finished with no resume — the kill never landed mid-stream")
	}

	pollSmoke(t, "follower promoted", func() bool {
		role, err := clusterSection(followerOps, "role")
		return err == nil && role == "primary"
	})
	t.Logf("failover complete: %d resume(s)", r.res.Resumes)
}

// TestClusterQuorumSmoke is the quorum-replication variant: THREE
// smoothd OS processes (a primary and two followers) running with
// -replicas 2 -quorum 2, so every verdict is held for a follower ack.
// The primary is killed (journal dir destroyed) with no catch-up gate
// beyond the admission verdict itself — the quorum ack-hold is what
// guarantees the promoted follower carries the session. The promoted
// node must report a higher fencing epoch than the dead primary served
// under.
func TestClusterQuorumSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster smoke skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "smoothd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building smoothd: %v\n%s", err, out)
	}

	addrs := reserveAddrs(t, 2)
	peerSpec := "alpha=" + addrs[0] + "/" + addrs[1]
	primaryDir := t.TempDir()
	common := []string{
		"-shard", "alpha",
		"-peers", peerSpec,
		"-ops", "127.0.0.1:0",
		"-capacity", "50e6",
		"-timescale", "25",
		"-resume-window", "30s",
		"-failover-timeout", "500ms",
		"-replicas", "2",
		"-quorum", "2",
		"-ack-timeout", "250ms",
	}
	primary := startClusterProc(t, bin, append([]string{"-cluster", "primary", "-journal-dir", primaryDir}, common...)...)
	primaryOps := waitAddr(t, primary.out, opsAddrRe)
	follower1 := startClusterProc(t, bin, append([]string{"-cluster", "follower:1", "-journal-dir", t.TempDir()}, common...)...)
	follower1Ops := waitAddr(t, follower1.out, opsAddrRe)
	startClusterProc(t, bin, append([]string{"-cluster", "follower:2", "-journal-dir", t.TempDir()}, common...)...)

	replGauge := func(ops, key string) (float64, bool) {
		repl, err := clusterSection(ops, "replication")
		if err != nil {
			return 0, false
		}
		m, ok := repl.(map[string]any)
		if !ok {
			return 0, false
		}
		v, ok := m[key].(float64)
		return v, ok
	}
	pollSmoke(t, "quorum formed on the primary", func() bool {
		repl, err := clusterSection(primaryOps, "replication")
		if err != nil {
			return false
		}
		m, ok := repl.(map[string]any)
		return ok && m["replicas_connected"] == float64(2) && m["quorum_degraded"] == false
	})
	primaryEpoch, ok := replGauge(primaryOps, "epoch")
	if !ok || primaryEpoch < 1 {
		t.Fatalf("primary serving without a fencing epoch (got %v)", primaryEpoch)
	}

	// A longer trace than the failover smoke: the mid-stream gate below
	// needs a wide window of in-flight pictures to observe, even on a
	// loaded machine where stats round-trips are slow.
	tr, err := mpegsmooth.Driving1(2400, 1)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, tr.Len())
	for i, bits := range tr.Sizes {
		payloads[i] = make([]byte, (bits+7)/8)
	}
	hello := mpegsmooth.StreamHello{Tau: tr.Tau, GOP: tr.GOP, K: 1, D: 0.2, Pictures: tr.Len()}
	if hello.PeakRate, err = transport.WirePeak(hello, nil, payloads); err != nil {
		t.Fatal(err)
	}
	rs := &mpegsmooth.ResumableSender{
		Sender: mpegsmooth.Sender{TimeScale: 25, Chunk: 512, WriteTimeout: 5 * time.Second},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addrs[0])
		},
		Hello:       hello,
		Backoff:     mpegsmooth.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond},
		MaxAttempts: 60,
		Seed:        2,
	}
	type result struct {
		res mpegsmooth.StreamResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := rs.Stream(context.Background(), payloads)
		done <- result{res, err}
	}()

	// Kill only while the client is demonstrably mid-stream — no
	// replication catch-up gate: the quorum ack-hold IS the guarantee
	// under test. Gating on the admission gauge alone raced both ways:
	// the gauge flips before the quorum hold releases the verdict, so
	// under disk pressure the kill could land before the client even
	// held a resume token (it re-helloes fresh on the promoted follower
	// and finishes with zero resumes), and a late-observed gauge could
	// push the kill past the end of the stream. Pictures arriving proves
	// the verdict reached the client (the sender starts only after it),
	// and the upper bound keeps at least a second of stream ahead of the
	// kill at this timescale.
	midStreamMax := float64(tr.Len() - 600)
	pollSmoke(t, "client mid-stream on the primary", func() bool {
		doc, err := stats(primaryOps)
		if err != nil {
			return false
		}
		srv, ok := doc["server"].(map[string]any)
		if !ok {
			return false
		}
		streams, ok := srv["streams"].(map[string]any)
		if !ok || streams["admitted"] != float64(1) || streams["active"] != float64(1) {
			return false
		}
		actives, ok := srv["active_streams"].([]any)
		if !ok || len(actives) != 1 {
			return false
		}
		st, ok := actives[0].(map[string]any)
		if !ok {
			return false
		}
		pics, ok := st["pictures"].(float64)
		return ok && pics >= 1 && pics <= midStreamMax
	})
	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.cmd.Wait()
	if err := os.RemoveAll(primaryDir); err != nil {
		t.Fatal(err)
	}
	t.Log("primary killed and its journal dir destroyed")

	r := <-done
	if r.err != nil {
		t.Fatalf("client did not survive the quorum failover: %v\nfollower output:\n%s", r.err, follower1.out.String())
	}
	if r.res.Resumes < 1 {
		t.Errorf("client finished with no resume — the kill never landed mid-stream")
	}

	pollSmoke(t, "rank 1 promoted under a higher epoch", func() bool {
		role, err := clusterSection(follower1Ops, "role")
		if err != nil || role != "primary" {
			return false
		}
		epoch, ok := replGauge(follower1Ops, "epoch")
		return ok && epoch > primaryEpoch
	})
	t.Logf("quorum failover complete: %d resume(s)", r.res.Resumes)
}
