package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"mpegsmooth/internal/soaktest"
	"mpegsmooth/internal/transport"
)

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
		if t.Failed() {
			t.Logf("%s output:\n%s", strings.Join(args, " "), p.out.String())
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

// serverStats reads the server section of a node's /stats document as
// soaktest.Check reads it; ok is false while the node serves none.
func serverStats(t *testing.T, opsAddr string) (st soaktest.Stats, ok bool) {
	doc, err := stats(opsAddr)
	if err != nil || doc["server"] == nil {
		return st, false
	}
	return soaktest.Read(t, doc["server"], nil), true
}

// smoke is one shard of smoothd OS processes under test: rank 0 starts
// as the primary, the others as its followers.
type smoke struct {
	procs     []*clusterProc
	ops, dirs []string
}

// repl reads one gauge of a node's replication status.
func (sh *smoke) repl(rank int, key string) any {
	repl, err := clusterSection(sh.ops[rank], "replication")
	if err != nil {
		return nil
	}
	m, _ := repl.(map[string]any)
	return m[key]
}

// runSmoke builds smoothd and starts ranks processes of shard alpha,
// with the flags every smoke shares plus extra, and waits until ready
// holds. One resumable client then streams the first pictures of
// Driving1 through the shard. Once underway holds, given the primary's
// stats, the primary dies by SIGKILL and its journal directory is
// destroyed. The client must finish through rank 1, which promoted must
// show promoted, and the run ends through soaktest.Check: the primary's
// stats as last read, and rank 1's once it has drained, with the
// tombstone of the client's stream standing in for the stream it
// finished. Rank 1 then stops on SIGTERM, and its journal directory
// must hold no stream.
func runSmoke(t *testing.T, ranks, pictures int, seed int64, extra []string,
	ready func(sh *smoke) bool, underway func(sh *smoke, primary soaktest.Stats) bool, promoted func(sh *smoke) bool) {
	if testing.Short() {
		t.Skip("cluster smoke skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "smoothd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building smoothd: %v\n%s", err, out)
	}
	addrs := soaktest.FreeAddrs(t, 2)
	args := append([]string{"-shard", "alpha", "-peers", "alpha=" + addrs[0] + "/" + addrs[1],
		"-ops", "127.0.0.1:0", "-capacity", "50e6", "-timescale", "25",
		"-resume-window", "30s", "-failover-timeout", "500ms"}, extra...)
	sh := &smoke{}
	for rank := range ranks {
		role := "primary"
		if rank > 0 {
			role = fmt.Sprintf("follower:%d", rank)
		}
		dir := t.TempDir()
		p := startClusterProc(t, bin, append([]string{"-cluster", role, "-journal-dir", dir}, args...)...)
		sh.procs, sh.dirs = append(sh.procs, p), append(sh.dirs, dir)
		sh.ops = append(sh.ops, waitAddr(t, p.out, opsAddrRe))
	}
	soaktest.WaitFor(t, "the shard ready", func() bool { return ready(sh) })

	kit := soaktest.NewKit(t, pictures)
	soak := soaktest.StartSoak(t, kit, 1, func(int) *transport.ResumableSender {
		rs := kit.Resumable(addrs[0], seed)
		rs.Sender.TimeScale, rs.MaxAttempts = 25, 60
		return rs
	})
	var primary soaktest.Stats
	soaktest.WaitFor(t, "the client underway on the primary", func() bool {
		st, ok := serverStats(t, sh.ops[0])
		primary = st
		return ok && underway(sh, st)
	})
	if err := sh.procs[0].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	sh.procs[0].cmd.Wait()
	if err := os.RemoveAll(sh.dirs[0]); err != nil {
		t.Fatal(err)
	}
	t.Log("primary killed and its journal dir destroyed")
	tally := soak.Wait()
	if tally.Resumes < 1 {
		t.Errorf("client finished with no resume — the kill never landed mid-stream")
	}
	soaktest.WaitFor(t, "rank 1 promoted", func() bool { return promoted(sh) })

	var st soaktest.Stats
	soaktest.WaitFor(t, "rank 1 drained", func() bool {
		var ok bool
		st, ok = serverStats(t, sh.ops[1])
		return ok && st.Streams.Active == 0 && st.Streams.Parked == 0
	})
	st.Finished = []soaktest.Stream{soaktest.Tombstone(t, addrs[0], tally.Results[0].Verdict.ResumeToken)}
	if err := sh.procs[1].cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := sh.procs[1].cmd.Wait(); err != nil {
		t.Errorf("rank 1's exit: %v", err)
	}
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{primary, st},
		AlreadyComplete: tally.AlreadyComplete, JournalDir: sh.dirs[1]})
	t.Logf("failover complete: %d resume(s)", tally.Resumes)
}

// TestClusterFailoverSmoke is the two-process smoke `make cluster` runs:
// a primary and a follower smoothd as real OS processes, and the primary
// killed once the client is streaming and the follower has replicated
// its admission.
func TestClusterFailoverSmoke(t *testing.T) {
	runSmoke(t, 2, 240, 1, nil,
		func(sh *smoke) bool { return sh.repl(1, "connected") == true },
		func(sh *smoke, primary soaktest.Stats) bool {
			return primary.Streams.Admitted == 1 &&
				sh.repl(1, "applied_admits") == float64(1) && sh.repl(1, "lag_records") == float64(0)
		},
		func(sh *smoke) bool {
			role, err := clusterSection(sh.ops[1], "role")
			return err == nil && role == "primary"
		})
}

// TestClusterQuorumSmoke is the quorum-replication variant: THREE
// smoothd OS processes (a primary and two followers) running with
// -replicas 2 -quorum 2, so every verdict is held for a follower ack.
// The primary is killed with no catch-up gate beyond the admission
// verdict itself — the quorum ack-hold is what guarantees the promoted
// follower carries the session. The promoted node must report a higher
// fencing epoch than the dead primary served under.
func TestClusterQuorumSmoke(t *testing.T) {
	var epoch float64 // the primary's fencing epoch
	// A longer trace than the failover smoke: the mid-stream gate below
	// needs a wide window of in-flight pictures to observe, even on a
	// loaded machine where stats round-trips are slow.
	const pictures = 2400
	runSmoke(t, 3, pictures, 2, []string{"-replicas", "2", "-quorum", "2", "-ack-timeout", "250ms"},
		func(sh *smoke) bool {
			epoch, _ = sh.repl(0, "epoch").(float64)
			return sh.repl(0, "replicas_connected") == float64(2) && sh.repl(0, "quorum_degraded") == false && epoch >= 1
		},
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
		func(_ *smoke, primary soaktest.Stats) bool {
			return primary.Streams.Admitted == 1 && primary.Streams.Active == 1 && len(primary.Active) == 1 &&
				primary.Active[0].Pictures >= 1 && primary.Active[0].Pictures <= pictures-600
		},
		func(sh *smoke) bool {
			role, err := clusterSection(sh.ops[1], "role")
			next, _ := sh.repl(1, "epoch").(float64)
			return err == nil && role == "primary" && next > epoch
		})
}
