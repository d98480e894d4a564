package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mpegsmooth"
	"mpegsmooth/internal/transport"
)

// syncBuffer makes run's output safe to read while server goroutines
// are still logging to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var (
	streamAddrRe = regexp.MustCompile(`streams on (\S+),`)
	opsAddrRe    = regexp.MustCompile(`ops on http://(\S+)/stats`)
)

func waitAddr(t *testing.T, out *syncBuffer, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("address line %v never appeared in output:\n%s", re, out.String())
	return ""
}

// TestRunServesAndDrains boots the daemon on ephemeral ports, streams
// one handshaked session through it, reads the ops endpoint, then
// cancels the context and expects a clean drain with an exit summary.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-listen", "127.0.0.1:0",
			"-ops", "127.0.0.1:0",
			"-capacity", "50e6",
			"-policy", "moving-average",
			"-timescale", "200",
		}, out)
	}()
	addr := waitAddr(t, out, streamAddrRe)
	opsAddr := waitAddr(t, out, opsAddrRe)

	// One full client session: declare the peak of the bytes sent under
	// the daemon's policy, then upload each picture whole at its encoder
	// arrival, as ResumableSender does, and await the completion ack.
	tr, err := mpegsmooth.Driving1(36, 1)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, tr.Len())
	for i, s := range tr.Sizes {
		payloads[i] = make([]byte, int((s+7)/8))
	}
	hello := mpegsmooth.StreamHello{Tau: tr.Tau, GOP: tr.GOP, K: 1, D: 0.2, Pictures: tr.Len()}
	if hello.PeakRate, err = transport.WirePeak(hello, mpegsmooth.MovingAveragePolicy{}, payloads); err != nil {
		t.Fatal(err)
	}
	rs := &mpegsmooth.ResumableSender{
		Sender: mpegsmooth.Sender{TimeScale: 200},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		Hello: hello,
	}
	if res, err := rs.Stream(ctx, payloads); err != nil || !res.Verdict.IsAdmitted() {
		t.Fatalf("admission: %+v, %v", res.Verdict, err)
	}

	// The ops endpoint on its ephemeral port answers while serving.
	waitStats := func(substr string) string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		var last string
		for time.Now().Before(deadline) {
			resp, err := http.Get("http://" + opsAddr + "/stats")
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				last = string(body)
				if strings.Contains(last, substr) {
					return last
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("/stats never contained %q; last:\n%s", substr, last)
		return ""
	}
	stats := waitStats(`"completed": 1`)
	if !strings.Contains(stats, `"admitted": 1`) {
		t.Fatalf("stats missing admitted count:\n%s", stats)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not exit after cancel")
	}
	text := out.String()
	if !strings.Contains(text, "draining") || !strings.Contains(text, "1 admitted") ||
		!strings.Contains(text, "1 completed, 0 failed") {
		t.Fatalf("exit summary missing:\n%s", text)
	}
}

// TestRunJournalAndHMACFlags boots the daemon with -journal-dir and
// -integrity hmac-sha256:<keyfile>, streams one keyed session through
// it, restarts it on the same journal, and expects the second boot to
// recover the completion tombstone and answer the old resume token
// with AlreadyComplete — the full crash-safety story through the CLI
// surface alone.
func TestRunJournalAndHMACFlags(t *testing.T) {
	dir := t.TempDir()
	keyfile := filepath.Join(dir, "stream.key")
	if err := os.WriteFile(keyfile, []byte("cli-shared-secret\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	journalDir := filepath.Join(dir, "journal")

	boot := func(ctx context.Context) (*syncBuffer, chan error, string) {
		out := &syncBuffer{}
		done := make(chan error, 1)
		go func() {
			done <- run(ctx, []string{
				"-listen", "127.0.0.1:0",
				"-ops", "",
				"-capacity", "50e6",
				"-timescale", "200",
				"-journal-dir", journalDir,
				"-integrity", "hmac-sha256:" + keyfile,
			}, out)
		}()
		return out, done, waitAddr(t, out, streamAddrRe)
	}
	stop := func(cancel context.CancelFunc, done chan error) {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("run did not exit after cancel")
		}
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	out1, done1, addr := boot(ctx1)
	if !strings.Contains(out1.String(), "recovered 0 parked stream(s), 0 completion tombstone(s)") {
		t.Fatalf("first boot's journal line missing:\n%s", out1.String())
	}

	tr, err := mpegsmooth.Driving1(36, 1)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, tr.Len())
	for i, s := range tr.Sizes {
		payloads[i] = make([]byte, int((s+7)/8))
	}
	hello := mpegsmooth.StreamHello{Tau: tr.Tau, GOP: tr.GOP, K: 1, D: 0.2, Pictures: tr.Len()}
	if hello.PeakRate, err = transport.WirePeak(hello, nil, payloads); err != nil {
		t.Fatal(err)
	}
	rs := &mpegsmooth.ResumableSender{
		Sender: mpegsmooth.Sender{TimeScale: 200},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		Hello:     hello,
		Integrity: mpegsmooth.IntegrityHMAC,
		Key:       []byte("cli-shared-secret"),
	}
	res, err := rs.Stream(context.Background(), payloads)
	if err != nil {
		t.Fatal(err)
	}
	stop(cancel1, done1)

	// Second boot, same journal: the graceful first exit left no parked
	// stream but the completion tombstone survives its TTL.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	out2, done2, addr2 := boot(ctx2)
	if !strings.Contains(out2.String(), "recovered 0 parked stream(s), 1 completion tombstone(s)") {
		t.Fatalf("restart did not recover the tombstone:\n%s", out2.String())
	}
	conn, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := mpegsmooth.NewFrameWriter(conn).WriteResume(mpegsmooth.StreamResume{Token: res.Verdict.ResumeToken}); err != nil {
		t.Fatal(err)
	}
	v, err := mpegsmooth.NewFrameReader(conn).ReadVerdict()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != mpegsmooth.StreamAlreadyComplete || v.NextIndex != tr.Len() {
		t.Fatalf("post-restart resume verdict %+v, want already-complete at %d", v, tr.Len())
	}
	stop(cancel2, done2)
}

func TestRunRejectsBadFlags(t *testing.T) {
	out := &syncBuffer{}
	cases := [][]string{
		{"-capacity", "0"},
		{"-policy", "no-such-policy"},
		{"-listen", "256.0.0.1:bad"},
		{"-integrity", "no-such-mode"},
		{"-integrity", "hmac-sha256:"},
		{"-integrity", "hmac-sha256:/no/such/keyfile"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
