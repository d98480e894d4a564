package soaktest

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/transport"
)

// ClientOption adjusts the sender Resumable builds for addr.
type ClientOption func(rs *transport.ResumableSender, addr string)

// Resumable builds the reconnect-and-resume sender every soak drives. It
// dials addr over TCP and follows shard redirects; it uploads at
// TimeScale in 512-byte chunks under the kit's hello (its integrity mode
// included) and key; and it retries up to 25 consecutive times on a
// 10–200 ms backoff whose jitter seed fixes.
func (k *Kit) Resumable(addr string, seed int64, opts ...ClientOption) *transport.ResumableSender {
	dial := func(ctx context.Context, target string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", target)
	}
	rs := &transport.ResumableSender{
		Sender:      transport.Sender{TimeScale: TimeScale, Chunk: 512, WriteTimeout: 5 * time.Second},
		Dial:        func(ctx context.Context) (net.Conn, error) { return dial(ctx, addr) },
		DialAddr:    dial,
		Hello:       k.Hello,
		Backoff:     transport.Backoff{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond},
		MaxAttempts: 25,
		Seed:        seed,
		Key:         k.Key,
	}
	for _, opt := range opts {
		opt(rs, addr)
	}
	return rs
}

// Datagram makes the sender dial ARQ flows over UDP through nw, with a
// fresh socket (and flow incarnation) per reconnect, exactly like the
// production dial path. A lossy channel gets a 10 s write timeout and
// 40 attempts.
func Datagram(nw *faultnet.PacketNet, cfg transport.DatagramConfig) ClientOption {
	return func(rs *transport.ResumableSender, addr string) {
		rs.Dial = func(ctx context.Context) (net.Conn, error) {
			raddr, err := net.ResolveUDPAddr("udp", addr)
			if err != nil {
				return nil, err
			}
			udp, err := net.DialUDP("udp", nil, raddr)
			if err != nil {
				return nil, err
			}
			return transport.NewDatagramClientConn(nw.WrapConn(udp), cfg), nil
		}
		rs.DialAddr = nil
		rs.Sender.WriteTimeout = 10 * time.Second
		rs.MaxAttempts = 40
	}
}

// Resume dials addr, presents token, and returns the answer.
func Resume(addr string, token uint64) (transport.Verdict, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return transport.Verdict{}, err
	}
	defer conn.Close()
	if err := transport.NewFrameWriter(conn).WriteResume(transport.StreamResume{Token: token}); err != nil {
		return transport.Verdict{}, err
	}
	return transport.NewFrameReader(conn).ReadVerdictTimeout(10 * time.Second)
}

// Tombstone resumes a completed stream's token at addr and returns what
// the AlreadyComplete answer says of the stream: its pictures and prefix
// tag. It stands in for the finished stream of a server that runs in
// another process (Stats.Finished).
func Tombstone(t testing.TB, addr string, token uint64) Stream {
	t.Helper()
	v, err := Resume(addr, token)
	if err != nil {
		t.Fatalf("resuming completed stream %016x: %v", token, err)
	}
	if v.Code != transport.AlreadyComplete {
		t.Fatalf("resuming completed stream %016x: verdict %v, want %v", token, v.Code, transport.AlreadyComplete)
	}
	return Stream{ID: token, Pictures: v.NextIndex, PayloadFNV: v.PrefixFNV}
}

// WaitFor polls cond every 2 ms until it holds, and fails the test after
// 30 s. On a timeout each report adds what it says to the failure
// message, so a harness can show the state that kept cond false.
func WaitFor(t testing.TB, what string, cond func() bool, report ...func() string) {
	t.Helper()
	waitFor(t, 30*time.Second, what, cond, report)
}

func waitFor(t testing.TB, timeout time.Duration, what string, cond func() bool, report []func() string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	var sb strings.Builder
	for _, r := range report {
		sb.WriteString("\n")
		sb.WriteString(r())
	}
	t.Fatalf("timed out waiting for %s%s", what, sb.String())
}

// FreeAddrs reserves n distinct loopback addresses by binding and
// releasing them; the servers under test re-bind them by name.
func FreeAddrs(t testing.TB, n int) []string {
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
