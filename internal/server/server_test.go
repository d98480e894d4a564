package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/transport"
)

// soakTimeScale compresses schedule time in every test so multi-second
// schedules replay in milliseconds.
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
	var err error
	if hello.PeakRate, err = transport.WirePeak(hello, nil, payloads); err != nil {
		t.Fatal(err)
	}
	return &clientKit{tr: tr, payloads: payloads, hello: hello}
}

// stream dials, declares, and — when admitted — uploads the whole trace.
func (c *clientKit) stream(ctx context.Context, addr string) (transport.Verdict, error) {
	return c.streamWith(ctx, addr, soakTimeScale, nil)
}

// streamWith is stream with schedule time running scale times faster
// than the wall clock; the benchmarks collapse client-side pacing
// entirely (scale 1e6) so they time the server machinery, not the
// schedule clock. Like ResumableSender, it uploads each picture whole
// at its encoder arrival and sends no rate frame: the server smooths.
// When admitted, it calls gate (if set) after reading the verdict and
// streams only once gate returns.
func (c *clientKit) streamWith(ctx context.Context, addr string, scale float64, gate func()) (transport.Verdict, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return transport.Verdict{}, err
	}
	defer conn.Close()
	fw := transport.NewFrameWriter(conn)
	if err := fw.WriteHello(c.hello); err != nil {
		return transport.Verdict{}, err
	}
	fr := transport.NewFrameReader(conn)
	v, err := fr.ReadVerdict()
	if err != nil || !v.IsAdmitted() {
		return v, err
	}
	if gate != nil {
		gate()
	}
	p := transport.NewPacer(nil, scale, 0, 0)
	for i, payload := range c.payloads {
		if err := p.Wait(ctx, float64(i)*c.tr.Tau); err != nil {
			return v, err
		}
		if err := fw.WritePictureHeader(i, c.tr.TypeOf(i), payload); err != nil {
			return v, err
		}
		if err := fw.WriteChunk(payload); err != nil {
			return v, err
		}
	}
	if err := fw.WriteEnd(); err != nil {
		return v, err
	}
	// Wait for the completion ack so the server's final write never races
	// our close — with a resume window configured, a reset ack write
	// would otherwise park the finished stream for the whole window.
	fr.ReadMessageTimeout(10 * time.Second)
	return v, nil
}

// handshake dials and declares, returning the open connection with its
// framers for tests that hold sessions without streaming.
func (c *clientKit) handshake(t testing.TB, addr string) (net.Conn, *transport.FrameWriter, transport.Verdict) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fw := transport.NewFrameWriter(conn)
	if err := fw.WriteHello(c.hello); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	v, err := transport.NewFrameReader(conn).ReadVerdict()
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return conn, fw, v
}

func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.TimeScale == 0 {
		cfg.TimeScale = soakTimeScale
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// waitFor polls until cond holds or the deadline passes.
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

func TestSingleStreamEndToEnd(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	srv, addr := startServer(t, Config{LinkRate: 2 * kit.hello.PeakRate})

	v, err := kit.stream(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsAdmitted() {
		t.Fatalf("stream rejected: %+v", v)
	}
	waitFor(t, "stream completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })

	snap := srv.Snapshot()
	if snap.Streams.Admitted != 1 || snap.Streams.Failed != 0 || snap.Streams.Active != 0 {
		t.Fatalf("counters %+v", snap.Streams)
	}
	var totalBits int64
	for _, p := range kit.payloads {
		totalBits += int64(len(p)) * 8
	}
	if snap.EgressedBits != totalBits {
		t.Fatalf("egressed %d bits, want %d", snap.EgressedBits, totalBits)
	}
	fin := srv.FinishedStreams()
	if len(fin) != 1 {
		t.Fatalf("%d finished snapshots", len(fin))
	}
	ss := fin[0]
	if ss.Pictures != kit.tr.Len() || ss.Decisions != kit.tr.Len() {
		t.Fatalf("pictures %d decisions %d, want %d", ss.Pictures, ss.Decisions, kit.tr.Len())
	}
	if ss.MaxDelay > ss.DelayBound || ss.DelayHeadroom < 0 {
		t.Fatalf("delay bound broken: max %.4f bound %.4f", ss.MaxDelay, ss.DelayBound)
	}
	if ss.SessionPeak <= 0 || ss.PeakViolations != 0 || ss.OutOfBand != 0 {
		t.Fatalf("stream snapshot %+v", ss)
	}
	// The kit declares the peak over the bytes it sends, which is what
	// the server smooths.
	if ss.SessionPeak > ss.DeclaredPeak {
		t.Fatalf("session peak %.0f above declared %.0f", ss.SessionPeak, ss.DeclaredPeak)
	}
}

// TestUnderDeclaredStreamCountsItsOwnViolations: a sender declaring 0.7×
// the peak of the bytes it sends is admitted beside an honest one on a
// link sized to the two declarations. Neither sends a rate frame; the
// server polices its own decisions. The under-declared stream's
// peak_violations is the number of pictures the server decides above
// its declaration, and the honest stream reads 0.
func TestUnderDeclaredStreamCountsItsOwnViolations(t *testing.T) {
	honest := makeClient(t, testTrace(t, 54))
	under := *honest
	under.hello.PeakRate *= 0.7
	srv, addr := startServer(t, Config{LinkRate: honest.hello.PeakRate + under.hello.PeakRate})

	// On a declared-length stream the server's decisions are the offline
	// schedule of the 8·len(p) bits it smooths per picture.
	sizes := make([]int64, len(honest.payloads))
	for i, p := range honest.payloads {
		sizes[i] = int64(len(p)) * 8
	}
	sched, err := core.Smooth(&trace.Trace{Tau: honest.tr.Tau, GOP: honest.tr.GOP, Sizes: sizes},
		core.Config{K: honest.hello.K, H: honest.tr.GOP.N, D: honest.hello.D})
	if err != nil {
		t.Fatal(err)
	}
	above := 0
	for _, r := range sched.Rates {
		if r > under.hello.PeakRate*(1+1e-9) {
			above++
		}
	}
	if above == 0 {
		t.Fatal("no decision above the under-declared peak: the test shows nothing")
	}
	t.Logf("%d of %d decisions above 0.7× the wire peak", above, len(sched.Rates))

	var wg sync.WaitGroup
	for i, kit := range []*clientKit{honest, &under} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := resumableClient(kit, addr, int64(i+1)).Stream(t.Context(), kit.payloads); err != nil {
				t.Errorf("stream declaring %.0f bit/s: %v", kit.hello.PeakRate, err)
			}
		}()
	}
	wg.Wait()
	waitFor(t, "both streams complete", func() bool { return srv.Snapshot().Streams.Completed == 2 })
	fin := srv.FinishedStreams()
	if len(fin) != 2 {
		t.Fatalf("%d finished snapshots, want 2", len(fin))
	}
	for _, ss := range fin {
		want := 0
		if ss.DeclaredPeak == under.hello.PeakRate {
			want = above
		}
		if ss.PeakViolations != want {
			t.Errorf("stream declaring %.0f bit/s (session peak %.0f): %d peak violations, want %d",
				ss.DeclaredPeak, ss.SessionPeak, ss.PeakViolations, want)
		}
	}
}

// TestRateFrameMidStreamFailsStream: the server decides every rate
// itself, so a rate frame after the handshake is an unexpected message,
// like a second hello. It fails the stream at once, even one holding a
// resume token, and releases its reservation.
func TestRateFrameMidStreamFailsStream(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	var (
		mu     sync.Mutex
		failed []string
	)
	srv, addr := startServer(t, Config{
		LinkRate:     2 * kit.hello.PeakRate,
		ResumeWindow: 10 * time.Second,
		Logf: func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.Contains(line, "failed") {
				mu.Lock()
				failed = append(failed, line)
				mu.Unlock()
			}
		},
	})
	conn, fw, v := kit.handshake(t, addr)
	defer conn.Close()
	if !v.IsAdmitted() || v.ResumeToken == 0 {
		t.Fatalf("verdict %+v", v)
	}
	sendPictures(t, fw, kit, 0, 3)
	if err := fw.WriteRate(transport.RateNotification{Index: 3, Rate: kit.hello.PeakRate}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stream fails", func() bool {
		s := srv.Snapshot()
		return s.Streams.Failed == 1 && s.Streams.Active == 0
	})
	if snap := srv.Snapshot(); snap.Streams.Parked != 0 || snap.ReservedPeak != 0 {
		t.Errorf("after the rate frame: %d parked, %.0f bit/s reserved; want 0, 0", snap.Streams.Parked, snap.ReservedPeak)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(failed) != 1 || !strings.Contains(failed[0], "unexpected *transport.RateNotification") {
		t.Errorf("failure lines %q, want one naming the rate frame", failed)
	}
}

func TestAdmissionRejectsOverloadAtAdmission(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	// Capacity for exactly two concurrent streams.
	_, addr := startServer(t, Config{LinkRate: 2.5 * kit.hello.PeakRate})

	// Two sessions declare and then hold the link without finishing.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		conn, _, v := kit.handshake(t, addr)
		defer conn.Close()
		if !v.IsAdmitted() {
			t.Fatalf("stream %d: %+v", i, v)
		}
		held = append(held, conn)
	}
	// The third declaration must be rejected at admission time.
	conn, _, v := kit.handshake(t, addr)
	defer conn.Close()
	if v.Code != transport.RejectedCapacity {
		t.Fatalf("verdict %+v, want rejected-capacity", v)
	}
	if v.Available >= kit.hello.PeakRate {
		t.Fatalf("rejection reports %.0f available, enough for the declared %.0f",
			v.Available, kit.hello.PeakRate)
	}
	for _, c := range held {
		c.Close()
	}
}

// TestAdmissionParkGauge: a dropped connection parks its stream, which
// stays active with its reservation held — the link arithmetic must not
// change just because the sender dropped — and a resume clears the park.
func TestAdmissionParkGauge(t *testing.T) {
	kit := makeClient(t, testTrace(t, 9))
	srv, addr := startServer(t, Config{LinkRate: 2 * kit.hello.PeakRate, ResumeWindow: 20 * time.Second})
	conn, _, v := kit.handshake(t, addr)
	conn.Close()
	if !v.IsAdmitted() || v.ResumeToken == 0 {
		t.Fatalf("verdict %+v", v)
	}
	waitFor(t, "dropped stream parked", func() bool { return srv.Snapshot().Streams.Parked == 1 })
	if snap := srv.Snapshot(); snap.Streams.Active != 1 || snap.ReservedPeak != kit.hello.PeakRate {
		t.Fatalf("parked: active %d, reserved %.0f bps; want 1 and %.0f",
			snap.Streams.Active, snap.ReservedPeak, kit.hello.PeakRate)
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fw := transport.NewFrameWriter(conn2)
	fr := transport.NewFrameReader(conn2)
	if err := fw.WriteResume(transport.StreamResume{Token: v.ResumeToken}); err != nil {
		t.Fatal(err)
	}
	if v2, err := fr.ReadVerdictTimeout(10 * time.Second); err != nil || !v2.IsAdmitted() {
		t.Fatalf("resume verdict %+v, %v", v2, err)
	}
	waitFor(t, "resume clears the park", func() bool { return srv.Snapshot().Streams.Parked == 0 })
	sendPictures(t, fw, kit, 0, kit.tr.Len())
	if err := fw.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr.ReadMessageTimeout(10 * time.Second); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("completion ack: %v", err)
	}
	waitFor(t, "completion", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0 && s.ReservedPeak == 0
	})
}

// TestMaxStreamsRejectsBusy: a hello over the stream cap is turned away
// busy even with capacity to spare, counted once, and reserves nothing.
func TestMaxStreamsRejectsBusy(t *testing.T) {
	kit := makeClient(t, testTrace(t, 9))
	srv, addr := startServer(t, Config{LinkRate: 4 * kit.hello.PeakRate, MaxStreams: 1})
	conn, _, v := kit.handshake(t, addr)
	defer conn.Close()
	if !v.IsAdmitted() {
		t.Fatalf("first hello: %+v", v)
	}
	over, _, v := kit.handshake(t, addr)
	over.Close()
	if v.Code != transport.RejectedBusy {
		t.Fatalf("hello over the cap: verdict %v, want %v", v.Code, transport.RejectedBusy)
	}
	snap := srv.Snapshot()
	if snap.Streams.RejectedBusy != 1 || snap.Streams.Rejected != 1 {
		t.Errorf("rejected_busy %d, rejected %d; want 1 and 1", snap.Streams.RejectedBusy, snap.Streams.Rejected)
	}
	if snap.Streams.Active != 1 || snap.ReservedPeak != kit.hello.PeakRate {
		t.Errorf("after the busy rejection: active %d, reserved %.0f bps; want 1 and %.0f",
			snap.Streams.Active, snap.ReservedPeak, kit.hello.PeakRate)
	}
}

func TestMalformedFirstMessageIsRejected(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	srv, addr := startServer(t, Config{LinkRate: 1e7})

	// A legacy sender that skips the hello gets a malformed verdict.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.NewFrameWriter(conn).WriteRate(transport.RateNotification{Index: 0, Rate: 1e6}); err != nil {
		t.Fatal(err)
	}
	v, err := transport.NewFrameReader(conn).ReadVerdict()
	if err != nil {
		t.Fatal(err)
	}
	if v.Code != transport.RejectedMalformed {
		t.Fatalf("verdict %+v, want rejected-malformed", v)
	}
	waitFor(t, "rejection counted", func() bool {
		return srv.Snapshot().Streams.RejectedMalformed == 1
	})
	// An unsatisfiable smoothing config (D < (K+1)τ) is caught at the
	// hello too, before any capacity is reserved.
	bad := *kit
	bad.hello.D = bad.hello.Tau / 2
	conn2, _, v2 := bad.handshake(t, addr)
	defer conn2.Close()
	if v2.Code != transport.RejectedMalformed {
		t.Fatalf("verdict %+v, want rejected-malformed", v2)
	}
	if got := srv.Snapshot().ReservedPeak; got != 0 {
		t.Fatalf("malformed hellos reserved %.0f bps", got)
	}
}

// TestIntegrityModeMismatchRejected: an HMAC server turns away a
// default-FNV hello at admission — before reserving capacity — and a
// plain-FNV server likewise refuses an HMAC hello, so a sender can
// never stream under a prefix-hash regime the server won't verify.
func TestIntegrityModeMismatchRejected(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	srv, addr := startServer(t, Config{
		LinkRate:     1e7,
		Integrity:    transport.IntegrityHMAC,
		IntegrityKey: []byte("server-side-secret"),
	})

	// kit.hello is zero-valued Integrity == IntegrityFNV.
	conn, _, v := kit.handshake(t, addr)
	defer conn.Close()
	if v.Code != transport.RejectedMalformed {
		t.Fatalf("FNV hello against HMAC server: verdict %+v, want rejected-malformed", v)
	}
	if got := srv.Snapshot().ReservedPeak; got != 0 {
		t.Fatalf("mismatched hello reserved %.0f bps", got)
	}

	// The right mode is admitted on the same server.
	ok := *kit
	ok.hello.Integrity = transport.IntegrityHMAC
	conn2, _, v2 := ok.handshake(t, addr)
	defer conn2.Close()
	if !v2.IsAdmitted() {
		t.Fatalf("HMAC hello against HMAC server: verdict %+v", v2)
	}

	// And the mirror image: an FNV server refuses an HMAC hello.
	_, addrFNV := startServer(t, Config{LinkRate: 1e7})
	conn3, _, v3 := ok.handshake(t, addrFNV)
	defer conn3.Close()
	if v3.Code != transport.RejectedMalformed {
		t.Fatalf("HMAC hello against FNV server: verdict %+v, want rejected-malformed", v3)
	}
}

func TestServerReadTimeoutCutsStalledStream(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	srv, addr := startServer(t, Config{LinkRate: 1e7, ReadTimeout: 100 * time.Millisecond})

	conn, _, v := kit.handshake(t, addr)
	defer conn.Close()
	if !v.IsAdmitted() {
		t.Fatalf("%+v", v)
	}
	// Stall: send nothing further. The read deadline must fail the
	// stream and release its reservation.
	waitFor(t, "stalled stream cut off", func() bool {
		s := srv.Snapshot()
		return s.Streams.Failed == 1 && s.Streams.Active == 0
	})
	if got := srv.Snapshot().AvailablePeak; got != 1e7 {
		t.Fatalf("reservation not released: %.0f available", got)
	}
}

func TestOpsEndpoint(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	srv, addr := startServer(t, Config{LinkRate: 1.5 * kit.hello.PeakRate})
	ops := httptest.NewServer(srv.OpsHandler())
	defer ops.Close()

	// One rejected stream (declares more than the whole link)...
	big := *kit
	big.hello.PeakRate = 10 * srv.Snapshot().CapacityBPS
	conn, _, v := big.handshake(t, addr)
	if v.Code != transport.RejectedCapacity {
		t.Fatalf("verdict %+v", v)
	}
	conn.Close()
	// ...and one completed stream.
	if v, err := kit.stream(t.Context(), addr); err != nil || !v.IsAdmitted() {
		t.Fatalf("%+v, %v", v, err)
	}
	waitFor(t, "completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ops.Client().Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/livez"); code != 200 || body != "ok\n" {
		t.Fatalf("livez %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthz %d %q", code, body)
	}
	code, body := get("/stats")
	if code != 200 {
		t.Fatalf("stats %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, body)
	}
	if snap.Streams.Admitted != 1 || snap.Streams.Rejected != 1 ||
		snap.Streams.RejectedCapacity != 1 || snap.Streams.Completed != 1 {
		t.Fatalf("stats counters %+v", snap.Streams)
	}
	if snap.CapacityBPS != 1.5*kit.hello.PeakRate || snap.EgressedBits == 0 {
		t.Fatalf("stats capacity %.0f egressed %d", snap.CapacityBPS, snap.EgressedBits)
	}
	if snap.DelayViolations != 0 || snap.WorstDelayHeadroomS <= 0 {
		t.Fatalf("delay fields: violations %d headroom %v", snap.DelayViolations, snap.WorstDelayHeadroomS)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "smoothd") {
		t.Fatalf("expvar %d: smoothd var missing\n%s", code, body)
	}
}

// nanPolicy selects NaN for every picture: the kernel passes it through.
type nanPolicy struct{}

func (nanPolicy) Select(*core.Bounds, *core.State) float64 { return math.NaN() }
func (nanPolicy) Name() string                             { return "nan" }

// TestNaNPolicyFailsStream: a custom policy's NaN rate reaches no
// egress pacer. The stream fails on its first decision as a delay
// violation, its reservation is released, and the ops snapshot stays
// JSON-encodable on every sample taken while it runs.
func TestNaNPolicyFailsStream(t *testing.T) {
	kit := makeClient(t, testTrace(t, 20))
	srv, addr := startServer(t, Config{LinkRate: 2 * kit.hello.PeakRate, Policy: nanPolicy{}})

	stop := make(chan struct{})
	type sampled struct {
		active int
		err    error
	}
	done := make(chan sampled, 1)
	seen := make(chan struct{}) // closed by the first sample with the stream active
	go func() {
		var got sampled
		for {
			snap := srv.Snapshot()
			if _, err := json.Marshal(snap); err != nil && got.err == nil {
				got.err = err
			}
			if got.active == 0 && len(snap.PerStream) > 0 {
				close(seen)
			}
			got.active += len(snap.PerStream)
			select {
			case <-stop:
				done <- got
				return
			default:
			}
		}
	}()
	// The server cuts the sender off mid-stream; its error is expected.
	// The first picture, which the server fails on, goes once a sample
	// has seen the stream active.
	v, _ := kit.streamWith(t.Context(), addr, soakTimeScale, func() {
		select {
		case <-seen:
		case <-time.After(10 * time.Second):
		}
	})
	if !v.IsAdmitted() {
		t.Fatalf("verdict %+v", v)
	}
	waitFor(t, "the NaN stream ends", func() bool { return srv.Snapshot().Streams.Active == 0 })
	close(stop)
	got := <-done
	if got.err != nil {
		t.Errorf("snapshot taken while the stream ran: %v", got.err)
	}
	if got.active == 0 {
		t.Error("no snapshot saw the stream active")
	}
	snap := srv.Snapshot()
	if snap.Streams.Failed != 1 || snap.Streams.Completed != 0 || snap.DelayViolations != 1 {
		t.Errorf("failed %d, completed %d, delay violations %d; want 1, 0, 1",
			snap.Streams.Failed, snap.Streams.Completed, snap.DelayViolations)
	}
	if snap.EgressedBits != 0 || snap.ReservedPeak != 0 {
		t.Errorf("egressed %d bits, reserved %v bit/s after the stream; want 0, 0", snap.EgressedBits, snap.ReservedPeak)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot after the stream: %v", err)
	}
}

// TestSoakConcurrentClients is the acceptance soak: 28 identical
// clients hit a link provisioned for exactly 20 of them. Exactly 20 are
// admitted (in whatever order the race resolves), every admitted stream
// completes within its delay bound, and the 8 others are rejected at
// admission — never dropped mid-stream.
func TestSoakConcurrentClients(t *testing.T) {
	const admitN, totalN = 20, 28
	kit := makeClient(t, testTrace(t, 36))
	srv, addr := startServer(t, Config{LinkRate: float64(admitN) * kit.hello.PeakRate})

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
		rejected int
		failures []error
		// verdicts holds every admitted client after its verdict until
		// all totalN verdicts are in: a stream that finished early would
		// release its reservation and let a late hello in.
		verdicts sync.WaitGroup
	)
	verdicts.Add(totalN)
	for i := 0; i < totalN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			held := false
			v, err := kit.streamWith(t.Context(), addr, soakTimeScale, func() {
				held = true
				verdicts.Done()
				verdicts.Wait()
			})
			if !held {
				verdicts.Done()
			}
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				failures = append(failures, fmt.Errorf("client %d: %w", i, err))
			case v.IsAdmitted():
				admitted++
			case v.Code == transport.RejectedCapacity:
				rejected++
			default:
				failures = append(failures, fmt.Errorf("client %d: verdict %+v", i, v))
			}
		}(i)
	}
	wg.Wait()
	for _, err := range failures {
		t.Error(err)
	}
	if admitted != admitN || rejected != totalN-admitN {
		t.Fatalf("admitted %d rejected %d, want %d/%d", admitted, rejected, admitN, totalN-admitN)
	}
	waitFor(t, "all streams drained", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == admitN && s.Streams.Active == 0
	})

	snap := srv.Snapshot()
	if snap.Streams.Failed != 0 {
		t.Fatalf("%d streams failed mid-stream", snap.Streams.Failed)
	}
	if snap.Streams.Admitted != admitN || snap.Streams.RejectedCapacity != int64(totalN-admitN) {
		t.Fatalf("server counters %+v", snap.Streams)
	}
	// Lossless: every admitted picture crossed the link.
	var streamBits int64
	for _, p := range kit.payloads {
		streamBits += int64(len(p)) * 8
	}
	if snap.EgressedBits != int64(admitN)*streamBits {
		t.Fatalf("egressed %d bits, want %d", snap.EgressedBits, int64(admitN)*streamBits)
	}
	// Every admitted stream met its delay bound D.
	if snap.DelayViolations != 0 || snap.WorstDelayHeadroomS < 0 {
		t.Fatalf("delay bound: %d violations, worst headroom %v",
			snap.DelayViolations, snap.WorstDelayHeadroomS)
	}
	fin := srv.FinishedStreams()
	if len(fin) != admitN {
		t.Fatalf("%d finished snapshots", len(fin))
	}
	for _, ss := range fin {
		if ss.Pictures != kit.tr.Len() || ss.DelayHeadroom < 0 {
			t.Fatalf("stream %d: pictures %d, max delay %v > bound %v",
				ss.ID, ss.Pictures, ss.MaxDelay, ss.DelayBound)
		}
	}
	// The reservation ledger is back to empty.
	if snap.ReservedPeak != 0 || snap.AvailablePeak != snap.CapacityBPS {
		t.Fatalf("reservations leaked: %.0f reserved", snap.ReservedPeak)
	}
}

func TestGracefulDrainLetsActiveStreamsFinish(t *testing.T) {
	kit := makeClient(t, testTrace(t, 54))
	srv, err := New(Config{LinkRate: 1e7, TimeScale: soakTimeScale})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	clientDone := make(chan error, 1)
	go func() {
		_, err := kit.stream(context.Background(), ln.Addr().String())
		clientDone <- err
	}()
	waitFor(t, "stream active", func() bool { return srv.Snapshot().Streams.Active == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := <-clientDone; err != nil {
		t.Fatalf("client during drain: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Streams.Completed != 1 || snap.Streams.Failed != 0 {
		t.Fatalf("drain outcome %+v", snap.Streams)
	}
	// After shutdown, new sessions are refused outright.
	if _, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

func TestShutdownForceCancelsStalledStreams(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	srv, err := New(Config{LinkRate: 1e7, TimeScale: soakTimeScale})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, _, v := kit.handshake(t, ln.Addr().String())
	defer conn.Close()
	if !v.IsAdmitted() {
		t.Fatalf("%+v", v)
	}
	// The stream stalls; a bounded drain must cut it loose.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain returned %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	snap := srv.Snapshot()
	if snap.Streams.Failed != 1 || snap.Streams.Active != 0 {
		t.Fatalf("forced drain outcome %+v", snap.Streams)
	}
}

// TestServeAfterStopReleasesListener: Serve on a server that Kill or
// Shutdown already stopped refuses to serve and closes the listener it
// was handed, so the address is free for the next server.
func TestServeAfterStopReleasesListener(t *testing.T) {
	for name, stop := range map[string]func(*Server){
		"kill":     (*Server).Kill,
		"shutdown": func(s *Server) { s.Shutdown(context.Background()) },
	} {
		t.Run(name, func(t *testing.T) {
			srv, err := New(Config{LinkRate: 1e7})
			if err != nil {
				t.Fatal(err)
			}
			stop(srv)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			if err := srv.Serve(ln); err == nil {
				t.Error("Serve on a stopped server returned nil")
			}
			again, err := net.Listen("tcp", ln.Addr().String())
			if err != nil {
				t.Fatalf("address still bound after Serve returned: %v", err)
			}
			again.Close()
		})
	}
}
