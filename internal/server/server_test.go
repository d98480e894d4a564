package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/soaktest"
	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/transport"
)

// stats is srv as soaktest.Check reads it.
func stats(t testing.TB, srv *Server) soaktest.Stats {
	t.Helper()
	return soaktest.Read(t, srv.Snapshot(), srv.FinishedStreams())
}

// startServer serves cfg on a fresh loopback port until the test ends.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serve(t, cfg, ln), ln.Addr().String()
}

// serve runs a server with cfg, at soaktest.TimeScale unless cfg sets a
// scale, on ln until the test ends.
func serve(t testing.TB, cfg Config, ln net.Listener) *Server {
	t.Helper()
	if cfg.TimeScale == 0 {
		cfg.TimeScale = soaktest.TimeScale
	}
	srv, err := New(cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv
}

func TestSingleStreamEndToEnd(t *testing.T) {
	kit := soaktest.NewKit(t, 54)
	srv, addr := startServer(t, Config{LinkRate: 2 * kit.Hello.PeakRate})

	v, err := kit.Stream(t.Context(), addr)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsAdmitted() {
		t.Fatalf("stream rejected: %+v", v)
	}
	soaktest.WaitFor(t, "stream completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, srv)}})

	snap := srv.Snapshot()
	var totalBits int64
	for _, p := range kit.Payloads {
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
	if ss.Decisions != kit.Trace.Len() {
		t.Fatalf("%d decisions, want %d", ss.Decisions, kit.Trace.Len())
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
	honest := soaktest.NewKit(t, 54)
	under := *honest
	under.Hello.PeakRate *= 0.7
	srv, addr := startServer(t, Config{LinkRate: honest.Hello.PeakRate + under.Hello.PeakRate})

	// On a declared-length stream the server's decisions are the offline
	// schedule of the 8·len(p) bits it smooths per picture.
	sizes := make([]int64, len(honest.Payloads))
	for i, p := range honest.Payloads {
		sizes[i] = int64(len(p)) * 8
	}
	sched, err := core.Smooth(&trace.Trace{Tau: honest.Trace.Tau, GOP: honest.Trace.GOP, Sizes: sizes},
		core.Config{K: honest.Hello.K, H: honest.Trace.GOP.N, D: honest.Hello.D})
	if err != nil {
		t.Fatal(err)
	}
	above := 0
	for _, r := range sched.Rates {
		if r > under.Hello.PeakRate*(1+1e-9) {
			above++
		}
	}
	if above == 0 {
		t.Fatal("no decision above the under-declared peak: the test shows nothing")
	}
	t.Logf("%d of %d decisions above 0.7× the wire peak", above, len(sched.Rates))

	kits := []*soaktest.Kit{honest, &under}
	soaktest.StartSoak(t, honest, len(kits), func(i int) *transport.ResumableSender {
		return kits[i].Resumable(addr, int64(i+1))
	}).Wait()
	soaktest.WaitFor(t, "both streams complete", func() bool { return srv.Snapshot().Streams.Completed == 2 })
	soaktest.Check(t, soaktest.End{Kit: honest, Clients: len(kits), Servers: []soaktest.Stats{stats(t, srv)}})
	for _, ss := range srv.FinishedStreams() {
		want := 0
		if ss.DeclaredPeak == under.Hello.PeakRate {
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
	kit := soaktest.NewKit(t, 27)
	var (
		mu     sync.Mutex
		failed []string
	)
	srv, addr := startServer(t, Config{
		LinkRate:     2 * kit.Hello.PeakRate,
		ResumeWindow: 10 * time.Second,
		Logf: func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.Contains(line, "failed") {
				mu.Lock()
				failed = append(failed, line)
				mu.Unlock()
			}
		},
	})
	_, fw, v := kit.Handshake(t, addr)
	if !v.IsAdmitted() || v.ResumeToken == 0 {
		t.Fatalf("verdict %+v", v)
	}
	kit.Send(t, fw, 0, 3)
	if err := fw.WriteRate(transport.RateNotification{Index: 3, Rate: kit.Hello.PeakRate}); err != nil {
		t.Fatal(err)
	}
	soaktest.WaitFor(t, "the stream fails", func() bool {
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
	kit := soaktest.NewKit(t, 54)
	// Capacity for exactly two concurrent streams.
	_, addr := startServer(t, Config{LinkRate: 2.5 * kit.Hello.PeakRate})

	// Two sessions declare and then hold the link without finishing.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		conn, _, v := kit.Handshake(t, addr)
		if !v.IsAdmitted() {
			t.Fatalf("stream %d: %+v", i, v)
		}
		held = append(held, conn)
	}
	// The third declaration must be rejected at admission time.
	_, _, v := kit.Handshake(t, addr)
	if v.Code != transport.RejectedCapacity {
		t.Fatalf("verdict %+v, want rejected-capacity", v)
	}
	if v.Available >= kit.Hello.PeakRate {
		t.Fatalf("rejection reports %.0f available, enough for the declared %.0f",
			v.Available, kit.Hello.PeakRate)
	}
	for _, c := range held {
		c.Close()
	}
}

// TestAdmissionParkGauge: a dropped connection parks its stream, which
// stays active with its reservation held — the link arithmetic must not
// change just because the sender dropped — and a resume clears the park.
func TestAdmissionParkGauge(t *testing.T) {
	kit := soaktest.NewKit(t, 9)
	srv, addr := startServer(t, Config{LinkRate: 2 * kit.Hello.PeakRate, ResumeWindow: 20 * time.Second})
	conn, _, v := kit.Handshake(t, addr)
	conn.Close()
	if !v.IsAdmitted() || v.ResumeToken == 0 {
		t.Fatalf("verdict %+v", v)
	}
	soaktest.WaitFor(t, "dropped stream parked", func() bool { return srv.Snapshot().Streams.Parked == 1 })
	if snap := srv.Snapshot(); snap.Streams.Active != 1 || snap.ReservedPeak != kit.Hello.PeakRate {
		t.Fatalf("parked: active %d, reserved %.0f bps; want 1 and %.0f",
			snap.Streams.Active, snap.ReservedPeak, kit.Hello.PeakRate)
	}
	// soaktest.Check reads the same gauges through their /stats names.
	if st := stats(t, srv); st.ReservedPeak != kit.Hello.PeakRate || st.AvailablePeak != st.CapacityBPS-st.ReservedPeak ||
		st.Streams.Admitted != 1 || st.Streams.Active != 1 || st.Streams.Parked != 1 || len(st.Active) != 1 {
		t.Fatalf("soaktest reads the parked stream as %+v", st)
	}

	resumed := soaktest.Dial(t, addr, transport.StreamResume{Token: v.ResumeToken})
	if !resumed.Verdict.IsAdmitted() {
		t.Fatalf("resume verdict %+v", resumed.Verdict)
	}
	soaktest.WaitFor(t, "resume clears the park", func() bool { return srv.Snapshot().Streams.Parked == 0 })
	resumed.Finish(t, kit, 0)
	soaktest.WaitFor(t, "completion", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0
	})
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, srv)}})
}

// TestMaxStreamsRejectsBusy: a hello over the stream cap is turned away
// busy even with capacity to spare, counted once, and reserves nothing.
func TestMaxStreamsRejectsBusy(t *testing.T) {
	kit := soaktest.NewKit(t, 9)
	srv, addr := startServer(t, Config{LinkRate: 4 * kit.Hello.PeakRate, MaxStreams: 1})
	_, _, v := kit.Handshake(t, addr)
	if !v.IsAdmitted() {
		t.Fatalf("first hello: %+v", v)
	}
	over, _, v := kit.Handshake(t, addr)
	over.Close()
	if v.Code != transport.RejectedBusy {
		t.Fatalf("hello over the cap: verdict %v, want %v", v.Code, transport.RejectedBusy)
	}
	snap := srv.Snapshot()
	if snap.Streams.RejectedBusy != 1 || snap.Streams.Rejected != 1 {
		t.Errorf("rejected_busy %d, rejected %d; want 1 and 1", snap.Streams.RejectedBusy, snap.Streams.Rejected)
	}
	if snap.Streams.Active != 1 || snap.ReservedPeak != kit.Hello.PeakRate {
		t.Errorf("after the busy rejection: active %d, reserved %.0f bps; want 1 and %.0f",
			snap.Streams.Active, snap.ReservedPeak, kit.Hello.PeakRate)
	}
}

func TestMalformedFirstMessageIsRejected(t *testing.T) {
	kit := soaktest.NewKit(t, 27)
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
	soaktest.WaitFor(t, "rejection counted", func() bool {
		return srv.Snapshot().Streams.RejectedMalformed == 1
	})
	// An unsatisfiable smoothing config (D < (K+1)τ) is caught at the
	// hello too, before any capacity is reserved.
	bad := *kit
	bad.Hello.D = bad.Hello.Tau / 2
	_, _, v2 := bad.Handshake(t, addr)
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
	kit := soaktest.NewKit(t, 27)
	srv, addr := startServer(t, Config{
		LinkRate:     1e7,
		Integrity:    transport.IntegrityHMAC,
		IntegrityKey: []byte("server-side-secret"),
	})

	// kit.Hello is zero-valued Integrity == IntegrityFNV.
	_, _, v := kit.Handshake(t, addr)
	if v.Code != transport.RejectedMalformed {
		t.Fatalf("FNV hello against HMAC server: verdict %+v, want rejected-malformed", v)
	}
	if got := srv.Snapshot().ReservedPeak; got != 0 {
		t.Fatalf("mismatched hello reserved %.0f bps", got)
	}

	// The right mode is admitted on the same server.
	ok := *kit
	ok.Hello.Integrity = transport.IntegrityHMAC
	_, _, v2 := ok.Handshake(t, addr)
	if !v2.IsAdmitted() {
		t.Fatalf("HMAC hello against HMAC server: verdict %+v", v2)
	}

	// And the mirror image: an FNV server refuses an HMAC hello.
	_, addrFNV := startServer(t, Config{LinkRate: 1e7})
	_, _, v3 := ok.Handshake(t, addrFNV)
	if v3.Code != transport.RejectedMalformed {
		t.Fatalf("HMAC hello against FNV server: verdict %+v, want rejected-malformed", v3)
	}
}

func TestServerReadTimeoutCutsStalledStream(t *testing.T) {
	kit := soaktest.NewKit(t, 27)
	srv, addr := startServer(t, Config{LinkRate: 1e7, ReadTimeout: 100 * time.Millisecond})

	_, _, v := kit.Handshake(t, addr)
	if !v.IsAdmitted() {
		t.Fatalf("%+v", v)
	}
	// Stall: send nothing further. The read deadline must fail the
	// stream and release its reservation.
	soaktest.WaitFor(t, "stalled stream cut off", func() bool {
		s := srv.Snapshot()
		return s.Streams.Failed == 1 && s.Streams.Active == 0
	})
	if got := srv.Snapshot().AvailablePeak; got != 1e7 {
		t.Fatalf("reservation not released: %.0f available", got)
	}
}

func TestOpsEndpoint(t *testing.T) {
	kit := soaktest.NewKit(t, 54)
	srv, addr := startServer(t, Config{LinkRate: 1.5 * kit.Hello.PeakRate})
	ops := httptest.NewServer(srv.OpsHandler())
	defer ops.Close()

	// One rejected stream (declares more than the whole link)...
	big := *kit
	big.Hello.PeakRate = 10 * srv.Snapshot().CapacityBPS
	conn, _, v := big.Handshake(t, addr)
	if v.Code != transport.RejectedCapacity {
		t.Fatalf("verdict %+v", v)
	}
	conn.Close()
	// ...and one completed stream.
	if v, err := kit.Stream(t.Context(), addr); err != nil || !v.IsAdmitted() {
		t.Fatalf("%+v, %v", v, err)
	}
	soaktest.WaitFor(t, "completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ops.Client().Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
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
	if snap.CapacityBPS != 1.5*kit.Hello.PeakRate || snap.EgressedBits == 0 {
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
	kit := soaktest.NewKit(t, 20)
	srv, addr := startServer(t, Config{LinkRate: 2 * kit.Hello.PeakRate, Policy: nanPolicy{}})

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
	v, _ := kit.StreamWith(t.Context(), addr, soaktest.TimeScale, func() {
		select {
		case <-seen:
		case <-time.After(10 * time.Second):
		}
	})
	if !v.IsAdmitted() {
		t.Fatalf("verdict %+v", v)
	}
	soaktest.WaitFor(t, "the NaN stream ends", func() bool { return srv.Snapshot().Streams.Active == 0 })
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
	kit := soaktest.NewKit(t, 36)
	srv, addr := startServer(t, Config{LinkRate: float64(admitN) * kit.Hello.PeakRate})

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
			v, err := kit.StreamWith(t.Context(), addr, soaktest.TimeScale, func() {
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
	soaktest.WaitFor(t, "all streams drained", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == admitN && s.Streams.Active == 0
	})
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: admitN, Servers: []soaktest.Stats{stats(t, srv)}})

	snap := srv.Snapshot()
	if snap.Streams.RejectedCapacity != int64(totalN-admitN) {
		t.Fatalf("server counters %+v", snap.Streams)
	}
	// Lossless: every admitted picture crossed the link.
	var streamBits int64
	for _, p := range kit.Payloads {
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
	for _, ss := range srv.FinishedStreams() {
		if ss.DelayHeadroom < 0 {
			t.Fatalf("stream %d: max delay %v > bound %v", ss.ID, ss.MaxDelay, ss.DelayBound)
		}
	}
}

func TestGracefulDrainLetsActiveStreamsFinish(t *testing.T) {
	kit := soaktest.NewKit(t, 54)
	srv, addr := startServer(t, Config{LinkRate: 1e7})
	clientDone := make(chan error, 1)
	go func() {
		_, err := kit.Stream(context.Background(), addr)
		clientDone <- err
	}()
	soaktest.WaitFor(t, "stream active", func() bool { return srv.Snapshot().Streams.Active == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-clientDone; err != nil {
		t.Fatalf("client during drain: %v", err)
	}
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, srv)}})
	// After shutdown, new sessions are refused outright.
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

func TestShutdownForceCancelsStalledStreams(t *testing.T) {
	kit := soaktest.NewKit(t, 27)
	srv, addr := startServer(t, Config{LinkRate: 1e7})
	if _, _, v := kit.Handshake(t, addr); !v.IsAdmitted() {
		t.Fatalf("%+v", v)
	}
	// The stream stalls; a bounded drain must cut it loose.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain returned %v", err)
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
