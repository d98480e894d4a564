package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/transport"
)

// generation is one server lifetime in a kill-and-restart sequence: the
// server, the journal it recovers from and writes to, and the Serve
// goroutine's exit channel.
type generation struct {
	srv  *Server
	jrnl *journal.Journal
	done chan error
}

// startGeneration opens the journal directory and binds a server to
// addr ("" picks a fresh port). Each generation replays whatever the
// previous one made durable; the caller ends it with kill or shutdown.
func startGeneration(t testing.TB, cfg Config, dir, addr string) (*generation, string) {
	t.Helper()
	return startGenerationJournal(t, cfg, journal.Config{Dir: dir, FlushInterval: 5 * time.Millisecond}, addr)
}

// startGenerationJournal is startGeneration with the journal config
// under test control — the kill-inside-commit test holds an fsync with
// it.
func startGenerationJournal(t testing.TB, cfg Config, jcfg journal.Config, addr string) (*generation, string) {
	t.Helper()
	j, err := journal.Open(jcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	if cfg.TimeScale == 0 {
		cfg.TimeScale = soakTimeScale
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	// The previous generation's Kill already closed its listener, but
	// give a slow kernel a beat to release the port.
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return &generation{srv: srv, jrnl: j, done: done}, ln.Addr().String()
}

// kill is the in-process SIGKILL: journal abandoned, connections
// dropped, nothing acked or drained.
func (g *generation) kill(t testing.TB) {
	t.Helper()
	g.srv.Kill()
	if err := <-g.done; err != nil {
		t.Fatalf("Serve after kill: %v", err)
	}
}

// shutdown drains the final generation gracefully and closes its
// journal.
func (g *generation) shutdown(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := g.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-g.done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// sendPictures writes payloads[from:to] as framed pictures.
func sendPictures(t testing.TB, fw *transport.FrameWriter, kit *clientKit, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := fw.WritePictureHeader(i, kit.tr.TypeOf(i), kit.payloads[i]); err != nil {
			t.Fatalf("picture %d header: %v", i, err)
		}
		if err := fw.WriteChunk(kit.payloads[i]); err != nil {
			t.Fatalf("picture %d payload: %v", i, err)
		}
	}
}

// TestCrashRecoveryResume: a stream is killed mid-flight with the
// server, and the restarted generation — rebuilt purely from the
// journal — answers the sender's resume with the durable watermark and
// prefix hash, accepts the replayed tail, and completes byte-exact with
// exactly one admission across both generations. The HMAC variant also
// proves the chained HMAC-SHA256 prefix state round-trips the journal:
// the recovered server continues the keyed chain mid-stream.
func TestCrashRecoveryResume(t *testing.T) {
	t.Run("fnv", func(t *testing.T) {
		runCrashRecoveryResume(t, transport.IntegrityFNV, nil)
	})
	t.Run("hmac", func(t *testing.T) {
		runCrashRecoveryResume(t, transport.IntegrityHMAC, []byte("crash-test-shared-key"))
	})
}

func runCrashRecoveryResume(t *testing.T, mode transport.IntegrityMode, key []byte) {
	kit := makeClient(t, testTrace(t, 54))
	wantSum, err := transport.PrefixSum(mode, key, kit.payloads, kit.tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     2 * kit.hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 20 * time.Second,
		Integrity:    mode,
		IntegrityKey: key,
	}
	gen1, addr := startGeneration(t, cfg, dir, "")

	hello := kit.hello
	hello.Nonce = 0xC0FFEE
	hello.Integrity = mode
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := transport.NewFrameWriter(conn)
	fr := transport.NewFrameReader(conn)
	if err := fw.WriteHello(hello); err != nil {
		t.Fatal(err)
	}
	v, err := fr.ReadVerdictTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsAdmitted() || v.ResumeToken == 0 {
		t.Fatalf("admission verdict %+v", v)
	}
	token := v.ResumeToken

	// Stream the head, then make sure every accepted picture's watermark
	// reached the journal's coalescing buffer before forcing it out —
	// the flush pins the recovery point at exactly `head`.
	const head = 9
	sendPictures(t, fw, kit, 0, head)
	waitFor(t, "head pictures journaled", func() bool {
		return gen1.jrnl.Stats().WatermarksCoalesced >= head
	})
	if err := gen1.jrnl.Flush(); err != nil {
		t.Fatal(err)
	}

	gen1.kill(t)
	gen2, _ := startGeneration(t, cfg, dir, addr)

	snap := gen2.srv.Snapshot()
	if snap.Streams.Recovered != 1 || snap.Streams.RecoveredTombstones != 0 {
		t.Fatalf("recovery counters %+v, want 1 stream, 0 tombstones", snap.Streams)
	}
	waitFor(t, "recovered stream parked", func() bool {
		return gen2.srv.Snapshot().Streams.Parked == 1
	})

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fw2 := transport.NewFrameWriter(conn2)
	fr2 := transport.NewFrameReader(conn2)
	if err := fw2.WriteResume(transport.StreamResume{Token: token}); err != nil {
		t.Fatal(err)
	}
	v2, err := fr2.ReadVerdictTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.IsAdmitted() {
		t.Fatalf("resume verdict %+v", v2)
	}
	if v2.NextIndex != head {
		t.Fatalf("recovered watermark %d, want %d", v2.NextIndex, head)
	}
	headSum, err := transport.PrefixSum(mode, key, kit.payloads, head)
	if err != nil {
		t.Fatal(err)
	}
	if v2.PrefixFNV != headSum {
		t.Fatalf("recovered prefix hash %016x, want %016x", v2.PrefixFNV, headSum)
	}

	sendPictures(t, fw2, kit, head, kit.tr.Len())
	if err := fw2.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr2.ReadMessageTimeout(10 * time.Second); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("completion ack: %v", err)
	}
	waitFor(t, "completion", func() bool {
		s := gen2.srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0
	})

	g1, g2 := gen1.srv.Snapshot(), gen2.srv.Snapshot()
	if g1.Streams.Admitted != 1 || g2.Streams.Admitted != 0 {
		t.Errorf("admissions gen1=%d gen2=%d, want exactly one total (recovery re-admitted)",
			g1.Streams.Admitted, g2.Streams.Admitted)
	}
	if g2.Faults.Resumed < 1 {
		t.Errorf("post-restart resume not counted: %+v", g2.Faults)
	}
	if g2.ReservedPeak != 0 {
		t.Errorf("reservation leaked across the crash: %.0f bps", g2.ReservedPeak)
	}
	fin := gen2.srv.FinishedStreams()
	if len(fin) != 1 {
		t.Fatalf("%d finished streams in gen2", len(fin))
	}
	if fin[0].PayloadFNV != wantSum || fin[0].Pictures != kit.tr.Len() {
		t.Errorf("finished stream: %d pictures, hash %016x; want %d, %016x — bytes lost across the crash",
			fin[0].Pictures, fin[0].PayloadFNV, kit.tr.Len(), wantSum)
	}
	// A second resume finds the tombstone, which must count the whole
	// stream, not only the pictures this generation accepted.
	v3, err := resumeOnce(addr, token)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Code != transport.AlreadyComplete || v3.NextIndex != kit.tr.Len() || v3.PrefixFNV != wantSum {
		t.Errorf("second resume: %v at %d, hash %016x; want %v at %d, %016x",
			v3.Code, v3.NextIndex, v3.PrefixFNV, transport.AlreadyComplete, kit.tr.Len(), wantSum)
	}
	gen2.shutdown(t)

	// The completion survived gen2 too: a third generation recovers the
	// tombstone, not the stream.
	j, err := journal.Open(journal.Config{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.State()
	if len(st.Streams) != 0 || len(st.Tombstones) != 1 {
		t.Errorf("final journal state: %d streams, %d tombstones, want 0/1",
			len(st.Streams), len(st.Tombstones))
	}
}

// TestShutdownKeepsParkedStreamRecoverable: a graceful Shutdown closes
// the listener first, so no sender can reach a parked stream during the
// drain. The stream stops waiting at once instead of waiting out its
// resume window, counts as failed in the stopping generation, and stays
// journaled: the next generation recovers it parked, and the sender's
// resume completes it byte-exact.
func TestShutdownKeepsParkedStreamRecoverable(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     2 * kit.hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 5 * time.Second,
	}
	gen1, addr := startGeneration(t, cfg, dir, "")

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := kit.hello
	hello.Nonce = 0x5A1E
	fw := transport.NewFrameWriter(conn)
	if err := fw.WriteHello(hello); err != nil {
		t.Fatal(err)
	}
	v, err := transport.NewFrameReader(conn).ReadVerdictTimeout(10 * time.Second)
	if err != nil || !v.IsAdmitted() || v.ResumeToken == 0 {
		t.Fatalf("admission verdict %+v, %v", v, err)
	}
	const head = 9
	sendPictures(t, fw, kit, 0, head)
	waitFor(t, "head pictures accepted", func() bool {
		p := gen1.srv.Snapshot().PerStream
		return len(p) == 1 && p[0].Pictures == head
	})
	conn.Close()
	waitFor(t, "the stream to park", func() bool { return gen1.srv.Snapshot().Streams.Parked == 1 })

	start := time.Now()
	gen1.shutdown(t)
	if took := time.Since(start); took > cfg.ResumeWindow/2 {
		t.Errorf("shutdown took %v with one parked stream (resume window %v)", took, cfg.ResumeWindow)
	}
	if s := gen1.srv.Snapshot(); s.Streams.Failed != 1 || s.Streams.Active != 0 || s.Faults.ResumeExpired != 0 {
		t.Errorf("stopping generation: failed %d, active %d, resume_expired %d; want 1, 0, 0",
			s.Streams.Failed, s.Streams.Active, s.Faults.ResumeExpired)
	}

	gen2, _ := startGeneration(t, cfg, dir, addr)
	defer gen2.shutdown(t)
	if s := gen2.srv.Snapshot().Streams; s.Recovered != 1 || s.Parked != 1 {
		t.Fatalf("next generation recovered %d streams, %d parked; want the parked stream", s.Recovered, s.Parked)
	}
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	fw2, fr2 := transport.NewFrameWriter(conn2), transport.NewFrameReader(conn2)
	if err := fw2.WriteResume(transport.StreamResume{Token: v.ResumeToken}); err != nil {
		t.Fatal(err)
	}
	v2, err := fr2.ReadVerdictTimeout(10 * time.Second)
	if err != nil || !v2.IsAdmitted() || v2.NextIndex != head || v2.PrefixFNV != payloadFNV(kit.payloads[:head]) {
		t.Fatalf("resume verdict %+v, %v; want admitted at picture %d with the head's hash", v2, err, head)
	}
	sendPictures(t, fw2, kit, head, kit.tr.Len())
	if err := fw2.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	if _, err := fr2.ReadMessageTimeout(10 * time.Second); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("completion ack: %v", err)
	}
	waitFor(t, "completion", func() bool {
		s := gen2.srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0
	})
	checkSoakEnd(t, gen2.srv, 0, kit)
}

// TestRecoverySkipsDeadTombstones: a journal holding 200 tombstones past
// their expiry and one whose hash state is malformed costs server.New no
// fsync. Recovery journals no expiry for them, and recovered_tombstones
// counts only the live tombstone.
func TestRecoverySkipsDeadTombstones(t *testing.T) {
	fs := journal.NewMemFS()
	j, err := journal.Open(journal.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]byte, 8)
	expired, live := time.Now().Add(-time.Minute), time.Now().Add(time.Hour)
	tombs := []journal.TombstoneRecord{
		{Token: 201, Nonce: 201, Pictures: 9, HashState: sum[:4], Expires: live},
		{Token: 202, Nonce: 202, Pictures: 9, HashState: sum, Expires: live},
	}
	for tok := uint64(1); tok <= 200; tok++ {
		tombs = append(tombs, journal.TombstoneRecord{Token: tok, Nonce: tok, Pictures: 9, HashState: sum, Expires: expired})
	}
	for _, tb := range tombs {
		if _, err := j.Completed(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if j, err = journal.Open(journal.Config{FS: fs}); err != nil {
		t.Fatal(err)
	}
	before := j.Stats().Fsyncs
	srv, err := New(Config{LinkRate: 1e7, ResumeWindow: time.Second, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if got := j.Stats().Fsyncs; got != before {
		t.Errorf("server.New cost %d fsyncs, want 0", got-before)
	}
	if got := srv.Snapshot().Streams.RecoveredTombstones; got != 1 {
		t.Errorf("recovered_tombstones %d, want 1", got)
	}
}

// TestCrashRecoveryAlreadyComplete: the completion is journaled before
// the ack leaves, so a sender that finished just before the crash and
// resumes against the restarted server gets a verifiable
// AlreadyComplete verdict from the recovered tombstone — never a
// rejection, never a second session.
func TestCrashRecoveryAlreadyComplete(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	wantFNV := payloadFNV(kit.payloads)
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     2 * kit.hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 20 * time.Second,
	}
	gen1, addr := startGeneration(t, cfg, dir, "")

	hello := kit.hello
	hello.Nonce = 0xF00D
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := transport.NewFrameWriter(conn)
	fr := transport.NewFrameReader(conn)
	if err := fw.WriteHello(hello); err != nil {
		t.Fatal(err)
	}
	v, err := fr.ReadVerdictTimeout(10 * time.Second)
	if err != nil || !v.IsAdmitted() {
		t.Fatalf("admission: %+v, %v", v, err)
	}
	sendPictures(t, fw, kit, 0, kit.tr.Len())
	if err := fw.WriteEnd(); err != nil {
		t.Fatal(err)
	}
	// The ack confirms the completion record was fsynced (it is written
	// journal-first); from the sender's view this ack is now "lost".
	if _, err := fr.ReadMessageTimeout(10 * time.Second); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("completion ack: %v", err)
	}
	waitFor(t, "completion", func() bool { return gen1.srv.Snapshot().Streams.Completed == 1 })

	gen1.kill(t)
	gen2, _ := startGeneration(t, cfg, dir, addr)
	defer gen2.shutdown(t)

	snap := gen2.srv.Snapshot()
	if snap.Streams.Recovered != 0 || snap.Streams.RecoveredTombstones != 1 {
		t.Fatalf("recovery counters %+v, want 0 streams, 1 tombstone", snap.Streams)
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := transport.NewFrameWriter(conn2).WriteResume(transport.StreamResume{Token: v.ResumeToken}); err != nil {
		t.Fatal(err)
	}
	v2, err := transport.NewFrameReader(conn2).ReadVerdictTimeout(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Code != transport.AlreadyComplete {
		t.Fatalf("post-restart resume verdict %+v, want already-complete", v2)
	}
	if v2.NextIndex != kit.tr.Len() || v2.PrefixFNV != wantFNV {
		t.Fatalf("tombstone verdict next=%d fnv=%016x, want %d/%016x",
			v2.NextIndex, v2.PrefixFNV, kit.tr.Len(), wantFNV)
	}

	g1, g2 := gen1.srv.Snapshot(), gen2.srv.Snapshot()
	if g1.Streams.Admitted != 1 || g2.Streams.Admitted != 0 {
		t.Errorf("admissions gen1=%d gen2=%d, want exactly one total",
			g1.Streams.Admitted, g2.Streams.Admitted)
	}
	if g2.Streams.AlreadyComplete != 1 {
		t.Errorf("already-complete answers %d, want 1", g2.Streams.AlreadyComplete)
	}
	if g2.ReservedPeak != 0 {
		t.Errorf("tombstone recovery reserved capacity: %.0f bps", g2.ReservedPeak)
	}
}

// TestCrashKillInsideCommitWindow: the server is killed while the first
// client's admission is inside its batch fsync (held there) and every
// other client's admission is queued behind it, unwritten; the held
// fsync then fails. The durability ordering demands that no admission
// verdict escaped (release happens only after the batch fsync), so the
// kill must leave zero acknowledged-then-forgotten clients: the next
// generation recovers nothing, every sender retries its identical
// hello, and each completes with exactly one admission in the new
// generation — byte-exact.
func TestCrashKillInsideCommitWindow(t *testing.T) {
	for _, seed := range crashSoakSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runKillInsideCommitWindow(t, seed)
		})
	}
}

func runKillInsideCommitWindow(t *testing.T, seed int64) {
	const clients = 4
	kit := makeClient(t, testTrace(t, 27))
	wantFNV := payloadFNV(kit.payloads)
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     float64(clients+1) * kit.hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 20 * time.Second,
	}
	// Sync 1 is Open's snapshot; sync 2 is the first admission's batch,
	// held until the kill and then failed.
	dfs, err := journal.DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	faulty := journal.NewFaultFS(dfs, journal.FaultConfig{FailSync: 2})
	held, release := faulty.HoldSync(2)
	defer release()
	gen1, addr := startGenerationJournal(t, cfg, journal.Config{
		FS:            faulty,
		FlushInterval: 5 * time.Millisecond,
	}, "")

	nonce := func(i int) uint64 { return uint64(seed)<<32 | uint64(0xAD0+i) }
	type outcome struct {
		v   transport.Verdict
		err error
	}
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	hello := func(i int) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		h := kit.hello
		h.Nonce = nonce(i)
		if err := transport.NewFrameWriter(conn).WriteHello(h); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := transport.NewFrameReader(conn).ReadVerdictTimeout(15 * time.Second)
			outcomes[i] = outcome{v: v, err: err}
		}()
	}

	// The first admission leads its batch alone and parks in the held
	// fsync; every other admission queues behind it, unwritten.
	hello(0)
	select {
	case <-held:
	case <-time.After(15 * time.Second):
		t.Fatal("the first admission never reached its fsync")
	}
	for i := 1; i < clients; i++ {
		hello(i)
	}
	waitFor(t, "admissions queued behind the held fsync", func() bool {
		return gen1.jrnl.Stats().CommitPending >= clients-1
	})

	// Kill while the fsync is held: Abandon fails the queued committers
	// and drops the connections, but Kill waits for the handler still
	// inside the leader's fsync. Once the queue is cleared the kill has
	// abandoned the journal; only then does the held fsync fail.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		gen1.srv.Kill()
	}()
	waitFor(t, "the kill to abandon the journal", func() bool {
		return gen1.jrnl.Stats().CommitPending == 0
	})
	release()
	<-killed
	if err := <-gen1.done; err != nil {
		t.Fatalf("Serve after kill: %v", err)
	}
	wg.Wait()
	if _, syncs := faulty.Injected(); syncs != 1 {
		t.Fatalf("%d fsync faults fired, want 1 (the held batch)", syncs)
	}

	// No admission's fsync succeeded, so no verdict may have been
	// released: an Admitted verdict here is an acknowledged admission
	// the journal forgot — exactly the ordering bug this test pins.
	for i, o := range outcomes {
		if o.err == nil && o.v.IsAdmitted() {
			t.Fatalf("client %d holds an admission verdict whose record was never fsynced (verdict %+v)", i, o.v)
		}
	}
	// Kill waited for every handler, so each admission has resolved: all
	// of them must have rolled back, whether or not the dropped
	// connection could still carry a verdict.
	if busy := gen1.srv.Snapshot().Streams.RejectedBusy; busy != clients {
		t.Fatalf("gen1 rolled back %d admissions, want all %d: none was ever durable", busy, clients)
	}

	gen2, _ := startGeneration(t, cfg, dir, addr)
	defer gen2.shutdown(t)
	snap := gen2.srv.Snapshot()
	if snap.Streams.Recovered != 0 || snap.Streams.RecoveredTombstones != 0 {
		t.Fatalf("replay after kill-in-window recovered %d streams, %d tombstones; want a clean slate",
			snap.Streams.Recovered, snap.Streams.RecoveredTombstones)
	}

	// Unacknowledged senders retry the identical hello and complete.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	errs := make([]error, clients)
	var cwg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			ck := *kit
			ck.hello.Nonce = nonce(i)
			v, err := ck.stream(ctx, addr)
			if err == nil && !v.IsAdmitted() {
				err = fmt.Errorf("retried hello got verdict %+v", v)
			}
			errs[i] = err
		}(i)
	}
	cwg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d retry: %v", i, err)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	waitFor(t, "all retried clients complete", func() bool {
		s := gen2.srv.Snapshot()
		return s.Streams.Completed == clients && s.Streams.Active == 0
	})

	g2 := gen2.srv.Snapshot()
	if g2.Streams.Admitted != clients {
		t.Errorf("gen2 admitted %d sessions for %d clients, want exactly one each",
			g2.Streams.Admitted, clients)
	}
	if g2.ReservedPeak != 0 {
		t.Errorf("reservation leaked: %.0f bps", g2.ReservedPeak)
	}
	for _, fin := range gen2.srv.FinishedStreams() {
		if fin.PayloadFNV != wantFNV {
			t.Errorf("stream %d payload hash %016x, want %016x", fin.ID, fin.PayloadFNV, wantFNV)
		}
	}
}

// crashSoakSeeds are the fixed seeds the kill-and-restart soak replays.
var crashSoakSeeds = []int64{1, 2, 3}

// TestCrashRestartSoak is the kill-and-restart chaos soak: several
// resumable clients stream while the server is repeatedly killed
// mid-stream (journal abandoned, connections dropped) and restarted
// from the journal on the same address. Every client must finish —
// resuming across server generations with byte-exact prefix
// verification at every handshake — the admission count summed across
// generations must be exactly one per client, and no reservation or
// journaled stream may outlive the run.
func TestCrashRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak skipped in -short mode")
	}
	for _, seed := range crashSoakSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashSoak(t, seed)
		})
	}
}

func runCrashSoak(t *testing.T, seed int64) {
	const (
		clients = 5
		kills   = 3
		// crashTimeScale stretches the schedule (relative to the other
		// soaks) so kills land mid-stream rather than after the fact.
		crashTimeScale = 25
	)
	kit := makeClient(t, testTrace(t, 240))
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     float64(clients+1) * kit.hello.PeakRate,
		ReadTimeout:  2 * time.Second,
		ResumeWindow: 30 * time.Second,
		TimeScale:    crashTimeScale,
	}
	gen, addr := startGeneration(t, cfg, dir, "")
	gens := []*generation{gen}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		doneClients int
		resumes     int
		already     int
		failures    []error
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs := resumableClient(kit, addr, seed*100+int64(i)+1)
			rs.Sender.TimeScale = crashTimeScale
			rs.MaxAttempts = 60
			res, err := rs.Stream(ctx, kit.payloads)
			mu.Lock()
			defer mu.Unlock()
			doneClients++
			resumes += res.Resumes
			if res.AlreadyComplete {
				already++
			}
			if err != nil {
				failures = append(failures, fmt.Errorf("client %d: %w", i, err))
			}
		}(i)
	}
	allDone := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return doneClients == clients
	}
	// Total accepted pictures across live and completed streams — the
	// soak's progress clock for choosing kill instants.
	progress := func() int {
		s := gen.srv.Snapshot()
		total := int(s.Streams.Completed) * kit.tr.Len()
		for _, ss := range s.PerStream {
			total += ss.Pictures
		}
		return total
	}

	// The first kill waits until every client holds a delivered verdict
	// (a picture accepted implies the admission was journaled and its
	// verdict received), so a kill can never race an in-flight admission
	// fsync and break the one-admission-per-client ledger.
	waitFor(t, "all clients underway", func() bool {
		s := gen.srv.Snapshot()
		if s.Streams.Admitted != clients || len(s.PerStream) != clients {
			return false
		}
		for _, ss := range s.PerStream {
			if ss.Pictures < 1 {
				return false
			}
		}
		return true
	})
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < kills && !allDone(); k++ {
		target := progress() + 10 + rng.Intn(40)
		waitFor(t, "progress before kill", func() bool {
			return allDone() || progress() >= target
		})
		if allDone() {
			break
		}
		gen.kill(t)
		gen, _ = startGeneration(t, cfg, dir, addr)
		gens = append(gens, gen)
	}
	wg.Wait()
	for _, err := range failures {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if len(gens) < 2 {
		t.Fatal("no kill landed mid-stream; soak proved nothing")
	}
	waitFor(t, "final drain", func() bool {
		s := gen.srv.Snapshot()
		return s.Streams.Active == 0 && s.Streams.Parked == 0
	})

	// Every client was admitted by the first generation: the last one
	// only recovers, resumes and completes.
	checkSoakEnd(t, gen.srv, 0, kit)
	var admittedTotal, recoveredTotal, resumedTotal, completedTotal int64
	for _, g := range gens {
		s := g.srv.Snapshot()
		admittedTotal += s.Streams.Admitted
		recoveredTotal += s.Streams.Recovered
		resumedTotal += s.Faults.Resumed
		completedTotal += s.Streams.Completed
	}
	if admittedTotal != clients {
		t.Errorf("admitted %d sessions across %d generations for %d clients — crash double-admitted",
			admittedTotal, len(gens), clients)
	}
	if recoveredTotal < 1 {
		t.Errorf("no stream recovered from the journal across %d restarts", len(gens)-1)
	}
	if resumedTotal < 1 || resumes < 1 {
		t.Errorf("no resume observed (server %d, clients %d)", resumedTotal, resumes)
	}
	// Every client succeeded; each success was either a counted server
	// completion or an AlreadyComplete tombstone answer.
	if completedTotal+int64(already) < clients {
		t.Errorf("completions %d + already-complete %d < %d clients", completedTotal, already, clients)
	}

	// Durable ledger agrees: with every client finished, no journaled
	// stream (reservation) survives the run.
	gen.shutdown(t)
	j, err := journal.Open(journal.Config{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := len(j.State().Streams); n != 0 {
		t.Errorf("%d streams still journaled after every client finished — durable reservation leak", n)
	}
}
