package server

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/soaktest"
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
		cfg.TimeScale = soaktest.TimeScale
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
	kit := soaktest.NewKit(t, 54)
	kit.Hello.Integrity, kit.Key = mode, key
	wantSum := kit.Tag(kit.Trace.Len())
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     2 * kit.Hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 20 * time.Second,
		Integrity:    mode,
		IntegrityKey: key,
	}
	gen1, addr := startGeneration(t, cfg, dir, "")

	hello := kit.Hello
	hello.Nonce = 0xC0FFEE
	first := soaktest.Dial(t, addr, hello)
	token := first.Verdict.ResumeToken
	if !first.Verdict.IsAdmitted() || token == 0 {
		t.Fatalf("admission verdict %+v", first.Verdict)
	}

	// Stream the head, then make sure every accepted picture's watermark
	// reached the journal's coalescing buffer before forcing it out —
	// the flush pins the recovery point at exactly `head`.
	const head = 9
	kit.Send(t, first.W, 0, head)
	soaktest.WaitFor(t, "head pictures journaled", func() bool {
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
	soaktest.WaitFor(t, "recovered stream parked", func() bool {
		return gen2.srv.Snapshot().Streams.Parked == 1
	})

	resumed := soaktest.Dial(t, addr, transport.StreamResume{Token: token})
	if v := resumed.Verdict; !v.IsAdmitted() || v.NextIndex != head || v.PrefixFNV != kit.Tag(head) {
		t.Fatalf("resume verdict %+v; want admitted at the recovered watermark %d with prefix hash %016x", v, head, kit.Tag(head))
	}
	resumed.Finish(t, kit, head)
	soaktest.WaitFor(t, "completion", func() bool {
		s := gen2.srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0
	})

	end := soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, gen1.srv), stats(t, gen2.srv)}, JournalDir: dir}
	if r := gen2.srv.Snapshot().Faults.Resumed; r < 1 {
		t.Errorf("post-restart resume not counted: %d resumed", r)
	}
	// A second resume finds the tombstone, which must count the whole
	// stream, not only the pictures this generation accepted.
	v3, err := soaktest.Resume(addr, token)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Code != transport.AlreadyComplete || v3.NextIndex != kit.Trace.Len() || v3.PrefixFNV != wantSum {
		t.Errorf("second resume: %v at %d, hash %016x; want %v at %d, %016x",
			v3.Code, v3.NextIndex, v3.PrefixFNV, transport.AlreadyComplete, kit.Trace.Len(), wantSum)
	}
	gen2.shutdown(t)
	soaktest.Check(t, end)

	// The completion survived gen2 too: a third generation recovers the
	// tombstone, not the stream.
	j, err := journal.Open(journal.Config{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n := len(j.State().Tombstones); n != 1 {
		t.Errorf("final journal state: %d tombstones, want 1", n)
	}
}

// TestShutdownKeepsParkedStreamRecoverable: a graceful Shutdown closes
// the listener first, so no sender can reach a parked stream during the
// drain. The stream stops waiting at once instead of waiting out its
// resume window, counts as failed in the stopping generation, and stays
// journaled: the next generation recovers it parked, and the sender's
// resume completes it byte-exact.
func TestShutdownKeepsParkedStreamRecoverable(t *testing.T) {
	kit := soaktest.NewKit(t, 27)
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     2 * kit.Hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 5 * time.Second,
	}
	gen1, addr := startGeneration(t, cfg, dir, "")

	hello := kit.Hello
	hello.Nonce = 0x5A1E
	first := soaktest.Dial(t, addr, hello)
	if v := first.Verdict; !v.IsAdmitted() || v.ResumeToken == 0 {
		t.Fatalf("admission verdict %+v", v)
	}
	const head = 9
	kit.Send(t, first.W, 0, head)
	soaktest.WaitFor(t, "head pictures accepted", func() bool {
		p := gen1.srv.Snapshot().PerStream
		return len(p) == 1 && p[0].Pictures == head
	})
	first.Close()
	soaktest.WaitFor(t, "the stream to park", func() bool { return gen1.srv.Snapshot().Streams.Parked == 1 })

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
	if s := gen2.srv.Snapshot().Streams; s.Recovered != 1 || s.Parked != 1 {
		t.Fatalf("next generation recovered %d streams, %d parked; want the parked stream", s.Recovered, s.Parked)
	}
	resumed := soaktest.Dial(t, addr, transport.StreamResume{Token: first.Verdict.ResumeToken})
	if v := resumed.Verdict; !v.IsAdmitted() || v.NextIndex != head || v.PrefixFNV != kit.Tag(head) {
		t.Fatalf("resume verdict %+v; want admitted at picture %d with the head's hash", v, head)
	}
	resumed.Finish(t, kit, head)
	soaktest.WaitFor(t, "completion", func() bool {
		s := gen2.srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0
	})
	end := soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, gen1.srv), stats(t, gen2.srv)}, JournalDir: dir}
	gen2.shutdown(t)
	soaktest.Check(t, end)
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

// TestRecoveryExpiresDeadStreamsInOneCommit: a journal holding 200
// streams that cannot resume — 100 declared under an integrity mode the
// server no longer runs, 100 whose prefix hash state is malformed —
// beside one that can, costs server.New one fsync: every expiry rides
// one commit. The resumable stream comes back parked, and the journal
// forgets the other 200.
func TestRecoveryExpiresDeadStreamsInOneCommit(t *testing.T) {
	kit := soaktest.NewKit(t, 9)
	fs := journal.NewMemFS()
	j, err := journal.Open(journal.Config{FS: fs, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for tok := uint64(1); tok <= 201; tok++ {
		hello := kit.Hello
		hello.Nonce = tok
		if tok <= 100 {
			hello.Integrity = transport.IntegrityHMAC
		}
		if _, err := j.Admitted(journal.StreamRecord{Token: tok, Hello: hello}); err != nil {
			t.Fatal(err)
		}
		if tok > 100 && tok <= 200 {
			j.Watermark(tok, 3, []byte{1, 2, 3})
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if j, err = journal.Open(journal.Config{FS: fs, FlushInterval: -1}); err != nil {
		t.Fatal(err)
	}
	if n := len(j.State().Streams); n != 201 {
		t.Fatalf("journal holds %d streams before recovery, want 201", n)
	}
	before := j.Stats().Fsyncs
	srv, err := New(Config{LinkRate: 2 * kit.Hello.PeakRate, ResumeWindow: time.Minute, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	if got := j.Stats().Fsyncs - before; got != 1 {
		t.Errorf("server.New cost %d fsyncs, want 1", got)
	}
	if s := srv.Snapshot().Streams; s.Recovered != 1 || s.Parked != 1 {
		t.Errorf("recovered %d streams, %d parked; want the resumable one", s.Recovered, s.Parked)
	}
	if n := j.Stats().LiveStreams; n != 1 {
		t.Errorf("journal holds %d streams after recovery, want 1", n)
	}
}

// TestRecoveredSessionReadsPictureTypes: a Driving1 stream recovered at
// picture 7, a B picture, numbers its picture types from 7. Its
// decisions are those of a Session that starts at pattern position 7,
// not those of one that reads picture 7 as the pattern's I picture.
func TestRecoveredSessionReadsPictureTypes(t *testing.T) {
	const base = 7
	kit := soaktest.NewKit(t, 27)
	if ty := kit.Trace.TypeOf(base); ty == kit.Trace.TypeOf(0) {
		t.Fatalf("picture %d is a %v, like picture 0: the test shows nothing", base, ty)
	}
	fs := journal.NewMemFS()
	j, err := journal.Open(journal.Config{FS: fs, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	hello := kit.Hello
	hello.Nonce = 0x7E
	if _, err := j.Admitted(journal.StreamRecord{Token: 1, Hello: hello}); err != nil {
		t.Fatal(err)
	}
	ph, err := transport.NewPrefixHash(transport.IntegrityFNV, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range kit.Payloads[:base] {
		ph.Absorb(p, crc32.ChecksumIEEE(p))
	}
	j.Watermark(1, base, ph.AppendState(nil))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = journal.Open(journal.Config{FS: fs, FlushInterval: -1}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{LinkRate: 2 * kit.Hello.PeakRate, ResumeWindow: time.Minute, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	srv.mu.Lock()
	st := srv.resumable[1]
	srv.mu.Unlock()
	if st == nil {
		t.Fatal("the stream was not recovered")
	}

	// The parked ingest does not touch the Session until a resume; push
	// the rest of the stream as ingest would.
	var got []float64
	for _, p := range kit.Payloads[base:] {
		decs, err := st.push(p, crc32.ChecksumIEEE(p))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range decs {
			got = append(got, d.Rate)
		}
	}
	decs, err := st.closeSession()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decs {
		got = append(got, d.Rate)
	}
	rates := func(opts ...core.SessionOption) []float64 {
		sess, err := core.NewSession(kit.Hello.Tau, kit.Hello.GOP, core.Config{K: kit.Hello.K, D: kit.Hello.D, H: kit.Hello.GOP.N},
			append(opts, core.WithLength(kit.Trace.Len()-base))...)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for _, p := range kit.Payloads[base:] {
			decs, err := sess.Push(int64(len(p)) * 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range decs {
				out = append(out, d.Rate)
			}
		}
		for _, d := range sess.Close() {
			out = append(out, d.Rate)
		}
		return out
	}
	want, cold := rates(core.WithTypeOffset(base)), rates()
	if slices.Equal(want, cold) {
		t.Fatal("the decisions do not depend on the picture types: the test shows nothing")
	}
	if !slices.Equal(got, want) {
		t.Errorf("recovered stream decided %v, want %v: the types of a Session started at picture %d", got, want, base)
	}
}

// TestCrashRecoveryAlreadyComplete: the completion is journaled before
// the ack leaves, so a sender that finished just before the crash and
// resumes against the restarted server gets a verifiable
// AlreadyComplete verdict from the recovered tombstone — never a
// rejection, never a second session.
func TestCrashRecoveryAlreadyComplete(t *testing.T) {
	kit := soaktest.NewKit(t, 27)
	wantFNV := kit.Tag(kit.Trace.Len())
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     2 * kit.Hello.PeakRate,
		ReadTimeout:  5 * time.Second,
		ResumeWindow: 20 * time.Second,
	}
	gen1, addr := startGeneration(t, cfg, dir, "")

	hello := kit.Hello
	hello.Nonce = 0xF00D
	first := soaktest.Dial(t, addr, hello)
	if !first.Verdict.IsAdmitted() {
		t.Fatalf("admission: %+v", first.Verdict)
	}
	// The ack confirms the completion record was fsynced (it is written
	// journal-first); from the sender's view this ack is now "lost".
	first.Finish(t, kit, 0)
	soaktest.WaitFor(t, "completion", func() bool { return gen1.srv.Snapshot().Streams.Completed == 1 })

	gen1.kill(t)
	gen2, _ := startGeneration(t, cfg, dir, addr)

	snap := gen2.srv.Snapshot()
	if snap.Streams.Recovered != 0 || snap.Streams.RecoveredTombstones != 1 {
		t.Fatalf("recovery counters %+v, want 0 streams, 1 tombstone", snap.Streams)
	}

	v2 := soaktest.Dial(t, addr, transport.StreamResume{Token: first.Verdict.ResumeToken}).Verdict
	if v2.Code != transport.AlreadyComplete {
		t.Fatalf("post-restart resume verdict %+v, want already-complete", v2)
	}
	if v2.NextIndex != kit.Trace.Len() || v2.PrefixFNV != wantFNV {
		t.Fatalf("tombstone verdict next=%d fnv=%016x, want %d/%016x",
			v2.NextIndex, v2.PrefixFNV, kit.Trace.Len(), wantFNV)
	}

	if n := gen2.srv.Snapshot().Streams.AlreadyComplete; n != 1 {
		t.Errorf("already-complete answers %d, want 1", n)
	}
	end := soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, gen1.srv), stats(t, gen2.srv)}, JournalDir: dir}
	gen2.shutdown(t)
	soaktest.Check(t, end)
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
	kit := soaktest.NewKit(t, 27)
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     float64(clients+1) * kit.Hello.PeakRate,
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
		h := kit.Hello
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
	soaktest.WaitFor(t, "admissions queued behind the held fsync", func() bool {
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
	soaktest.WaitFor(t, "the kill to abandon the journal", func() bool {
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
			ck.Hello.Nonce = nonce(i)
			v, err := ck.Stream(ctx, addr)
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
	soaktest.WaitFor(t, "all retried clients complete", func() bool {
		s := gen2.srv.Snapshot()
		return s.Streams.Completed == clients && s.Streams.Active == 0
	})

	// Every admission was the new generation's: the kill's rolled back.
	end := soaktest.End{Kit: kit, Clients: clients, Servers: []soaktest.Stats{stats(t, gen1.srv), stats(t, gen2.srv)}, JournalDir: dir}
	gen2.shutdown(t)
	soaktest.Check(t, end)
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
	kit := soaktest.NewKit(t, 240)
	dir := t.TempDir()
	cfg := Config{
		LinkRate:     float64(clients+1) * kit.Hello.PeakRate,
		ReadTimeout:  2 * time.Second,
		ResumeWindow: 30 * time.Second,
		TimeScale:    crashTimeScale,
	}
	gen, addr := startGeneration(t, cfg, dir, "")
	gens := []*generation{gen}

	soak := soaktest.StartSoak(t, kit, clients, func(i int) *transport.ResumableSender {
		rs := kit.Resumable(addr, seed*100+int64(i)+1)
		rs.Sender.TimeScale = crashTimeScale
		rs.MaxAttempts = 60
		return rs
	})
	// Total accepted pictures across live and completed streams — the
	// soak's progress clock for choosing kill instants.
	progress := func() int {
		s := gen.srv.Snapshot()
		total := int(s.Streams.Completed) * kit.Trace.Len()
		for _, ss := range s.PerStream {
			total += ss.Pictures
		}
		return total
	}

	// The first kill waits until every client is underway, so a kill can
	// never race an in-flight admission fsync and break the
	// one-admission-per-client ledger.
	soak.Underway(func() soaktest.Stats { return stats(t, gen.srv) })
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < kills && !soak.Done(); k++ {
		target := progress() + 10 + rng.Intn(40)
		soaktest.WaitFor(t, "progress before kill", func() bool {
			return soak.Done() || progress() >= target
		})
		if soak.Done() {
			break
		}
		gen.kill(t)
		gen, _ = startGeneration(t, cfg, dir, addr)
		gens = append(gens, gen)
	}
	tally := soak.Wait()
	if len(gens) < 2 {
		t.Fatal("no kill landed mid-stream; soak proved nothing")
	}
	soaktest.WaitFor(t, "final drain", func() bool {
		s := gen.srv.Snapshot()
		return s.Streams.Active == 0 && s.Streams.Parked == 0
	})

	// Every client was admitted by the first generation: the later ones
	// only recover, resume and complete.
	end := soaktest.End{Kit: kit, Clients: clients, AlreadyComplete: tally.AlreadyComplete, JournalDir: dir}
	var recoveredTotal, resumedTotal int64
	for _, g := range gens {
		s := g.srv.Snapshot()
		recoveredTotal += s.Streams.Recovered
		resumedTotal += s.Faults.Resumed
		end.Servers = append(end.Servers, stats(t, g.srv))
	}
	if recoveredTotal < 1 {
		t.Errorf("no stream recovered from the journal across %d restarts", len(gens)-1)
	}
	if resumedTotal < 1 || tally.Resumes < 1 {
		t.Errorf("no resume observed (server %d, clients %d)", resumedTotal, tally.Resumes)
	}
	gen.shutdown(t)
	soaktest.Check(t, end)
}
