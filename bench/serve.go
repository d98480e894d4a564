package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mpegsmooth/internal/cluster"
	"mpegsmooth/internal/core"
	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/server"
	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/transport"
)

// Every workload smooths with the paper's usual parameters: K=1, H=N,
// D=0.2 s, under the server's default policy.
const (
	paramK = 1
	paramD = 0.2
)

func smoothConfig(tr *trace.Trace) core.Config {
	return core.Config{K: paramK, H: tr.GOP.N, D: paramD}
}

// clients is how many client connections the load generator keeps open
// at once: the core count of the machine the benchmark was sized on, so
// load comes from one process without oversubscribing it.
const clients = 2

// ioTimeout bounds every client read and write, so a wedged server
// fails a session instead of hanging the run.
const ioTimeout = 30 * time.Second

// serverSpec is one of the workloads that drive a live server.
type serverSpec struct {
	seqs      []seqFunc
	templates int
	pictures  int
	timeScale float64
	// period > 0 makes the load an open loop: each slot starts a session
	// every period and writes picture i whole at t0 + iτ/TimeScale.
	// period 0 is a closed loop of back-to-back unpaced sessions.
	period time.Duration
	// lead is how long before picture 0 is due an open-loop session
	// dials and says hello.
	lead     time.Duration
	journal  bool // standalone server with a journal and resume window
	cluster  bool // quorum-2 primary plus one follower
	datagram bool // ARQ over loopback UDP with packet faults both ways
}

// session is one client session and what the benchmark saw of it.
type session struct {
	id   uint32
	slot int
	tpl  *template
	addr string        // the client address the server sees
	due  time.Time     // open loop: when picture 0 is due
	gap  time.Duration // closed loop: generator time between the slot's last ack and this hello

	start time.Time // hello written
	end   time.Time // completion ack read, or the failure
	err   error

	// Open loop only: the session's egress record, the schedule its
	// lateness is measured against, and how late (ms) each picture's
	// write started after it was due.
	log   *egressLog
	sched *core.Schedule
	lag   []float64
}

// at places the session in a measurement window: an open-loop session
// by when it was due, a closed-loop one by when it completed.
func (s *session) at() time.Time {
	if !s.due.IsZero() {
		return s.due
	}
	return s.end
}

// serverRig is a running server workload: the system under test and the
// load generator driving it.
type serverRig struct {
	spec serverSpec
	in   *inputs
	t    *tracer
	sink *sink

	srv      *server.Server
	serveErr chan error
	nodes    []*cluster.Node // churn: primary, then follower
	addr     string
	pn       *faultnet.PacketNet

	origin time.Time
	stopCh chan struct{}
	loops  sync.WaitGroup

	mu       sync.Mutex
	sessions []*session
	srvFlows []*transport.DGConn // datagram: the server's flows
	dgClient transport.DGStats   // datagram: finished client flows' counters
	progress []progressPoint     // egressed bytes, sampled every progressEvery
}

// progressEvery is how often the egressed byte count is sampled for
// per-second throughput.
const progressEvery = 20 * time.Millisecond

type progressPoint struct {
	at    time.Time
	bytes float64
}

// setupServer builds the inputs and the system under test for spec.
func setupServer(spec serverSpec, o options, dir string, t *tracer) (rig, error) {
	in, err := makeInputs(o.seed, spec.seqs, spec.templates, spec.pictures)
	if err != nil {
		return nil, err
	}
	// Reserve enough link for many concurrent sessions: admission is not
	// what these workloads measure.
	peak := 0.0
	for _, tpl := range in.tpls {
		sched, err := core.Smooth(tpl.tr, smoothConfig(tpl.tr))
		if err != nil {
			return nil, err
		}
		peak = math.Max(peak, sched.PeakRate())
	}
	r := &serverRig{
		spec:   spec,
		in:     in,
		t:      t,
		sink:   newSink(time.Now()),
		stopCh: make(chan struct{}),
	}
	cfg := server.Config{LinkRate: 16 * peak, TimeScale: spec.timeScale, Egress: r.sink}
	switch {
	case spec.cluster:
		err = r.startCluster(cfg, o.seed, dir)
	case spec.datagram:
		err = r.startDatagram(cfg, o.seed)
	default:
		err = r.startStandalone(cfg, dir)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// journalSegment is the journal segment size the benchmark runs with.
// At the 1 MiB default, a workload completing hundreds of sessions a
// second builds enough live tombstones (kept 30 s) that the compaction
// snapshot nearly fills a segment, and rotation then runs on almost
// every commit until they expire: the run would time that storm's onset
// instead of the commit path. No segment fills within a run at 64 MiB.
const journalSegment = 64 << 20

// journalConfig opens the journal in dir, timing its fsyncs as name when
// tracing.
func (r *serverRig) journalConfig(dir, name string) (journal.Config, error) {
	fs, err := journal.DirFS(dir)
	if err != nil {
		return journal.Config{}, err
	}
	if r.t != nil {
		fs = timedFS{FS: fs, t: r.t, name: name}
	}
	return journal.Config{FS: fs, SegmentBytes: journalSegment}, nil
}

func (r *serverRig) startStandalone(cfg server.Config, dir string) error {
	if r.spec.journal {
		jc, err := r.journalConfig(filepath.Join(dir, "journal"), "journal.fsync")
		if err != nil {
			return err
		}
		j, err := journal.Open(jc)
		if err != nil {
			return err
		}
		cfg.Journal = j
		cfg.ResumeWindow = 10 * time.Second
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if cfg.Journal != nil {
			cfg.Journal.Close()
		}
		return err
	}
	return r.serve(cfg, ln)
}

func (r *serverRig) startDatagram(cfg server.Config, seed int64) error {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.pn = faultnet.NewPacketNet(packetFaults(seed))
	ln := transport.ListenDatagram(r.pn.WrapPacketConn(pc), transport.DatagramConfig{Seed: subSeed(seed, domainARQ)})
	return r.serve(cfg, ln)
}

// serve starts a standalone server on ln; with a tracer the listener is
// wrapped so the server's connection reads and writes are timed.
func (r *serverRig) serve(cfg server.Config, ln net.Listener) error {
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		if cfg.Journal != nil {
			cfg.Journal.Close()
		}
		return err
	}
	r.srv, r.addr = srv, ln.Addr().String()
	if r.t != nil {
		ln = timedListener{Listener: ln, t: r.t, accepted: r.accepted}
	}
	r.serveErr = make(chan error, 1)
	go func() { r.serveErr <- srv.Serve(ln) }()
	return nil
}

// accepted keeps the server's datagram flows, whose ARQ counters the
// traced run reads.
func (r *serverRig) accepted(c net.Conn) {
	if dg, ok := c.(*transport.DGConn); ok {
		r.mu.Lock()
		r.srvFlows = append(r.srvFlows, dg)
		r.mu.Unlock()
	}
}

func (r *serverRig) startCluster(scfg server.Config, seed int64, dir string) error {
	addrs, err := freeAddrs(2)
	if err != nil {
		return err
	}
	peers := []cluster.Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}}
	scfg.ResumeWindow = 10 * time.Second
	for rank, name := range []string{"journal.fsync", "cluster.follower_fsync"} {
		jc, err := r.journalConfig(filepath.Join(dir, fmt.Sprintf("node%d", rank)), name)
		if err != nil {
			return err
		}
		n, err := cluster.New(cluster.Config{
			Shard: "alpha", Rank: rank, Peers: peers, Server: scfg, Journal: jc,
			Replicas: 1, Quorum: 2, Seed: subSeed(seed, domainCluster, uint64(rank)),
			// Generous failure detection: a slow fsync on a shared disk
			// must not demote the primary or degrade the quorum mid-run.
			FailoverTimeout: 10 * time.Second,
			AckTimeout:      5 * time.Second,
		})
		if err != nil {
			return err
		}
		if err := n.Start(); err != nil {
			return err
		}
		r.nodes = append(r.nodes, n)
	}
	primary := r.nodes[0]
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := primary.Status().Replication
		if st.ReplicasConnected == 1 && !st.QuorumDegraded {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("cluster: follower never attached")
		}
		time.Sleep(time.Millisecond)
	}
	r.srv, r.addr = primary.Server(), primary.StreamAddr()
	return nil
}

// freeAddrs reserves n loopback addresses by binding and releasing them;
// the cluster binds them again by name.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

func (r *serverRig) start() {
	r.origin = time.Now()
	r.loops.Add(1)
	go r.sampleProgress()
	for slot := 0; slot < clients; slot++ {
		r.loops.Add(1)
		if r.spec.period > 0 {
			go r.openLoop(slot)
		} else {
			go r.closedLoop(slot)
		}
	}
}

func (r *serverRig) stop() {
	close(r.stopCh)
	r.loops.Wait()
}

func (r *serverRig) sampleProgress() {
	defer r.loops.Done()
	tick := time.NewTicker(progressEvery)
	defer tick.Stop()
	for {
		bytes, _, _ := r.sink.counts()
		r.mu.Lock()
		r.progress = append(r.progress, progressPoint{time.Now(), float64(bytes)})
		r.mu.Unlock()
		select {
		case <-r.stopCh:
			return
		case <-tick.C:
		}
	}
}

// delivered interpolates the sampled egress byte count over w.
func (r *serverRig) delivered(w window) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	at := func(t time.Time) float64 {
		p := r.progress
		i := sort.Search(len(p), func(i int) bool { return !p[i].at.Before(t) })
		switch {
		case i == 0:
			return p[0].bytes
		case i == len(p):
			return p[len(p)-1].bytes
		}
		a, b := p[i-1], p[i]
		return a.bytes + (b.bytes-a.bytes)*float64(t.Sub(a.at))/float64(b.at.Sub(a.at))
	}
	return at(w.to) - at(w.from)
}

// closedLoop runs one slot's back-to-back sessions.
func (r *serverRig) closedLoop(slot int) {
	defer r.loops.Done()
	buf := r.payloadBuf()
	last := time.Now()
	for k := 0; ; k++ {
		select {
		case <-r.stopCh:
			return
		default:
		}
		s := r.newSession(slot, k)
		r.run(s, buf)
		if !s.start.IsZero() {
			s.gap = s.start.Sub(last)
		}
		last = time.Now()
		if s.err != nil {
			time.Sleep(10 * time.Millisecond) // do not spin on a failing server
		}
	}
}

// openLoop starts one slot's sessions on a fixed schedule, whether or
// not earlier ones have finished; the slots are staggered evenly.
func (r *serverRig) openLoop(slot int) {
	defer r.loops.Done()
	var running sync.WaitGroup
	defer running.Wait()
	first := r.origin.Add(r.spec.lead + time.Duration(slot)*r.spec.period/clients)
	for k := 0; ; k++ {
		due := first.Add(time.Duration(k) * r.spec.period)
		timer := time.NewTimer(time.Until(due.Add(-r.spec.lead)))
		select {
		case <-r.stopCh:
			timer.Stop()
			return
		case <-timer.C:
		}
		s := r.newSession(slot, k)
		s.due = due
		running.Add(1)
		go func() {
			defer running.Done()
			r.run(s, r.payloadBuf())
		}()
	}
}

func (r *serverRig) payloadBuf() []byte {
	max := int64(0)
	for _, tpl := range r.in.tpls {
		for _, s := range tpl.tr.Sizes {
			if s > max {
				max = s
			}
		}
	}
	return make([]byte, max/8)
}

// newSession names slot's k-th session; slots rotate through the
// templates from different starting points.
func (r *serverRig) newSession(slot, k int) *session {
	s := &session{
		id:   uint32(k*clients + slot),
		slot: slot,
		tpl:  r.in.tpls[(k+slot)%len(r.in.tpls)],
	}
	r.mu.Lock()
	r.sessions = append(r.sessions, s)
	r.mu.Unlock()
	return s
}

func (r *serverRig) dial(s *session) (net.Conn, error) {
	if !r.spec.datagram {
		return net.DialTimeout("tcp", r.addr, ioTimeout)
	}
	raddr, err := net.ResolveUDPAddr("udp", r.addr)
	if err != nil {
		return nil, err
	}
	pc, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	return transport.NewDatagramClientConn(r.pn.WrapConn(pc), transport.DatagramConfig{Seed: r.in.arqSeed(s.id)}), nil
}

// run streams one session: smooth the trace for its declared peak,
// hello, every picture whole (paced in an open loop), the end marker,
// then the completion ack. In an open loop it also waits until the
// session's last picture has left the server.
func (r *serverRig) run(s *session, buf []byte) {
	err := r.stream(s, buf)
	s.end = time.Now()
	s.err = err
	if err == nil && !s.due.IsZero() {
		select {
		case <-s.log.done:
		case <-time.After(ioTimeout):
			s.err = errors.New("egress never finished")
		}
	}
}

func (r *serverRig) stream(s *session, buf []byte) error {
	tr := s.tpl.tr
	traced := r.t.enabled()
	root := int64(0)
	if traced {
		root = r.t.newID()
	}
	t0 := time.Now()
	sched, err := core.Smooth(tr, smoothConfig(tr))
	if err != nil {
		return err
	}
	if traced {
		r.t.span("core.smooth", 0, root, int64(s.id), t0, time.Now(), float64(tr.Len()))
	}
	log := r.sink.expect(s.id, s.slot, tr.Len(), !s.due.IsZero())
	if !s.due.IsZero() {
		s.log, s.sched = log, sched
	}
	conn, err := r.dial(s)
	if err != nil {
		return err
	}
	defer func() {
		if dg, ok := conn.(*transport.DGConn); ok {
			st := dg.Stats()
			r.mu.Lock()
			addDG(&r.dgClient, st)
			r.mu.Unlock()
		}
		conn.Close()
	}()
	s.addr = conn.LocalAddr().String()
	if traced {
		r.t.bind(s.addr, int64(s.id))
	}
	fw := transport.NewFrameWriter(conn)
	fw.WriteTimeout = ioTimeout
	fr := transport.NewFrameReader(conn)

	s.start = time.Now()
	cfg := smoothConfig(tr)
	if err := fw.WriteHello(transport.StreamHello{
		Tau: tr.Tau, GOP: tr.GOP, K: cfg.K, D: cfg.D,
		Pictures: tr.Len(), PeakRate: sched.PeakRate(), Nonce: r.in.nonce(s.id),
	}); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	v, err := fr.ReadVerdictTimeout(ioTimeout)
	verdictAt := time.Now()
	if err != nil {
		return fmt.Errorf("verdict: %w", err)
	}
	if !v.IsAdmitted() {
		return fmt.Errorf("not admitted: %s", v.Code)
	}
	if traced {
		r.t.span("transport.verdict", 0, root, int64(s.id), s.start, verdictAt, 1)
	}

	if !s.due.IsZero() {
		s.lag = make([]float64, tr.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if !s.due.IsZero() {
			due := s.due.Add(time.Duration(float64(i) * tr.Tau / r.spec.timeScale * float64(time.Second)))
			time.Sleep(time.Until(due))
			s.lag[i] = float64(time.Since(due)) / 1e6
		}
		p := r.in.payload(buf, s.tpl, i, s.slot, s.id)
		w0 := time.Now()
		if err := fw.WritePictureHeader(i, tr.TypeOf(i), p); err != nil {
			return fmt.Errorf("picture %d header: %w", i, err)
		}
		if err := fw.WriteChunk(p); err != nil {
			return fmt.Errorf("picture %d payload: %w", i, err)
		}
		if traced {
			r.t.span("transport.picture_write", 0, root, int64(s.id), w0, time.Now(), 1)
		}
	}
	e0 := time.Now()
	if err := fw.WriteEnd(); err != nil {
		return fmt.Errorf("end marker: %w", err)
	}
	if _, err := fr.ReadMessageTimeout(ioTimeout); !errors.Is(err, transport.ErrClosed) {
		return fmt.Errorf("completion ack: %v", err)
	}
	if traced {
		now := time.Now()
		r.t.span("transport.end_ack", 0, root, int64(s.id), e0, now, 1)
		r.t.span("session", root, 0, int64(s.id), s.start, now, float64(tr.Len()))
	}
	return nil
}

// windowed returns the sessions assigned to [from, to).
func (r *serverRig) windowed(w window) []*session {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*session
	for _, s := range r.sessions {
		if at := s.at(); !at.Before(w.from) && at.Before(w.to) {
			out = append(out, s)
		}
	}
	return out
}

// promiseShift is how far the live schedule the server can keep for an
// open-loop session trails the Theorem 1 schedule: the decision latency
// the Session contract imposes. A decision for picture j waits until
// pictures j..j+H−1 have arrived, so the server's schedule origin sits
// (H−1−K)τ after the sender's; D bounds delay on that shifted axis.
func promiseShift(tr *trace.Trace) float64 {
	return float64(tr.GOP.N-1-paramK) * tr.Tau
}

func (r *serverRig) endToEnd(w window) e2e {
	var m e2e
	for _, s := range r.windowed(w) {
		n := s.tpl.tr.Len()
		m.attempted++
		m.pictures += float64(n)
		if s.err != nil {
			m.failed++
			continue
		}
		if s.due.IsZero() {
			m.latency = append(m.latency, float64(s.end.Sub(s.start))/1e6)
			m.survived += float64(n)
			continue
		}
		// Open loop: a picture's latency runs from when the encoder had it
		// whole to when its last byte left the server. It survives if that
		// byte left within its delay bound on the live schedule.
		for i := 0; i < n; i++ {
			due := s.wall(r, float64(i)*s.tpl.tr.Tau)
			finish := r.sink.at(s.log.finish[i])
			m.latency = append(m.latency, float64(finish.Sub(due))/1e6)
			if !finish.After(s.wall(r, float64(i)*s.tpl.tr.Tau+paramD+promiseShift(s.tpl.tr))) {
				m.survived++
			}
		}
	}
	return m
}

// wall maps schedule time sched of an open-loop session to the wall
// clock: picture 0 is due at s.due, and TimeScale compresses the rest.
func (s *session) wall(r *serverRig, sched float64) time.Time {
	return s.due.Add(time.Duration(sched / r.spec.timeScale * float64(time.Second)))
}

// startLateness is how late each picture's first byte left the server
// against the live schedule's start time for it, in ms.
func (r *serverRig) startLateness(s *session) []float64 {
	out := make([]float64, s.tpl.tr.Len())
	for i := range out {
		promised := s.wall(r, s.sched.Start[i]+promiseShift(s.tpl.tr))
		out[i] = float64(r.sink.at(s.log.first[i]).Sub(promised)) / 1e6
	}
	return out
}

func (r *serverRig) counters() map[string]float64 {
	bytes, writes, tails := r.sink.counts()
	c := map[string]float64{"bytes": float64(bytes), "egress_writes": float64(writes), "pictures": float64(tails)}
	snap := r.srv.Snapshot()
	if j := snap.Journal; j != nil {
		c["journal_fsyncs"] = float64(j.Fsyncs)
		c["journal_batches"] = float64(j.CommitBatches)
		c["journal_batch_records"] = float64(j.CommitBatchRecords)
		c["journal_commit_ns"] = float64(j.CommitNanos)
		c["journal_bytes"] = float64(j.AppendedBytes)
	}
	if len(r.nodes) > 0 {
		c["repl_records"] = float64(r.nodes[0].Status().Replication.PublishedRecords)
	}
	if r.pn != nil {
		pc := r.pn.Counts()
		c["packets"] = float64(pc.Packets)
		c["packet_drops"] = float64(pc.Dropped + pc.BurstDropped + pc.FadeDropped)
		r.mu.Lock()
		dg := r.dgClient
		for _, f := range r.srvFlows {
			addDG(&dg, f.Stats())
		}
		r.mu.Unlock()
		c["dg_sent"] = float64(dg.Sent)
		c["dg_retransmits"] = float64(dg.Retransmits)
		c["dg_fast"] = float64(dg.FastRetransmits)
	}
	return c
}

// poll runs alongside the traced window: it polls the quorum's
// follower ack lag every 100 ms until stop closes.
func (r *serverRig) poll(stop <-chan struct{}) (maxLag float64) {
	if len(r.nodes) == 0 {
		<-stop
		return 0
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		for _, lag := range r.nodes[0].Status().Replication.AckLagRecords {
			maxLag = math.Max(maxLag, float64(lag))
		}
		select {
		case <-stop:
			return maxLag
		case <-tick.C:
		}
	}
}

func (r *serverRig) layers(w window, d func(string) float64, ackLagMax float64) map[string]float64 {
	var n float64
	var lag, late []float64
	for _, s := range r.windowed(w) {
		if s.err != nil {
			continue
		}
		n++
		if s.due.IsZero() {
			lag = append(lag, float64(s.gap)/1e6)
		} else {
			lag = append(lag, s.lag...)
			late = append(late, r.startLateness(s)...)
		}
	}
	pics := d("pictures")
	retx := d("dg_retransmits") + d("dg_fast")
	m := map[string]float64{
		"loadgen.lag_p99_ms":                percentile(lag, 0.99).Value,
		"egress.start_lateness_p50_ms":      percentile(late, 0.50).Value,
		"egress.start_lateness_p99_ms":      percentile(late, 0.99).Value,
		"egress.writes_per_picture":         ratio(d("egress_writes"), pics),
		"journal.fsyncs_per_session":        ratio(d("journal_fsyncs"), n),
		"journal.records_per_batch":         ratio(d("journal_batch_records"), d("journal_batches")),
		"journal.commit_mean_us":            ratio(d("journal_commit_ns"), d("journal_batches")) / 1e3,
		"journal.bytes_per_picture":         ratio(d("journal_bytes"), pics),
		"cluster.ack_lag_records_max":       ackLagMax,
		"cluster.repl_records_per_session":  ratio(d("repl_records"), n),
		"transport.dg_retransmits_per_kpkt": ratio(retx, d("dg_sent")) * 1e3,
		"transport.dg_fast_share":           ratio(d("dg_fast"), retx),
		"faultnet.drops_per_kpkt":           ratio(d("packet_drops"), d("packets")) * 1e3,
	}
	for name, at := range map[string]struct {
		timing string
		q      float64
	}{
		"transport.verdict_p50_us":       {"transport.verdict", 0.50},
		"transport.verdict_p99_us":       {"transport.verdict", 0.99},
		"transport.picture_write_p50_us": {"transport.picture_write", 0.50},
		"transport.end_ack_p50_us":       {"transport.end_ack", 0.50},
		"server.verdict_p50_us":          {"server.verdict", 0.50},
		"server.ack_p50_us":              {"server.ack", 0.50},
		"journal.fsync_p50_us":           {"journal.fsync", 0.50},
		"journal.fsync_p99_us":           {"journal.fsync", 0.99},
		"cluster.follower_fsync_p50_us":  {"cluster.follower_fsync", 0.50},
	} {
		m[name] = percentile(r.t.timing(at.timing).samples, at.q).Value / 1e3
	}
	conn, wait := r.t.timing("server.conn"), r.t.timing("server.read_wait")
	m["server.read_wait_share"] = ratio(wait.total, conn.total)
	m["server.busy_us_per_picture"] = ratio(conn.total-wait.total, pics) / 1e3
	return m
}

func addDG(sum *transport.DGStats, s transport.DGStats) {
	sum.Sent += s.Sent
	sum.Retransmits += s.Retransmits
	sum.FastRetransmits += s.FastRetransmits
}

// check runs the correctness gates once the load has stopped.
func (r *serverRig) check() []string {
	var errs []string
	fail := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }

	r.mu.Lock()
	sessions := append([]*session(nil), r.sessions...)
	r.mu.Unlock()
	failedIDs := map[uint32]bool{}
	want := int64(0)
	byAddr := map[string][]*session{}
	for _, s := range sessions {
		byAddr[s.addr] = append(byAddr[s.addr], s)
		if s.err != nil {
			failedIDs[s.id] = true
			continue
		}
		want += s.tpl.bytes()
	}
	// Every completed session's last picture must leave the server: the
	// sink keeps only sessions whose egress is unfinished.
	var stuck []uint32
	for end := time.Now().Add(ioTimeout); ; time.Sleep(5 * time.Millisecond) {
		stuck = stuck[:0]
		for _, id := range r.sink.pending() {
			if !failedIDs[id] {
				stuck = append(stuck, id)
			}
		}
		if len(stuck) == 0 || time.Now().After(end) {
			break
		}
	}
	for _, id := range stuck {
		fail("session %d: egress never finished", id)
	}
	errs = append(errs, r.sink.errors()...)
	// The workloads are sized so that no session fails; one that does
	// would also leave the byte count below unprovable.
	if len(failedIDs) > 0 {
		for _, s := range sessions {
			if s.err != nil {
				fail("%d sessions failed (session %d: %v)", len(failedIDs), s.id, s.err)
				break
			}
		}
	}

	// Drain: nothing active, no reservation left behind.
	var snap server.Snapshot
	for end := time.Now().Add(10 * time.Second); ; {
		snap = r.srv.Snapshot()
		if (snap.Streams.Active == 0 && snap.ReservedPeak == 0) || time.Now().After(end) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap.Streams.Active != 0 || snap.ReservedPeak != 0 {
		fail("after drain: %d streams active, %.0f bps still reserved", snap.Streams.Active, snap.ReservedPeak)
	}
	if snap.DelayViolations != 0 {
		fail("%d streams violated their delay bound", snap.DelayViolations)
	}
	bytes, _, _ := r.sink.counts()
	if snap.EgressedBits != bytes*8 {
		fail("server counted %d egressed bits, the link saw %d", snap.EgressedBits, bytes*8)
	}
	if len(failedIDs) == 0 && bytes != want { // a failure is reported above
		fail("egressed %d payload bytes, sessions sent %d", bytes, want)
	}
	for _, fs := range r.srv.FinishedStreams() {
		if fs.Remote == "(recovered)" {
			continue
		}
		// A failed session is already counted as failed; its stream's
		// partial hash proves nothing.
		matched := false
		for _, s := range byAddr[fs.Remote] {
			if s.err != nil {
				matched = true
				break
			}
			sum, err := r.in.payloadFNV(s.tpl, s.slot, s.id)
			if err == nil && sum == fs.PayloadFNV && fs.Pictures == s.tpl.tr.Len() {
				matched = true
				break
			}
		}
		if !matched {
			fail("finished stream from %s: payload hash %016x matches no session sent from there", fs.Remote, fs.PayloadFNV)
		}
	}
	if len(r.nodes) > 0 {
		st := r.nodes[0].Status().Replication
		if st.LocalCommits != 0 || st.AckTimeouts != 0 || st.DegradedEvents != 0 {
			fail("quorum degraded: %d local commits, %d ack timeouts, %d degraded events",
				st.LocalCommits, st.AckTimeouts, st.DegradedEvents)
		}
	}
	return errs
}

func (r *serverRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range r.nodes {
		n.Shutdown(ctx)
	}
	if r.srv != nil && len(r.nodes) == 0 {
		r.srv.Shutdown(ctx)
		<-r.serveErr // a server closed before Serve began reports it, harmlessly
	}
}
