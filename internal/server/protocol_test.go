package server

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/soaktest"
	"mpegsmooth/internal/transport"
)

// protocolSeeds are the fixed seeds the exactly-once harness replays
// each scenario under. The seed feeds the client's backoff jitter and
// both fault networks, so every run is a distinct but reproducible
// interleaving. The full suite runs all eight (CI's protocol job);
// -short keeps the first two.
func protocolSeeds(t *testing.T) []int64 {
	t.Helper()
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		return seeds[:2]
	}
	return seeds
}

// protoScenario drops, corrupts or resets one handshake message class
// via targeted OpFaults: client-side writes (hello, resume) through a
// faultnet.Dialer, server-side writes (admission verdict, resume
// verdict, completion ack) through a faultnet.Listener. Connection and
// op indices are deterministic: one client dials sequentially, so
// client conn 1 is the original connection and conn 2 its first redial;
// server conn N is the N-th accept. Write op 1 of a client conn is its
// hello or resume; write op 1 of a server conn is its verdict, and the
// completion ack is write op 2 of the conn that streamed to the end.
type protoScenario struct {
	name      string
	clientOps []faultnet.OpFault
	serverOps []faultnet.OpFault
	// minResumes is the least number of accepted token resumes the
	// client must report.
	minResumes int
	// wantDeduped requires the server to have recognized a hello
	// retransmission by nonce (lost-verdict recovery).
	wantDeduped bool
	// wantAlreadyComplete requires the lost-completion-ack path: the
	// client's success confirmed by a tombstone verdict.
	wantAlreadyComplete bool
}

// midStreamReset forces a resume by resetting the client's first
// connection at its 6th write — safely past the hello (write op 1) and
// well before an 18-picture stream ends.
var midStreamReset = faultnet.OpFault{Conn: 1, Op: 6, Write: true, Action: faultnet.ActReset}

var protoScenarios = []protoScenario{
	// The client's hello vanishes or arrives corrupted: the retry must
	// converge on exactly one admission.
	{name: "drop-hello",
		clientOps: []faultnet.OpFault{{Conn: 1, Op: 1, Write: true, Action: faultnet.ActDrop}}},
	{name: "corrupt-hello",
		clientOps: []faultnet.OpFault{{Conn: 1, Op: 1, Write: true, Action: faultnet.ActCorrupt}}},

	// The admission verdict vanishes or arrives corrupted: the server
	// has reserved, the client doesn't know. The redialed hello must be
	// deduplicated by nonce onto the existing reservation.
	{name: "drop-verdict", wantDeduped: true,
		serverOps: []faultnet.OpFault{{Conn: 1, Op: 1, Write: true, Action: faultnet.ActDrop}}},
	{name: "corrupt-verdict", wantDeduped: true,
		serverOps: []faultnet.OpFault{{Conn: 1, Op: 1, Write: true, Action: faultnet.ActCorrupt}}},
	// The admission verdict's write is reset: the server learns that the
	// sender never heard it. The stream parks as after any fault, and the
	// redialed hello reattaches to it by nonce instead of admitting the
	// client twice.
	{name: "reset-verdict", wantDeduped: true,
		serverOps: []faultnet.OpFault{{Conn: 1, Op: 1, Write: true, Action: faultnet.ActReset}}},

	// A mid-stream reset forces a resume, whose request or verdict is
	// then lost or corrupted; the retry must reattach without replaying
	// divergent bytes.
	{name: "drop-resume", minResumes: 1,
		clientOps: []faultnet.OpFault{midStreamReset, {Conn: 2, Op: 1, Write: true, Action: faultnet.ActDrop}}},
	{name: "corrupt-resume", minResumes: 1,
		clientOps: []faultnet.OpFault{midStreamReset, {Conn: 2, Op: 1, Write: true, Action: faultnet.ActCorrupt}}},
	{name: "drop-resume-verdict", minResumes: 1,
		clientOps: []faultnet.OpFault{midStreamReset},
		serverOps: []faultnet.OpFault{{Conn: 2, Op: 1, Write: true, Action: faultnet.ActDrop}}},
	{name: "corrupt-resume-verdict", minResumes: 1,
		clientOps: []faultnet.OpFault{midStreamReset},
		serverOps: []faultnet.OpFault{{Conn: 2, Op: 1, Write: true, Action: faultnet.ActCorrupt}}},
	// The resume verdict's write is reset: the reattach releases its
	// claim, and the sender's next resume finds the stream parked again.
	{name: "reset-resume-verdict", minResumes: 1,
		clientOps: []faultnet.OpFault{midStreamReset},
		serverOps: []faultnet.OpFault{{Conn: 2, Op: 1, Write: true, Action: faultnet.ActReset}}},

	// The completion ack vanishes or arrives corrupted: the server
	// finished and tombstoned the stream; the client's resume must get
	// a verifiable AlreadyComplete verdict, not a rejection and not a
	// second session.
	{name: "drop-ack", wantAlreadyComplete: true,
		serverOps: []faultnet.OpFault{{Conn: 1, Op: 2, Write: true, Action: faultnet.ActDrop}}},
	{name: "corrupt-ack", wantAlreadyComplete: true,
		serverOps: []faultnet.OpFault{{Conn: 1, Op: 2, Write: true, Action: faultnet.ActCorrupt}}},

	// Compound schedules: several faults land on ONE stream's lifetime,
	// each hitting the recovery path opened by the previous fault. These
	// are the interleavings single-fault scenarios can't reach.

	// Reset mid-stream, drop the resume verdict the redial earns, then
	// drop the completion ack of the connection that finally streams to
	// the end — recovery of a recovery of a recovery, ending in a
	// tombstone answer.
	{name: "drop-resume-verdict-and-ack", minResumes: 1, wantAlreadyComplete: true,
		clientOps: []faultnet.OpFault{midStreamReset},
		serverOps: []faultnet.OpFault{
			{Conn: 2, Op: 1, Write: true, Action: faultnet.ActDrop},
			{Conn: 3, Op: 2, Write: true, Action: faultnet.ActDrop},
		}},
	// The hello is corrupted, and when the retried hello is admitted its
	// verdict is dropped: the third dial's hello must dedup by nonce onto
	// the reservation the client never heard about.
	{name: "corrupt-hello-then-drop-verdict", wantDeduped: true,
		clientOps: []faultnet.OpFault{{Conn: 1, Op: 1, Write: true, Action: faultnet.ActCorrupt}},
		serverOps: []faultnet.OpFault{{Conn: 2, Op: 1, Write: true, Action: faultnet.ActDrop}}},
	// Two mid-stream resets: the replay connection is itself reset, so
	// the second resume must pick up from the watermark the first resume
	// advanced to — watermarks only ever move forward.
	{name: "double-mid-stream-reset", minResumes: 2,
		clientOps: []faultnet.OpFault{
			midStreamReset,
			{Conn: 2, Op: 8, Write: true, Action: faultnet.ActReset},
		}},
}

// TestProtocolExactlyOnce is the deterministic protocol property
// harness: for every handshake message class (hello, admission verdict,
// resume request, resume verdict, completion ack) and both failure
// modes (dropped, corrupted), plus a reset write of each verdict,
// across fixed seeds, the session protocol must stay exactly-once — the
// stream completes, the server admits exactly one session (no double
// reservation), the accepted bytes match the sender's (no divergence),
// and the client never sees a terminal rejection (no spurious failure).
func TestProtocolExactlyOnce(t *testing.T) {
	for _, sc := range protoScenarios {
		for _, seed := range protocolSeeds(t) {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				runProtocolScenario(t, sc, seed)
			})
		}
	}
}

// TestProtocolRandomizedCompound generates seeded random compound fault
// schedules — 2–4 faults per run, spread across connections, ops, both
// sides, and all three actions — and holds every run to the same
// exactly-once bar as the hand-written scenarios. The generator is the
// search the curated table can't do: it reaches fault interleavings
// nobody thought to name, and a failing seed replays deterministically.
//
// One constraint keeps the runs inside the protocol's contract: whole
// frames are only DROPPED at a connection's first write (hello or
// resume, where loss models a lost datagram and the peer times out).
// Dropping one frame mid-stream would desynchronize the picture framing
// itself — a gap the protocol defines as a violation, not a fault.
// Corruption and resets stay legal everywhere.
func TestProtocolRandomizedCompound(t *testing.T) {
	actions := []faultnet.FaultAction{faultnet.ActDrop, faultnet.ActCorrupt, faultnet.ActReset}
	for _, seed := range protocolSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed * 7919))
			pick := func(op int) faultnet.FaultAction {
				a := actions[rng.Intn(len(actions))]
				if op > 1 && a == faultnet.ActDrop {
					a = faultnet.ActCorrupt
				}
				return a
			}
			sc := protoScenario{name: fmt.Sprintf("random-seed%d", seed)}
			// The first fault always lands on the original connection's
			// early writes (hello is op 1; an 18-picture stream makes
			// dozens more), so every run injects at least one fault.
			op := 1 + rng.Intn(6)
			sc.clientOps = append(sc.clientOps,
				faultnet.OpFault{Conn: 1, Op: op, Write: true, Action: pick(op)})
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if rng.Intn(2) == 0 {
					op := 1 + rng.Intn(10)
					sc.clientOps = append(sc.clientOps,
						faultnet.OpFault{Conn: 1 + rng.Intn(3), Op: op, Write: true, Action: pick(op)})
				} else {
					// A server conn writes at most twice: verdict, then ack.
					sc.serverOps = append(sc.serverOps,
						faultnet.OpFault{Conn: 1 + rng.Intn(3), Op: 1 + rng.Intn(2), Write: true,
							Action: actions[rng.Intn(len(actions))]})
				}
			}
			runProtocolScenario(t, sc, seed)
		})
	}
}

func runProtocolScenario(t *testing.T, sc protoScenario, seed int64) {
	kit := soaktest.NewKit(t, 18)

	serverNet := faultnet.New(faultnet.Config{Seed: seed, Ops: sc.serverOps})
	clientNet := faultnet.New(faultnet.Config{Seed: seed + 1000, Ops: sc.clientOps})
	srv, addr := startChaosServer(t, Config{
		LinkRate:     2 * kit.Hello.PeakRate,
		ReadTimeout:  time.Second,
		ResumeWindow: 10 * time.Second,
	}, serverNet)

	// A client error here is a spurious rejection or an unrecovered fault.
	tally := soaktest.StartSoak(t, kit, 1, func(int) *transport.ResumableSender {
		rs := kit.Resumable(addr, seed)
		rs.HandshakeTimeout = 400 * time.Millisecond
		rs.Dial = clientNet.Dialer(rs.Dial)
		return rs
	}).Wait()
	res := tally.Results[0]
	soaktest.WaitFor(t, "stream drained", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0
	})

	// Exactly one reservation ever, fully released, and no byte
	// divergence: the one finished stream accepted every picture with the
	// sender's exact bytes.
	soaktest.Check(t, soaktest.End{Kit: kit, Clients: 1, Servers: []soaktest.Stats{stats(t, srv)}, AlreadyComplete: tally.AlreadyComplete})
	snap := srv.Snapshot()
	// Scenario-specific recovery evidence.
	if res.Resumes < sc.minResumes {
		t.Errorf("client resumed %d times, want at least %d", res.Resumes, sc.minResumes)
	}
	if sc.wantDeduped && snap.Streams.HelloDeduped < 1 {
		t.Errorf("lost verdict not recovered by nonce dedup: hello_deduped = %d", snap.Streams.HelloDeduped)
	}
	if sc.wantAlreadyComplete {
		if !res.AlreadyComplete {
			t.Errorf("client did not report already-complete recovery: %+v", res)
		}
		if snap.Streams.AlreadyComplete < 1 {
			t.Errorf("server answered no resume from a tombstone: already_complete = %d", snap.Streams.AlreadyComplete)
		}
	}
	// The targeted fault actually fired; otherwise the run proved
	// nothing.
	sf, cf := serverNet.Counts(), clientNet.Counts()
	if sf.Dropped+sf.Corrupted+sf.Resets+cf.Dropped+cf.Corrupted+cf.Resets == 0 {
		t.Error("no fault injected; scenario exercised nothing")
	}
}
