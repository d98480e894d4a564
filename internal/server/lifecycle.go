package server

// state is where a stream is in its lifecycle (DESIGN §8):
//
//	admitting ──admit──▶ streaming ──complete──▶ completed
//	    │                  │    ▲
//	    │                park   └────adopt────┐
//	    │                  ▼                  │
//	    └───recover───▶ parked ───claim───▶ claimed
//	                       ▲                  │
//	                       └─────release──────┘
//
// parked and claimed lapse when the resume window runs out; streaming,
// parked and claimed fail. Server.applyLocked makes every move.
type state uint8

const (
	admitting state = iota // reserved and registered; the admission is not yet committed
	streaming              // a connection feeds ingest
	parked                 // the connection is gone; the reservation waits out the resume window
	claimed                // a reattach holds the slot while it writes its verdict
	completed              // every picture accepted
	lapsed                 // the resume window ran out: a failure
	failed
)

// event names one lifecycle move.
type event uint8

const (
	evAdmit    event = iota // the admission is durable
	evRecover               // the journal replay rebuilt the stream
	evPark                  // a retryable fault took the connection
	evClaim                 // a reattach takes the slot
	evRelease               // the reattach could not deliver its verdict
	evAdopt                 // the reattach's connection carries the stream
	evLapse                 // no reattach within the resume window
	evComplete              // ingest and egress finished
	evFail                  // ingest or egress gave up
)

// lifecycle is the transition table: the states each event may leave, a
// bit per state, and the state it enters.
var lifecycle = [...]struct {
	from uint8
	to   state
}{
	evAdmit:    {1 << admitting, streaming},
	evRecover:  {1 << admitting, parked},
	evPark:     {1 << streaming, parked},
	evClaim:    {1 << parked, claimed},
	evRelease:  {1 << claimed, parked},
	evAdopt:    {1 << claimed, streaming},
	evLapse:    {1<<parked | 1<<claimed, lapsed},
	evComplete: {1 << streaming, completed},
	evFail:     {1<<streaming | 1<<parked | 1<<claimed, failed},
}

// A move is one event with what it carries: the connection an adopt
// hands over, the error a lapse or failure ends the stream with.
type move struct {
	ev    event
	w     wire
	cause error
}

// apply is applyLocked for a caller that does not hold s.mu.
func (s *Server) apply(st *stream, m move) bool {
	s.mu.Lock()
	made, after := s.applyLocked(st, m)
	s.mu.Unlock()
	after()
	return made
}

// applyLocked is the one place a stream's lifecycle state changes. A
// move the table does not allow from st's state is refused and changes
// nothing. A legal one enters its state, bumps the counter it implies
// (admit: admitted; recover: recovered; adopt: resumed; lapse:
// resume_expired and failed; complete: completed; fail: failed) and
// moves the connection it carries. Caller holds s.mu; applyLocked takes
// st.mu, so either lock reads st.state. It returns whether the move was
// made, and a func for the caller to run once s.mu is released: it
// writes the move's log line, or closes the connection a park dropped,
// since neither the embedder's Logf nor a Close belongs under a lock.
func (s *Server) applyLocked(st *stream, m move) (made bool, after func()) {
	st.mu.Lock()
	defer st.mu.Unlock()
	after = func() {}
	t := lifecycle[m.ev]
	if t.from&(1<<st.state) == 0 {
		return false, after
	}
	st.state = t.to
	say := func(format string, args ...any) { after = func() { s.cfg.Logf(format, args...) } }
	switch m.ev {
	case evAdmit:
		s.counts.Admitted++
	case evRecover:
		s.counts.Recovered++
		say("smoothd: recovered stream %d (token %016x) parked at picture %d awaiting resume",
			st.id, st.token, st.expected)
	case evPark:
		// The reservation stays held; a fresh wake channel waits for the
		// adopt that ends this park.
		dead := st.w.conn
		after = func() { dead.Close() }
		st.w = wire{}
		st.wake = make(chan struct{})
	case evAdopt:
		st.attach(m.w)
		close(st.wake)
		st.faults.Resumed++
		say("smoothd: stream %d resumed from %s at picture %d", st.id, st.remote, st.expected)
	case evComplete:
		s.counts.Completed++
		say("smoothd: stream %d from %s completed: %d pictures, peak %.0f bps",
			st.id, st.remote, st.expected, st.sess.PeakRate())
	case evLapse:
		st.faults.ResumeExpired++
		fallthrough
	case evFail:
		s.counts.Failed++
		say("smoothd: stream %d from %s failed: %v", st.id, st.remote, m.cause)
	}
	return true, after
}
