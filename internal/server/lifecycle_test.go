package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/transport"
)

// TestResumeWindowLapse pins what a resume window that runs out does to
// a parked stream: the stream fails and counts one resume expiry, its
// reservation comes back, its journal record expires with
// ExpireResumeWindow, and a resume that comes later is answered as an
// unknown token. Both ways a stream sits parked are covered: an admitted
// stream whose sender hangs up for good, and a stream recovered from the
// journal whose sender never redials.
func TestResumeWindowLapse(t *testing.T) {
	kit := makeClient(t, testTrace(t, 27))
	cfg := Config{LinkRate: 2 * kit.hello.PeakRate, ResumeWindow: 200 * time.Millisecond}

	// serve starts a server on j, subscribed to j's record feed before
	// the server can write to it.
	serve := func(t *testing.T, j *journal.Journal) (*Server, string, <-chan []byte) {
		_, _, feed, cancel, err := j.Follow(64)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cancel)
		c := cfg
		c.Journal = j
		srv, addr := startServer(t, c)
		return srv, addr, feed
	}
	// lapsed waits for the window to run out on the one stream srv holds,
	// then checks the outcome.
	lapsed := func(t *testing.T, srv *Server, addr string, feed <-chan []byte, token uint64) {
		waitFor(t, "the resume window to lapse", func() bool {
			s := srv.Snapshot()
			return s.Streams.Failed == 1 && s.Faults.ResumeExpired == 1 &&
				s.Streams.Active == 0 && s.ReservedPeak == 0
		})
		if s := srv.Snapshot(); s.Streams.Completed != 0 || s.Streams.Parked != 0 || s.AvailablePeak != s.CapacityBPS {
			t.Errorf("after the lapse: completed %d, parked %d, available %.0f of %.0f bps",
				s.Streams.Completed, s.Streams.Parked, s.AvailablePeak, s.CapacityBPS)
		}
		// No picture was sent, so the only record naming the token after
		// the server started is the stream's expiry.
		timeout := time.After(10 * time.Second)
		for expired := false; !expired; {
			select {
			case f, ok := <-feed:
				if !ok {
					t.Fatal("journal feed closed before the stream's expiry")
				}
				rec, _, err := journal.ParseFrame(f)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Token != token {
					continue
				}
				if rec.Reason != journal.ExpireResumeWindow {
					t.Fatalf("journal expired the stream with reason %d, want %d", rec.Reason, journal.ExpireResumeWindow)
				}
				expired = true
			case <-timeout:
				t.Fatal("the journal never expired the lapsed stream")
			}
		}
		waitFor(t, "the journal to forget the stream", func() bool { return srv.Snapshot().Journal.LiveStreams == 0 })
		v, err := resumeOnce(addr, token)
		if err != nil {
			t.Fatal(err)
		}
		if v.Code != transport.RejectedMalformed {
			t.Errorf("resume after the lapse: verdict %v, want %v", v.Code, transport.RejectedMalformed)
		}
	}

	t.Run("admitted", func(t *testing.T) {
		j, err := journal.Open(journal.Config{FS: journal.NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		srv, addr, feed := serve(t, j)
		conn, _, v := kit.handshake(t, addr)
		conn.Close()
		if !v.IsAdmitted() || v.ResumeToken == 0 {
			t.Fatalf("verdict %+v", v)
		}
		lapsed(t, srv, addr, feed, v.ResumeToken)
		if s := srv.Snapshot(); s.Streams.Admitted != 1 || s.Streams.Recovered != 0 {
			t.Errorf("admitted %d, recovered %d; want 1 and 0", s.Streams.Admitted, s.Streams.Recovered)
		}
	})

	t.Run("recovered", func(t *testing.T) {
		dir := t.TempDir()
		gen1, addr1 := startGeneration(t, cfg, dir, "")
		conn, _, v := kit.handshake(t, addr1)
		defer conn.Close()
		if !v.IsAdmitted() || v.ResumeToken == 0 {
			t.Fatalf("verdict %+v", v)
		}
		gen1.kill(t)

		j, err := journal.Open(journal.Config{Dir: dir, FlushInterval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		srv, addr, feed := serve(t, j)
		lapsed(t, srv, addr, feed, v.ResumeToken)
		if s := srv.Snapshot(); s.Streams.Admitted != 0 || s.Streams.Recovered != 1 {
			t.Errorf("admitted %d, recovered %d; want 0 and 1", s.Streams.Admitted, s.Streams.Recovered)
		}
	})
}

// TestLifecycleTransitions drives every (state, event) pair through
// applyLocked. A legal move lands in the state DESIGN §8 documents,
// bumps exactly the counters it names there (by their /stats names),
// and moves the connection: park closes the stream's, adopt attaches the
// one it carries. An illegal move changes nothing.
func TestLifecycleTransitions(t *testing.T) {
	states := []string{"admitting", "streaming", "parked", "claimed", "completed", "lapsed", "failed"}
	events := []string{"admit", "recover", "park", "claim", "release", "adopt", "lapse", "complete", "fail"}
	type pair struct {
		from state
		ev   event
	}
	type outcome struct {
		to     state
		counts []string
	}
	legal := map[pair]outcome{
		{admitting, evAdmit}:    {streaming, []string{"admitted"}},
		{admitting, evRecover}:  {parked, []string{"recovered"}},
		{streaming, evPark}:     {parked, nil},
		{parked, evClaim}:       {claimed, nil},
		{claimed, evRelease}:    {parked, nil},
		{claimed, evAdopt}:      {streaming, []string{"resumed"}},
		{parked, evLapse}:       {lapsed, []string{"resume_expired", "failed"}},
		{claimed, evLapse}:      {lapsed, []string{"resume_expired", "failed"}},
		{streaming, evComplete}: {completed, []string{"completed"}},
		{streaming, evFail}:     {failed, []string{"failed"}},
		{parked, evFail}:        {failed, []string{"failed"}},
		{claimed, evFail}:       {failed, []string{"failed"}},
	}
	if len(states) != int(failed)+1 || len(events) != int(evFail)+1 {
		t.Fatalf("the test names %d states and %d events; the lifecycle has %d and %d",
			len(states), len(events), failed+1, evFail+1)
	}

	kit := makeClient(t, testTrace(t, 9))
	srv, err := New(Config{LinkRate: 1e9, ResumeWindow: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	pipe := func() (wire, net.Conn) {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		return wire{conn: a, fr: transport.NewFrameReader(a), fw: transport.NewFrameWriter(a)}, b
	}
	// tally reads every server and stream counter by its /stats name.
	tally := func(st *stream) map[string]int64 {
		m := map[string]int64{}
		for _, v := range []any{srv.counts, st.faults} {
			b, err := json.Marshal(v)
			if err == nil {
				err = json.Unmarshal(b, &m)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	cause := errors.New("test: the stream ends")
	for from := admitting; from <= failed; from++ {
		for ev := evAdmit; ev <= evFail; ev++ {
			name := fmt.Sprintf("%s %s", events[ev], states[from])
			prefix, err := transport.NewPrefixHash(transport.IntegrityFNV, nil)
			if err != nil {
				t.Fatal(err)
			}
			var w wire
			var peer net.Conn
			if from == admitting || from == streaming {
				w, peer = pipe()
			}
			st := newStream(w, kit.hello, prefix, 0, &srv.pool)
			if st.sess, err = srv.newSession(st); err != nil {
				t.Fatal(err)
			}
			st.state = from
			wake := st.wake
			offered, _ := pipe()
			before := tally(st)
			srv.mu.Lock()
			ok, then := srv.applyLocked(st, move{ev: ev, w: offered, cause: cause})
			srv.mu.Unlock()
			then()
			after := tally(st)

			want, isLegal := legal[pair{from, ev}]
			if !isLegal {
				if ok || st.state != from || !maps.Equal(before, after) || st.w != w || st.wake != wake {
					t.Errorf("%s: illegal move made (%v), now %s, counters %v → %v",
						name, ok, states[st.state], before, after)
				}
				continue
			}
			if !ok || st.state != want.to {
				t.Errorf("%s: move made %v, now %s; want made, %s", name, ok, states[st.state], states[want.to])
			}
			for _, c := range want.counts {
				before[c]++
			}
			if !maps.Equal(before, after) {
				t.Errorf("%s: counters %v, want %v", name, after, before)
			}
			switch ev {
			case evPark:
				peer.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := peer.Read(make([]byte, 1)); st.w != (wire{}) || err != io.EOF {
					t.Errorf("%s: connection %v kept, peer read %v; want it closed", name, st.w, err)
				}
			case evAdopt:
				select {
				case <-wake:
				default:
					t.Errorf("%s: parked ingest not woken", name)
				}
				if st.w != offered {
					t.Errorf("%s: the offered connection is not the stream's", name)
				}
			default:
				if st.w != w {
					t.Errorf("%s: connection changed", name)
				}
			}
		}
	}
}

// TestCancelWhileClaimedClosesReattach: a server cancelled while a
// reattach holds a parked stream's claim fails the stream, and the
// reattach, finding the stream failed once its verdict is out, closes
// the connection it was handing over rather than leaving it open.
func TestCancelWhileClaimedClosesReattach(t *testing.T) {
	kit := makeClient(t, testTrace(t, 9))
	srv, err := New(Config{LinkRate: 2 * kit.hello.PeakRate, ResumeWindow: 20 * time.Second, TimeScale: soakTimeScale})
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := transport.NewPrefixHash(transport.IntegrityFNV, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A recovered stream, parked with its ingest waiting out the window.
	st := newStream(wire{}, kit.hello, prefix, 0, &srv.pool)
	st.token = 0x70CE
	if st.sess, err = srv.newSession(st); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.admission.Rehydrate(kit.hello.PeakRate)
	srv.registerLocked(st)
	srv.applyLocked(st, move{ev: evRecover})
	srv.mu.Unlock()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		srv.run(st)
	}()
	stateIs := func(want state) bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return st.state == want
	}

	// The reattach claims the stream and blocks writing its verdict into
	// the pipe until the test reads it.
	conn, peer := net.Pipe()
	defer peer.Close()
	reattached := make(chan struct{})
	go func() {
		defer close(reattached)
		w := wire{conn: conn, fr: transport.NewFrameReader(conn), fw: transport.NewFrameWriter(conn)}
		srv.answer(w, srv.admit(w, &transport.StreamResume{Token: st.token}, nil))
	}()
	waitFor(t, "the reattach to claim the stream", func() bool { return stateIs(claimed) })
	srv.cancel()
	<-ran
	if !stateIs(failed) {
		t.Fatal("cancelled claimed stream did not fail")
	}
	if v, err := transport.NewFrameReader(peer).ReadVerdictTimeout(5 * time.Second); err != nil || !v.IsAdmitted() {
		t.Fatalf("reattach verdict %+v, %v", v, err)
	}
	<-reattached
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("peer read %v after the cancel; want EOF, the handed-over connection closed", err)
	}
	snap := srv.Snapshot()
	if snap.Streams.Failed != 1 || snap.Faults.Resumed != 0 || snap.Streams.Active != 0 || snap.ReservedPeak != 0 {
		t.Errorf("after the cancel: failed %d, resumed %d, active %d, reserved %.0f bps; want 1, 0, 0, 0",
			snap.Streams.Failed, snap.Faults.Resumed, snap.Streams.Active, snap.ReservedPeak)
	}
}
