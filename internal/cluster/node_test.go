package cluster

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/server"
)

// openFS counts the segment files its journals hold open, so a test can
// tell whether a stopped node left one behind.
type openFS struct {
	journal.FS
	open *atomic.Int64
}

func (f openFS) Create(name string) (journal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	f.open.Add(1)
	return &openFile{File: file, open: f.open}, nil
}

type openFile struct {
	journal.File
	open *atomic.Int64
	once sync.Once
}

func (f *openFile) Close() error {
	f.once.Do(func() { f.open.Add(-1) })
	return f.File.Close()
}

// heldNode builds a lone node of the given rank whose journal FS holds
// its nth fsync, and counts the node's open segment files in open.
func heldNode(t *testing.T, rank, nth int, open *atomic.Int64) (n *Node, streamAddr string, held <-chan struct{}, release func()) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	ffs := journal.NewFaultFS(journal.NewMemFS(), journal.FaultConfig{})
	held, release = ffs.HoldSync(nth)
	t.Cleanup(release)
	cfg := Config{Shard: "alpha", Rank: rank, Seed: 5,
		Peers:   []Peer{{Name: "alpha", StreamAddr: addrs[0], ReplAddr: addrs[1]}},
		Server:  server.Config{LinkRate: 1e7},
		Journal: journal.Config{FS: openFS{FS: ffs, open: open}, FlushInterval: 5 * time.Millisecond}}
	fastTimings(&cfg)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	return n, addrs[0], held, release
}

// waitHeld fails the test unless the held fsync arrives.
func waitHeld(t *testing.T, held <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never reached its held fsync", what)
	}
}

// TestNodeStopDuringPromotion pins that a stop wins a race with a
// promotion. A lone follower whose primary never starts promotes
// itself; its journal holds the promotion's reopen (fsync 2: fsync 1 is
// Start's standby compaction) while Kill or Shutdown lands. The stop
// must return, the node must not serve as primary, and nothing the
// promotion built may outlive the stop: not the stream listener, not a
// segment file.
func TestNodeStopDuringPromotion(t *testing.T) {
	for _, c := range []struct {
		name string
		stop func(*Node)
	}{
		{"kill", (*Node).Kill},
		{"shutdown", func(n *Node) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			n.Shutdown(ctx)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var open atomic.Int64
			n, streamAddr, held, release := heldNode(t, 1, 2, &open)
			waitHeld(t, held, "promotion")
			done := make(chan struct{})
			go func() {
				defer close(done)
				c.stop(n)
			}()
			time.Sleep(20 * time.Millisecond)
			release()
			select {
			case <-done:
			case <-time.After(3 * time.Second):
				t.Errorf("%s still blocked 3s after the promotion it raced", c.name)
			}
			if role := n.Role(); role == RolePrimary {
				t.Errorf("node reads %s after %s", role, c.name)
			}
			if t.Failed() {
				return
			}
			ln, err := net.Listen("tcp", streamAddr)
			if err != nil {
				t.Errorf("stream address still bound after %s: %v", c.name, err)
			} else {
				ln.Close()
			}
			if got := open.Load(); got != 0 {
				t.Errorf("%d segment files open after %s", got, c.name)
			}
		})
	}
}

// TestNodeShutdownDuringDemotion pins that a stop wins a race with a
// demotion. A lone primary is partitioned, so it demotes; its journal
// holds the standby reopen the demotion ends with (fsync 3: fsync 1 is
// Start's compaction, fsync 2 the epoch record) while Shutdown lands.
// Once Shutdown returns, every segment file the node created is closed.
func TestNodeShutdownDuringDemotion(t *testing.T) {
	var open atomic.Int64
	n, _, held, release := heldNode(t, 0, 3, &open)
	partitioned := make(chan struct{})
	go func() {
		defer close(partitioned)
		n.Partition()
	}()
	waitHeld(t, held, "demotion")
	time.AfterFunc(50*time.Millisecond, release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if got := open.Load(); got != 0 {
		t.Errorf("%d segment files open once Shutdown returned", got)
	}
	select {
	case <-partitioned:
	case <-time.After(3 * time.Second):
		t.Fatal("Partition still blocked 3s after Shutdown")
	}
}

// handTerm builds a term by hand for TestNodeTransitions: a standby's
// journal or, with serve set, a whole primary term with a server on
// that journal, a quorum gate and two bound listeners. open counts the
// journal's open segment files. The test's cleanup ends the term.
func handTerm(t *testing.T, n *Node, serve bool) (tm *term, open *atomic.Int64) {
	t.Helper()
	open = new(atomic.Int64)
	jrnl, err := journal.Open(journal.Config{FS: openFS{FS: journal.NewMemFS(), open: open}, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	tm = &term{jrnl: jrnl, conns: map[net.Conn]struct{}{}}
	t.Cleanup(func() { n.end(context.Background(), tm, false) })
	if !serve {
		return tm, open
	}
	tm.epoch = 1
	tm.gate = newQuorumTracker(1, ackWindow, time.Second, nil)
	if tm.srv, err = server.New(server.Config{LinkRate: 1e7, Journal: jrnl}); err != nil {
		t.Fatal(err)
	}
	for _, ln := range []*net.Listener{&tm.ln, &tm.replLn} {
		if *ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	return tm, open
}

// TestNodeTransitions drives every (state, move) pair through the one
// transition. A legal move lands in its documented state, role and
// counters; an illegal one is refused, changes nothing, and releases
// the term it would have installed: the server killed, the listeners
// and the quorum gate closed, the journal closed.
func TestNodeTransitions(t *testing.T) {
	stateNames := [...]string{following: "following", primary: "primary", stopped: "stopped"}
	moveNames := [...]string{mvStart: "start", mvFollow: "follow", mvPromote: "promote", mvDemote: "demote", mvStop: "stop"}
	type pair struct {
		from state
		m    move
	}
	type outcome struct {
		to                    state
		role                  Role
		promotions, demotions int64
	}
	legal := map[pair]outcome{
		{following, mvStart}:   {to: primary, role: RolePrimary},
		{following, mvFollow}:  {to: following, role: RoleFollower},
		{following, mvPromote}: {to: primary, role: RolePrimary, promotions: 1},
		{following, mvStop}:    {to: stopped, role: RoleFollower},
		{primary, mvDemote}:    {to: following, role: RoleFollower, demotions: 1},
		{primary, mvStop}:      {to: stopped, role: RolePrimary}, // a stopped node reports the role it last held
	}
	for _, from := range []state{following, primary, stopped} {
		for _, m := range []move{mvStart, mvFollow, mvPromote, mvDemote, mvStop} {
			t.Run(stateNames[from]+"/"+moveNames[m], func(t *testing.T) {
				n, err := New(Config{Shard: "alpha", Server: server.Config{LinkRate: 1e7},
					Peers: []Peer{{Name: "alpha", StreamAddr: "127.0.0.1:0", ReplAddr: "127.0.0.1:0"}}})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.cancel)
				// A stopped node under test was a primary, so its refusals
				// must also keep it reading primary.
				if from != following {
					prior, _ := handTerm(t, n, true)
					n.apply(mvStart, prior)
				}
				if from == stopped {
					n.apply(mvStop, nil)
				}
				before, roleBefore := n.term, n.Role()
				var tm *term
				var open *atomic.Int64
				if m == mvStart || m == mvFollow || m == mvPromote {
					tm, open = handTerm(t, n, m != mvFollow)
				}
				old, made := n.apply(m, tm)
				want, ok := legal[pair{from, m}]
				if made != ok {
					t.Fatalf("apply made the move: %v, want %v", made, ok)
				}
				if !made {
					if n.state != from || n.term != before || n.Role() != roleBefore {
						t.Errorf("refused move changed the node: state %s, role %s, term replaced %v",
							stateNames[n.state], n.Role(), n.term != before)
					}
					if tm == nil {
						return
					}
					if got := open.Load(); got != 0 {
						t.Errorf("refused term left %d segment files open", got)
					}
					if tm.srv != nil && !tm.srv.Draining() {
						t.Error("refused term's server still runs")
					}
					if tm.gate != nil && !errors.Is(tm.gate.WaitCommitted(context.Background(), 1), errQuorumClosed) {
						t.Error("refused term's quorum gate still open")
					}
					for _, ln := range []net.Listener{tm.ln, tm.replLn} {
						if ln == nil {
							continue
						}
						if again, err := net.Listen("tcp", ln.Addr().String()); err != nil {
							t.Errorf("refused term's listener %s still bound: %v", ln.Addr(), err)
						} else {
							again.Close()
						}
					}
					return
				}
				if n.state != want.to || n.Role() != want.role || n.promotions != want.promotions || n.demotions != want.demotions {
					t.Errorf("landed in %s as %s with %d promotions and %d demotions, want %s as %s with %d and %d",
						stateNames[n.state], n.Role(), n.promotions, n.demotions,
						stateNames[want.to], want.role, want.promotions, want.demotions)
				}
				installed := map[move]*term{mvStart: tm, mvFollow: tm, mvPromote: tm, mvDemote: nil, mvStop: before}[m]
				if n.term != installed || old != before {
					t.Errorf("%s left the wrong term installed or returned the wrong one", moveNames[m])
				}
				if (m == mvStart || m == mvPromote) && n.Epoch() != tm.epoch {
					t.Errorf("%s serves epoch %d, node reports %d", moveNames[m], tm.epoch, n.Epoch())
				}
			})
		}
	}
}
