package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/transport"
)

// TestDeclaredCountOverrunFails: a hello's picture count is binding. A
// sender that declares 20 pictures and sends a 21st fails its stream,
// releases its reservation, and the journal forgets it.
func TestDeclaredCountOverrunFails(t *testing.T) {
	kit := makeClient(t, testTrace(t, 21))
	kit.hello.Pictures = 20
	j, err := journal.Open(journal.Config{FS: journal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, Config{
		LinkRate: 2 * kit.hello.PeakRate, ResumeWindow: 5 * time.Second, Journal: j,
	})
	conn, fw, v := kit.handshake(t, addr)
	defer conn.Close()
	if !v.IsAdmitted() {
		t.Fatalf("verdict %+v", v)
	}
	waitFor(t, "the admission to be journaled", func() bool { return srv.Snapshot().Journal.LiveStreams == 1 })
	sendPictures(t, fw, kit, 0, kit.tr.Len())
	fw.WriteEnd() // the server may already have hung up

	// finish journals the expiry after it counts the failure.
	waitFor(t, "the overrunning stream to fail and be expired", func() bool {
		s := srv.Snapshot()
		return s.Streams.Failed == 1 && s.Streams.Active == 0 && s.Journal.LiveStreams == 0
	})
	snap := srv.Snapshot()
	if snap.Streams.Completed != 0 || snap.ReservedPeak != 0 || snap.Journal.LiveTombstones != 0 {
		t.Errorf("after the overrun: completed %d, reserved %.0f bps, %d tombstones; want 0, 0, 0",
			snap.Streams.Completed, snap.ReservedPeak, snap.Journal.LiveTombstones)
	}
	if fin := srv.FinishedStreams(); len(fin) != 1 || fin[0].Pictures != 20 {
		t.Errorf("finished streams %+v; want one that accepted 20 pictures", fin)
	}
}

// TestDeclaredCountBindsAfterRecovery: a stream recovered from the
// journal is held to what remains of its declared count. The sender
// declares 20 pictures; the first generation accepts head of them and
// is killed; the resumed sender overruns by one and the stream fails,
// its reservation and journal record released. With head = 20 every
// declared picture was in before the crash, and the first picture
// after the resume is already one too many.
func TestDeclaredCountBindsAfterRecovery(t *testing.T) {
	for _, head := range []int{9, 20} {
		t.Run(fmt.Sprintf("head%d", head), func(t *testing.T) {
			kit := makeClient(t, testTrace(t, 21))
			kit.hello.Pictures = 20
			cfg := Config{
				LinkRate: 2 * kit.hello.PeakRate, ReadTimeout: 5 * time.Second, ResumeWindow: 20 * time.Second,
			}
			dir := t.TempDir()
			gen1, addr := startGeneration(t, cfg, dir, "")
			conn, fw, v := kit.handshake(t, addr)
			defer conn.Close()
			if !v.IsAdmitted() || v.ResumeToken == 0 {
				t.Fatalf("verdict %+v", v)
			}
			sendPictures(t, fw, kit, 0, head)
			waitFor(t, "head pictures journaled", func() bool {
				return gen1.jrnl.Stats().WatermarksCoalesced >= int64(head)
			})
			if err := gen1.jrnl.Flush(); err != nil {
				t.Fatal(err)
			}
			gen1.kill(t)

			gen2, _ := startGeneration(t, cfg, dir, addr)
			waitFor(t, "recovered stream parked", func() bool { return gen2.srv.Snapshot().Streams.Parked == 1 })
			conn2, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn2.Close()
			fw2 := transport.NewFrameWriter(conn2)
			if err := fw2.WriteResume(transport.StreamResume{Token: v.ResumeToken}); err != nil {
				t.Fatal(err)
			}
			v2, err := transport.NewFrameReader(conn2).ReadVerdictTimeout(10 * time.Second)
			if err != nil || !v2.IsAdmitted() || v2.NextIndex != head {
				t.Fatalf("resume verdict %+v, %v; want admitted at %d", v2, err, head)
			}
			sendPictures(t, fw2, kit, head, kit.tr.Len())
			fw2.WriteEnd() // the server may already have hung up

			waitFor(t, "the overrunning stream to fail and be expired", func() bool {
				s := gen2.srv.Snapshot()
				return s.Streams.Failed == 1 && s.Streams.Active == 0 && s.Journal.LiveStreams == 0
			})
			if snap := gen2.srv.Snapshot(); snap.Streams.Completed != 0 || snap.ReservedPeak != 0 {
				t.Errorf("after the overrun: completed %d, reserved %.0f bps; want 0 and 0",
					snap.Streams.Completed, snap.ReservedPeak)
			}
			gen2.shutdown(t)
		})
	}
}

// TestDeclaredCountShortStreamCompletes: a sender may end its stream
// before its declared count. Declaring 54 and sending 40 then the end
// marker completes, with every picture egressed within its bound.
func TestDeclaredCountShortStreamCompletes(t *testing.T) {
	kit := makeClient(t, testTrace(t, 40))
	kit.hello.Pictures = 54
	srv, addr := startServer(t, Config{LinkRate: 2 * kit.hello.PeakRate})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if v, err := kit.stream(ctx, addr); err != nil || !v.IsAdmitted() {
		t.Fatalf("verdict %+v, %v", v, err)
	}
	waitFor(t, "the short stream to complete", func() bool {
		s := srv.Snapshot()
		return s.Streams.Completed == 1 && s.Streams.Active == 0
	})
	var bits int64
	for _, p := range kit.payloads {
		bits += int64(len(p)) * 8
	}
	snap := srv.Snapshot()
	if snap.EgressedBits != bits || snap.DelayViolations != 0 || snap.Streams.Failed != 0 {
		t.Errorf("egressed %d of %d bits, %d delay violations, %d failed; want all, 0, 0",
			snap.EgressedBits, bits, snap.DelayViolations, snap.Streams.Failed)
	}
	if fin := srv.FinishedStreams(); len(fin) != 1 || fin[0].Pictures != 40 || fin[0].Decisions != 40 {
		t.Errorf("finished streams %+v; want one with 40 pictures and 40 decisions", fin)
	}
}

// TestDeclaredLengthEgressKeepsUp: with a declared length the server
// decides each picture once Theorem 1's inputs have arrived, so with
// pacing collapsed (TimeScale 1e6) egress keeps within a few pictures
// of the sender: all of picture p−5 has left before the sender writes
// picture p+1. /stats shows the lag as max_undecided_pictures: 4 for
// this Driving1 stream, and H−1 = 8 when the hello leaves the count
// unknown and each decision waits for its lookahead window.
func TestDeclaredLengthEgressKeepsUp(t *testing.T) {
	for _, tc := range []struct {
		name         string
		declared     bool
		maxUndecided int
	}{
		{"declared", true, 4},
		{"unknown", false, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kit := makeClient(t, testTrace(t, 108))
			if !tc.declared {
				kit.hello.Pictures = 0
			}
			srv, addr := startServer(t, Config{LinkRate: 2 * kit.hello.PeakRate, TimeScale: 1e6})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fw, fr := transport.NewFrameWriter(conn), transport.NewFrameReader(conn)
			if err := fw.WriteHello(kit.hello); err != nil {
				t.Fatal(err)
			}
			if v, err := fr.ReadVerdict(); err != nil || !v.IsAdmitted() {
				t.Fatalf("verdict %+v, %v", v, err)
			}
			var egressed int64 // bits of pictures 0..p−5
			for i := range kit.payloads {
				if p := i - 1; tc.declared && p >= 5 {
					egressed += int64(len(kit.payloads[p-5])) * 8
					waitFor(t, "picture p−5 to leave before picture p+1 is sent", func() bool {
						return srv.Snapshot().EgressedBits >= egressed
					})
				}
				sendPictures(t, fw, kit, i, i+1)
			}
			if err := fw.WriteEnd(); err != nil {
				t.Fatal(err)
			}
			if _, err := fr.ReadMessageTimeout(10 * time.Second); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("completion ack: %v", err)
			}
			waitFor(t, "completion", func() bool { return srv.Snapshot().Streams.Completed == 1 })
			fin := srv.FinishedStreams()
			if len(fin) != 1 || fin[0].Decisions != kit.tr.Len() {
				t.Fatalf("finished streams %+v", fin)
			}
			if got := fin[0].MaxUndecided; got != tc.maxUndecided {
				t.Errorf("max_undecided_pictures %d, want %d", got, tc.maxUndecided)
			}
		})
	}
}
