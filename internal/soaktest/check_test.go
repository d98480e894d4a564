package soaktest

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mpegsmooth/internal/journal"
)

// journalDir returns a closed journal directory that holds the given
// admitted streams.
func journalDir(t *testing.T, kit *Kit, streams int) string {
	t.Helper()
	dir := t.TempDir()
	j, err := journal.Open(journal.Config{Dir: dir, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for tok := uint64(1); tok <= uint64(streams); tok++ {
		if _, err := j.Admitted(journal.StreamRecord{Token: tok, Hello: kit.Hello}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCheckPromises: a clean end of a two-generation soak breaks no
// promise, nor does one whose lost completion ack a tombstone answered,
// and each crafted end that breaks one promise fails that promise alone.
func TestCheckPromises(t *testing.T) {
	kit := NewKit(t, 9)
	n := kit.Trace.Len()
	exact := Stream{Pictures: n, PayloadFNV: kit.Tag(n)}
	emptyDir, leakyDir := journalDir(t, kit, 0), journalDir(t, kit, 1)

	// clean is the end of a soak whose two clients were admitted by a
	// generation killed mid-stream and completed on the next one.
	clean := func() End {
		killed := Stats{
			CapacityBPS: 3 * kit.Hello.PeakRate, ReservedPeak: 2 * kit.Hello.PeakRate, AvailablePeak: kit.Hello.PeakRate,
			Streams:  Counts{Admitted: 2},
			Finished: []Stream{{ID: 1, Pictures: 4, PayloadFNV: kit.Tag(4)}, {ID: 2, Pictures: 5, PayloadFNV: kit.Tag(5)}},
		}
		drained := Stats{
			CapacityBPS: 3 * kit.Hello.PeakRate, AvailablePeak: 3 * kit.Hello.PeakRate,
			Streams:  Counts{Completed: 2},
			Journal:  &JournalCounts{},
			Finished: []Stream{exact, exact},
		}
		return End{Kit: kit, Clients: 2, Servers: []Stats{killed, drained}, JournalDir: emptyDir}
	}
	last := func(e End) *Stats { return &e.Servers[len(e.Servers)-1] }

	for _, c := range []struct {
		name, promise string
		breakIt       func(e *End)
	}{
		{"clean", "", func(*End) {}},
		{"admitted again in a later generation", "admission", func(e *End) {
			last(*e).Streams.Admitted = 1
		}},
		{"a client never admitted", "admission", func(e *End) {
			e.Servers[0].Streams.Admitted = 1
		}},
		{"bits left reserved", "drained", func(e *End) {
			s := last(*e)
			s.ReservedPeak, s.AvailablePeak = kit.Hello.PeakRate, s.CapacityBPS-kit.Hello.PeakRate
		}},
		{"a stream left parked", "drained", func(e *End) {
			s := last(*e)
			s.Streams.Active, s.Streams.Parked = 1, 1
		}},
		{"a wrong prefix tag", "byte-exact", func(e *End) {
			last(*e).Finished[1].PayloadFNV ^= 1
		}},
		{"a picture lost", "byte-exact", func(e *End) {
			last(*e).Finished[0].Pictures--
		}},
		{"a killed generation's completion corrupted", "byte-exact", func(e *End) {
			e.Servers[0].Streams.Completed = 1
			e.Servers[0].Finished[0] = Stream{Pictures: n, PayloadFNV: kit.Tag(n - 1)}
			last(*e).Streams.Completed = 1
			last(*e).Finished = last(*e).Finished[:1]
		}},
		{"a client neither completed nor answered", "completion", func(e *End) {
			last(*e).Streams.Completed = 1
			last(*e).Finished = last(*e).Finished[:1]
		}},
		{"a client answered already-complete", "", func(e *End) {
			last(*e).Streams.Completed = 1
			last(*e).Finished = last(*e).Finished[:1]
			e.AlreadyComplete = 1
		}},
		{"a stream left in the journal", "journal", func(e *End) {
			e.JournalDir = leakyDir
		}},
		{"a stream live in the running journal", "journal", func(e *End) {
			last(*e).Journal.LiveStreams = 1
		}},
		{"stats never read", "servers", func(e *End) {
			last(*e).CapacityBPS, last(*e).AvailablePeak = 0, 0
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := clean()
			c.breakIt(&e)
			got := Violations(e)
			if c.promise == "" {
				if len(got) != 0 {
					t.Fatalf("clean end breaks %q", got)
				}
				return
			}
			if len(got) != 1 || !strings.HasPrefix(got[0], c.promise+": ") {
				t.Fatalf("violations %q, want one of %q", got, c.promise)
			}
		})
	}
}

// fatalRecorder keeps the message of a Fatalf instead of ending the
// test.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Helper() {}

func (r *fatalRecorder) Fatalf(format string, args ...any) { r.msg = fmt.Sprintf(format, args...) }

// TestWaitForReports: a wait that times out names what it waited for and
// adds what each report says.
func TestWaitForReports(t *testing.T) {
	r := &fatalRecorder{TB: t}
	waitFor(r, 10*time.Millisecond, "rank 1 promoted", func() bool { return false },
		[]func() string{func() string { return "rank 0: follower" }, func() string { return "rank 1: follower" }})
	if want := "timed out waiting for rank 1 promoted\nrank 0: follower\nrank 1: follower"; r.msg != want {
		t.Fatalf("failure message %q, want %q", r.msg, want)
	}
	r.msg = ""
	waitFor(r, time.Second, "nothing", func() bool { return true }, nil)
	if r.msg != "" {
		t.Fatalf("a wait whose condition holds failed: %q", r.msg)
	}
}
