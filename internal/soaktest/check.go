package soaktest

import (
	"encoding/json"
	"fmt"
	"testing"

	"mpegsmooth/internal/journal"
)

// Stats is what Check reads of one server: the counters of its /stats
// document, as the JSON form of server.Snapshot carries them, and the
// streams it finished.
type Stats struct {
	CapacityBPS   float64  `json:"capacity_bps"`
	ReservedPeak  float64  `json:"reserved_peak_bps"`
	AvailablePeak float64  `json:"available_peak_bps"`
	Streams       Counts   `json:"streams"`
	Active        []Stream `json:"active_streams"`
	// Journal is present when the server runs with one.
	Journal *JournalCounts `json:"journal,omitempty"`
	// Finished are the server's finished streams (server.FinishedStreams
	// in process). A process's /stats lists only active streams; there, a
	// completed stream's tombstone answer stands in for it (Tombstone).
	Finished []Stream `json:"-"`
}

// Counts are the session counters Check reads (server.StreamCounts).
type Counts struct {
	Admitted  int64 `json:"admitted"`
	Active    int64 `json:"active"`
	Parked    int64 `json:"parked"`
	Completed int64 `json:"completed"`
}

// JournalCounts are the journal counters Check reads (journal.Stats).
type JournalCounts struct {
	LiveStreams int `json:"live_streams"`
}

// Stream is one stream's accept watermark and prefix tag
// (server.StreamSnapshot's pictures and payload_fnv).
type Stream struct {
	ID         uint64 `json:"id"`
	Pictures   int    `json:"pictures"`
	PayloadFNV uint64 `json:"payload_fnv"`
}

// Read builds a server's Stats from its snapshot (a server.Snapshot, or
// the "server" section of a node's decoded /stats document) and its
// finished streams ([]server.StreamSnapshot, or nil), through their JSON
// form.
func Read(t testing.TB, snapshot, finished any) Stats {
	t.Helper()
	var st Stats
	decode(t, snapshot, &st)
	if finished != nil {
		decode(t, finished, &st.Finished)
	}
	return st
}

func decode(t testing.TB, v, out any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err == nil {
		err = json.Unmarshal(b, out)
	}
	if err != nil {
		t.Fatalf("reading %T as /stats: %v", v, err)
	}
}

// End is a soak's outcome, as Check reads it once every client is done.
type End struct {
	// Kit holds the pictures every client sent.
	Kit *Kit
	// Clients is how many clients the run admitted.
	Clients int
	// Servers are the server generations and nodes that served the
	// clients, in order: every killed generation, deposed primary or
	// stopped node, and last the server that drained.
	Servers []Stats
	// AlreadyComplete counts the clients a tombstone answered.
	AlreadyComplete int
	// JournalDir, when set, is the drained server's journal directory,
	// closed by the time Check runs.
	JournalDir string
}

// Check fails the test for every promise the end of a soak breaks:
//
//   - admission: exactly one admission per client, summed over the
//     servers;
//   - drained: the last server holds no reservation, no active stream
//     and no parked stream;
//   - byte-exact: every stream the last server finished, and on every
//     other server as many streams as it completed, holds every picture
//     the kit sent, with its prefix tag;
//   - completion: every client completed, or was answered
//     already-complete;
//   - journal: no stream is left in the last server's journal.
func Check(t testing.TB, e End) {
	t.Helper()
	for _, v := range Violations(e) {
		t.Error(v)
	}
}

// Violations lists the promises e breaks, one line each, prefixed by
// the promise's name.
func Violations(e End) []string {
	var out []string
	fail := func(promise, format string, args ...any) {
		out = append(out, promise+": "+fmt.Sprintf(format, args...))
	}
	if len(e.Servers) == 0 {
		return []string{"servers: no server to check"}
	}
	last := e.Servers[len(e.Servers)-1]
	if last.CapacityBPS <= 0 {
		fail("servers", "the last server reports no capacity: its stats were not read")
	}

	var admitted, completed int64
	for _, s := range e.Servers {
		admitted += s.Streams.Admitted
		completed += s.Streams.Completed
	}
	if admitted != int64(e.Clients) {
		fail("admission", "%d admissions across %d servers for %d clients: a retried handshake, a recovery or a promotion admitted a client twice or lost one",
			admitted, len(e.Servers), e.Clients)
	}

	if last.ReservedPeak != 0 || last.AvailablePeak != last.CapacityBPS {
		fail("drained", "%.0f bit/s still reserved, %.0f of %.0f available", last.ReservedPeak, last.AvailablePeak, last.CapacityBPS)
	}
	if c := last.Streams; c.Active != 0 || c.Parked != 0 {
		fail("drained", "%d streams active, %d parked", c.Active, c.Parked)
	}

	pictures, tag := e.Kit.Trace.Len(), e.Kit.Tag(e.Kit.Trace.Len())
	for i, s := range e.Servers {
		drained := i == len(e.Servers)-1
		exact := 0
		for _, fin := range s.Finished {
			switch {
			case fin.Pictures == pictures && fin.PayloadFNV == tag:
				exact++
			case drained:
				fail("byte-exact", "stream %d finished with %d pictures, tag %016x; the kit sent %d, %016x",
					fin.ID, fin.Pictures, fin.PayloadFNV, pictures, tag)
			}
		}
		// The drained server's other finished streams failed above.
		if drained {
			exact = len(s.Finished)
		}
		if exact < int(s.Streams.Completed) {
			fail("byte-exact", "server %d of %d completed %d streams, %d of them finished byte-exact",
				i+1, len(e.Servers), s.Streams.Completed, exact)
		}
	}

	if completed+int64(e.AlreadyComplete) < int64(e.Clients) {
		fail("completion", "%d completions and %d already-complete answers for %d clients", completed, e.AlreadyComplete, e.Clients)
	}

	if last.Journal != nil && last.Journal.LiveStreams != 0 {
		fail("journal", "%d streams live in the drained server's journal", last.Journal.LiveStreams)
	}
	if e.JournalDir != "" {
		j, err := journal.Open(journal.Config{Dir: e.JournalDir, FlushInterval: -1})
		if err != nil {
			fail("journal", "reopening %s: %v", e.JournalDir, err)
		} else {
			if n := len(j.State().Streams); n != 0 {
				fail("journal", "%d streams still journaled once every client finished: a durable reservation leak", n)
			}
			j.Close()
		}
	}
	return out
}
