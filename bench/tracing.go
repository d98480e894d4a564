package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"mpegsmooth/internal/journal"
)

// The traced run wraps the boundaries between the benchmark and each
// layer: the client's calls into transport.FrameWriter/FrameReader, the
// server's connection reads and writes (through a wrapped listener),
// journal fsyncs (through a wrapped journal.FS), and the kernel and
// simulator calls. Each crossing becomes a span kept in memory and
// written out at exit; the per-layer metrics are computed from the same
// crossings. Spans inside the program are out of scope: the benchmark
// only times calls it makes or objects it hands the program.

// maxSpans bounds the spans kept for the span file; timings keep every
// crossing regardless.
const maxSpans = 200_000

// span is one boundary crossing. Spans of one session share Session;
// Parent is the id of the span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Session int64  `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// timing aggregates every crossing of one boundary: durations in
// nanoseconds, and the units of work they covered (pictures, cells).
type timing struct {
	samples []float64
	total   float64
	units   float64
}

// tracer records spans while on. A nil tracer is never on, so untraced
// runs pay one nil check per boundary.
type tracer struct {
	base time.Time
	on   atomic.Bool
	ids  atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	timings map[string]*timing
	addrs   map[string]int64 // client address → session, for server spans
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, timings: map[string]*timing{}, addrs: map[string]int64{}}
}

// enabled reports whether crossings are being recorded.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newID allocates a span id, so a parent can be named before it ends.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// span records a crossing of name over [start, end) covering units of
// work. id 0 allocates a fresh id.
func (t *tracer) span(name string, id, parent, session int64, start, end time.Time, units float64) {
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(name, end.Sub(start), units)
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{
			ID: id, Parent: parent, Session: session, Name: name,
			Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
		})
	} else {
		t.dropped++
	}
}

// add records a duration spent at a boundary without a span of its own,
// such as the read wait inside a connection's lifetime.
func (t *tracer) add(name string, d time.Duration, units float64) {
	t.mu.Lock()
	t.addLocked(name, d, units)
	t.mu.Unlock()
}

func (t *tracer) addLocked(name string, d time.Duration, units float64) {
	tm := t.timings[name]
	if tm == nil {
		tm = &timing{}
		t.timings[name] = tm
	}
	tm.samples = append(tm.samples, float64(d))
	tm.total += float64(d)
	tm.units += units
}

// timing returns a copy of the named boundary's aggregate (zero when
// never crossed, as for a layer the workload does not use).
func (t *tracer) timing(name string) timing {
	if t == nil {
		return timing{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tm := t.timings[name]; tm != nil {
		return timing{samples: append([]float64(nil), tm.samples...), total: tm.total, units: tm.units}
	}
	return timing{}
}

// bind ties a client connection's address to its session, so the
// server side of the connection joins the session's spans.
func (t *tracer) bind(addr string, session int64) {
	t.mu.Lock()
	t.addrs[addr] = session
	t.mu.Unlock()
}

func (t *tracer) sessionOf(addr string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.addrs[addr]; ok {
		return s
	}
	return -1
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) (kept int, dropped int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return 0, 0, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	return len(t.spans), t.dropped, f.Close()
}

// timedFS times every segment fsync the journal issues.
type timedFS struct {
	journal.FS
	t    *tracer
	name string
}

func (f timedFS) Create(name string) (journal.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f}, nil
}

type timedFile struct {
	journal.File
	fs timedFS
}

func (f timedFile) Sync() error {
	if !f.fs.t.enabled() {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	f.fs.t.span(f.fs.name, 0, 0, -1, start, time.Now(), 1)
	return err
}

// timedListener hands the server connections that time their reads and
// writes. Connections accepted while tracing is off pass through bare.
type timedListener struct {
	net.Listener
	t *tracer
	// accepted, when set, sees every accepted connection first.
	accepted func(net.Conn)
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	if l.accepted != nil {
		l.accepted(c)
	}
	if !l.t.enabled() {
		return c, nil
	}
	return &timedConn{Conn: c, t: l.t, born: time.Now()}, nil
}

// timedConn is the server's view of one session connection. The server
// writes exactly twice on a completed session, the verdict and then the
// completion ack, and reads everything else; so the hello→verdict time
// is the first write's start less the first read's end, and the
// end-marker→ack time is the second write's start less the last read's
// end before it.
type timedConn struct {
	net.Conn
	t    *tracer
	born time.Time

	mu     sync.Mutex
	seen   connTimes
	closed bool
}

type connTimes struct {
	readNs               int64
	firstRead, lastRead  time.Time
	writes               int
	verdictIn, verdictAt time.Time
	ackIn, ackAt         time.Time
}

func (c *timedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	end := time.Now()
	c.mu.Lock()
	c.seen.readNs += int64(end.Sub(start))
	if n > 0 {
		if c.seen.firstRead.IsZero() {
			c.seen.firstRead = end
		}
		c.seen.lastRead = end
	}
	c.mu.Unlock()
	return n, err
}

func (c *timedConn) Write(p []byte) (int, error) {
	now := time.Now()
	c.mu.Lock()
	c.seen.writes++
	switch c.seen.writes {
	case 1:
		c.seen.verdictIn, c.seen.verdictAt = c.seen.firstRead, now
	case 2:
		c.seen.ackIn, c.seen.ackAt = c.seen.lastRead, now
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *timedConn) Close() error {
	now := time.Now()
	c.mu.Lock()
	first := !c.closed
	c.closed = true
	seen := c.seen
	c.mu.Unlock()
	if first {
		t := c.t
		sess := t.sessionOf(c.RemoteAddr().String())
		root := t.newID()
		if !seen.verdictIn.IsZero() {
			t.span("server.verdict", 0, root, sess, seen.verdictIn, seen.verdictAt, 1)
		}
		if !seen.ackIn.IsZero() {
			t.span("server.ack", 0, root, sess, seen.ackIn, seen.ackAt, 1)
		}
		t.span("server.conn", root, 0, sess, c.born, now, 1)
		t.add("server.read_wait", time.Duration(seen.readNs), 1)
	}
	return c.Conn.Close()
}

// runtimeCounters reads the cumulative allocation and CPU counters.
func runtimeCounters() (allocs, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// sampleRSS samples the process's resident set, in megabytes, every
// 100 ms for d.
func sampleRSS(d time.Duration) []float64 {
	var out []float64
	page := float64(os.Getpagesize())
	for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(100 * time.Millisecond) {
		// statm's second field is the resident page count.
		if b, err := os.ReadFile("/proc/self/statm"); err == nil {
			var size, resident float64
			if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
				out = append(out, resident*page/1e6)
			}
		}
	}
	return out
}
