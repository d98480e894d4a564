package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/frame"
)

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0}
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Delay(i+1, nil); got != w {
			t.Fatalf("attempt %d: delay %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		d := b.Delay(1, rng)
		if d < 50*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("jittered delay %v outside [50ms, 100ms]", d)
		}
	}
}

// toyServer is a minimal smoothd stand-in. It admits the stream with
// its token, resets the first connection once killAfter pictures are
// in, answers the resume with its accept watermark and prefix tag, and
// echoes the end marker as the completion ack. Fields are under mu.
type toyServer struct {
	mu       sync.Mutex
	got      map[int][]byte // index → payload
	resumes  int
	sessions int
	rates    int           // rate notifications that reached the server
	ended    chan struct{} // closed when the server reads the end marker
}

func startToyServer(t *testing.T, token uint64, killAfter int) (*toyServer, string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srv := &toyServer{got: map[int][]byte{}, ended: make(chan struct{})}
	// prefix mirrors the real server's running accepted-prefix tag;
	// call under mu.
	prefix := func(n int) uint64 {
		ordered := make([][]byte, n)
		for i := 0; i < n; i++ {
			ordered[i] = srv.got[i]
		}
		return referenceTag(ordered)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fr := NewFrameReader(conn)
			fw := NewFrameWriter(conn)
			msg, err := fr.ReadMessage()
			if err != nil {
				conn.Close()
				continue
			}
			srv.mu.Lock()
			srv.sessions++
			next := len(srv.got)
			pfx := prefix(next)
			srv.mu.Unlock()
			switch m := msg.(type) {
			case *StreamHello:
				fw.WriteVerdict(Verdict{Code: Admitted, Available: 1e6, ResumeToken: token, PrefixFNV: pfx})
			case *StreamResume:
				if m.Token != token {
					fw.WriteVerdict(Verdict{Code: RejectedMalformed, Available: 1e6})
					conn.Close()
					continue
				}
				srv.mu.Lock()
				srv.resumes++
				srv.mu.Unlock()
				fw.WriteVerdict(Verdict{Code: Admitted, Available: 1e6, ResumeToken: token, NextIndex: next, PrefixFNV: pfx})
			}
			func() {
				defer conn.Close()
				for {
					msg, err := fr.ReadMessage()
					if err == ErrClosed {
						fw.WriteEnd() // completion ack
						close(srv.ended)
						return
					}
					if err != nil {
						return
					}
					switch m := msg.(type) {
					case *RateNotification:
						srv.mu.Lock()
						srv.rates++
						srv.mu.Unlock()
					case *PictureFrame:
						srv.mu.Lock()
						srv.got[m.Index] = append([]byte(nil), m.Payload...)
						n := len(srv.got)
						firstSession := srv.sessions == 1
						srv.mu.Unlock()
						if firstSession && n >= killAfter {
							return // abrupt reset mid-stream
						}
					}
				}
			}()
		}
	}()
	return srv, ln.Addr().String()
}

// TestResumableSenderSurvivesMidStreamReset: a toy server admits the
// stream, abruptly resets the connection after a few pictures, then
// accepts the resume handshake and the replayed remainder. The sender
// must deliver every picture exactly once across the two connections.
func TestResumableSenderSurvivesMidStreamReset(t *testing.T) {
	_, payloads := testSchedule(t, 18)
	const token = 777
	const killAfter = 5
	srv, addr := startToyServer(t, token, killAfter)

	rs := &ResumableSender{
		Sender: Sender{TimeScale: 200, Chunk: 512},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		Hello:       validHello(),
		Backoff:     Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxAttempts: 10,
		Seed:        1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rs.Stream(ctx, payloads)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if res.Resumes < 1 {
		t.Fatalf("expected at least one resume, got %d", res.Resumes)
	}
	if res.Verdict.ResumeToken != token {
		t.Fatalf("verdict token %d", res.Verdict.ResumeToken)
	}
	// The sender returns when its last write lands in the socket buffer;
	// wait for the server to actually drain through the end marker.
	select {
	case <-srv.ended:
	case <-time.After(10 * time.Second):
		t.Fatal("server never saw the end marker")
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.resumes < 1 {
		t.Fatalf("server saw %d resumes", srv.resumes)
	}
	if len(srv.got) != len(payloads) {
		t.Fatalf("server received %d distinct pictures, want %d", len(srv.got), len(payloads))
	}
	for i, p := range payloads {
		if PayloadSum64(srv.got[i]) != PayloadSum64(p) {
			t.Fatalf("picture %d corrupted or missing", i)
		}
	}
}

// headerLog is a connection that notes the clock's time whenever a
// picture header frame goes out whole, as it does on a writer that
// cannot gather.
type headerLog struct {
	net.Conn
	clock Clock
	at    map[int]time.Time // picture index → when its header was written
}

func (c *headerLog) Write(p []byte) (int, error) {
	if kind, _, body, err := frame.Check(p); err == nil && kind == kindPicture {
		c.at[int(binary.BigEndian.Uint32(body))] = c.clock.Now()
	}
	return c.Conn.Write(p)
}

// TestResumableSenderUploadsAtArrival: on a virtual clock, the sender
// writes picture i's header at origin + i·τ/TimeScale and sends no rate
// frame. After the toy server's mid-stream reset, picture NextIndex
// goes the instant the resumed connection is up and the rest keep
// their τ spacing from it.
func TestResumableSenderUploadsAtArrival(t *testing.T) {
	_, payloads := testSchedule(t, 18)
	const token, scale = 779, 200
	srv, addr := startToyServer(t, token, 5)

	clk := &virtualClock{now: time.Unix(1_000_000, 0)}
	hello := validHello()
	var (
		dialed  []time.Time
		headers []map[int]time.Time // per connection
		next    = -1
	)
	rs := &ResumableSender{
		Sender: Sender{Clock: clk, TimeScale: scale, Chunk: 512},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			dialed = append(dialed, clk.Now())
			headers = append(headers, map[int]time.Time{})
			return &headerLog{Conn: conn, clock: clk, at: headers[len(headers)-1]}, nil
		},
		Hello:       hello,
		Backoff:     Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxAttempts: 10,
		Seed:        1,
		OnEvent: func(ev ResumeEvent) {
			if ev.Resumed {
				next = ev.NextIndex
			}
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rs.Stream(ctx, payloads)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	select {
	case <-srv.ended:
	case <-time.After(10 * time.Second):
		t.Fatal("server never saw the end marker")
	}
	if res.Resumes != 1 || len(dialed) != 2 || next < 1 || next >= len(payloads) {
		t.Fatalf("%d resumes over %d connections, resumed at %d", res.Resumes, len(dialed), next)
	}
	arrival := func(origin time.Time, i int) time.Time {
		return origin.Add(time.Duration(float64(i) * hello.Tau / scale * float64(time.Second)))
	}
	first, resumed := headers[0], headers[1]
	origin := first[0]
	for i, at := range first {
		if want := arrival(origin, i); !within(at, want) {
			t.Fatalf("picture %d header at %v, want its arrival %v", i, at.Sub(origin), want.Sub(origin))
		}
	}
	if !resumed[next].Equal(dialed[1]) {
		t.Fatalf("picture %d went %v after the resumed connection opened, want at once", next, resumed[next].Sub(dialed[1]))
	}
	for i := next; i < len(payloads); i++ {
		at, ok := resumed[i]
		if !ok {
			t.Fatalf("picture %d never went on the resumed connection", i)
		}
		if want := arrival(dialed[1], i-next); !within(at, want) {
			t.Fatalf("resumed picture %d at %v, want %v", i, at.Sub(dialed[1]), want.Sub(dialed[1]))
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.rates != 0 {
		t.Fatalf("%d rate notifications reached the server", srv.rates)
	}
	if len(srv.got) != len(payloads) {
		t.Fatalf("server received %d distinct pictures, want %d", len(srv.got), len(payloads))
	}
}

// TestResumableSenderRejectsByteWiseTag: a server still on the
// byte-wise FNV-1a prefix tag answers the resume with a tag the sender
// cannot match. The sender must stop with ErrDiverged before it
// replays a byte.
func TestResumableSenderRejectsByteWiseTag(t *testing.T) {
	_, payloads := testSchedule(t, 18)
	const token = 778
	const accept = 5

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	replayed := make(chan any, 1) // what the resumed connection carried after the verdict
	go func() {
		// First connection: admit, accept a prefix, then drop the link.
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		fr, fw := NewFrameReader(conn), NewFrameWriter(conn)
		if _, err := fr.ReadMessage(); err != nil {
			conn.Close()
			return
		}
		fw.WriteVerdict(Verdict{Code: Admitted, Available: 1e6, ResumeToken: token, PrefixFNV: byteFNV(nil)})
		for got := 0; got < accept; {
			msg, err := fr.ReadMessage()
			if err != nil {
				break
			}
			if _, ok := msg.(*PictureFrame); ok {
				got++
			}
		}
		conn.Close()

		// Second connection: answer the resume with the old tag.
		conn, err = ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr, fw = NewFrameReader(conn), NewFrameWriter(conn)
		if _, err := fr.ReadMessage(); err != nil {
			replayed <- err
			return
		}
		fw.WriteVerdict(Verdict{Code: Admitted, Available: 1e6, ResumeToken: token,
			NextIndex: accept, PrefixFNV: byteFNV(payloads[:accept])})
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if msg, err := fr.ReadMessage(); err != nil {
			replayed <- err
		} else {
			replayed <- msg
		}
	}()

	rs := &ResumableSender{
		Sender: Sender{TimeScale: 200, Chunk: 512},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ln.Addr().String())
		},
		Hello:            validHello(),
		Backoff:          Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxAttempts:      3,
		HandshakeTimeout: 5 * time.Second,
		Seed:             1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rs.Stream(ctx, payloads)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("stream error %v, want ErrDiverged", err)
	}
	if res.Resumes != 0 {
		t.Fatalf("sender counted %d resumes on a diverged prefix", res.Resumes)
	}
	select {
	case got := <-replayed:
		if got != io.EOF {
			t.Fatalf("resumed connection carried %v after the verdict, want EOF", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never saw the resumed connection end")
	}
}

// TestResumableSenderGivesUpAfterMaxAttempts: with nothing listening,
// the loop must stop at MaxAttempts, not spin forever.
func TestResumableSenderGivesUpAfterMaxAttempts(t *testing.T) {
	_, payloads := testSchedule(t, 9)
	attempts := 0
	rs := &ResumableSender{
		Sender: Sender{TimeScale: 1000},
		Dial: func(ctx context.Context) (net.Conn, error) {
			attempts++
			return nil, &net.OpError{Op: "dial", Err: context.DeadlineExceeded}
		},
		Hello:       validHello(),
		Backoff:     Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		MaxAttempts: 3,
		Seed:        1,
	}
	_, err := rs.Stream(context.Background(), payloads)
	if err == nil {
		t.Fatal("stream with no server should fail")
	}
	if attempts != 3 {
		t.Fatalf("dialed %d times, want 3", attempts)
	}
}

// TestResumableSenderTerminalOnRejection: an admission rejection is not
// a fault — no retries, immediate error with the verdict preserved.
func TestResumableSenderTerminalOnRejection(t *testing.T) {
	_, payloads := testSchedule(t, 9)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := NewFrameReader(conn)
		fw := NewFrameWriter(conn)
		if _, err := fr.ReadMessage(); err != nil {
			return
		}
		fw.WriteVerdict(Verdict{Code: RejectedCapacity, Available: 12345})
	}()
	dials := 0
	rs := &ResumableSender{
		Sender: Sender{TimeScale: 1000},
		Dial: func(ctx context.Context) (net.Conn, error) {
			dials++
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ln.Addr().String())
		},
		Hello: validHello(),
		Seed:  1,
	}
	res, err := rs.Stream(context.Background(), payloads)
	if err == nil {
		t.Fatal("rejected stream should error")
	}
	if dials != 1 {
		t.Fatalf("rejection retried: %d dials", dials)
	}
	if res.Verdict.Code != RejectedCapacity || res.Verdict.Available != 12345 {
		t.Fatalf("verdict not preserved: %+v", res.Verdict)
	}
}

// TestResumableSenderRefusesWrappedNextIndex: a CRC-valid Admitted
// verdict whose NextIndex is 2^31, negative once held in a 32-bit int,
// is refused as corrupt. The sender retries and gives up instead of
// slicing its payloads at that watermark.
func TestResumableSenderRefusesWrappedNextIndex(t *testing.T) {
	_, payloads := testSchedule(t, 9)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	body := make([]byte, 37)
	body[0] = byte(Admitted)
	binary.BigEndian.PutUint64(body[9:17], 42) // resume token
	binary.BigEndian.PutUint32(body[17:21], 1<<31)
	verdict := rawFrame(kindVerdict, 0, body)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := NewFrameReader(conn).ReadMessage(); err == nil {
					conn.Write(verdict)
				}
			}()
		}
	}()
	rs := &ResumableSender{
		Sender: Sender{TimeScale: 1000},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ln.Addr().String())
		},
		Hello:       validHello(),
		Seed:        1,
		MaxAttempts: 2,
		Backoff:     Backoff{Base: time.Millisecond, Max: time.Millisecond},
	}
	if _, err := rs.Stream(context.Background(), payloads); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("verdict with next index 2^31: %v, want ErrCorrupt", err)
	}
}
