package transport

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
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

// TestResumableSenderSurvivesMidStreamReset: a toy server admits the
// stream, abruptly resets the connection after a few pictures, then
// accepts the resume handshake and the replayed remainder. The sender
// must deliver every picture exactly once across the two connections.
func TestResumableSenderSurvivesMidStreamReset(t *testing.T) {
	sched, payloads := testSchedule(t, 18)
	const token = 777
	const killAfter = 5

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var (
		mu       sync.Mutex
		got      = map[int][]byte{} // index → payload
		resumes  int
		sessions int
	)
	// prefix mirrors the real server's running accepted-prefix tag;
	// call under mu.
	prefix := func(n int) uint64 {
		ordered := make([][]byte, n)
		for i := 0; i < n; i++ {
			ordered[i] = got[i]
		}
		return referenceTag(ordered)
	}
	ended := make(chan struct{}) // closed when the server reads the end marker
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
			mu.Lock()
			sessions++
			next := len(got)
			pfx := prefix(next)
			mu.Unlock()
			switch m := msg.(type) {
			case *StreamHello:
				fw.WriteVerdict(Verdict{Code: Admitted, Available: 1e6, ResumeToken: token, PrefixFNV: pfx})
			case *StreamResume:
				if m.Token != token {
					fw.WriteVerdict(Verdict{Code: RejectedMalformed, Available: 1e6})
					conn.Close()
					continue
				}
				mu.Lock()
				resumes++
				mu.Unlock()
				fw.WriteVerdict(Verdict{Code: Admitted, Available: 1e6, ResumeToken: token, NextIndex: next, PrefixFNV: pfx})
			}
			func() {
				defer conn.Close()
				for {
					msg, err := fr.ReadMessage()
					if err == ErrClosed {
						fw.WriteEnd() // completion ack
						close(ended)
						return
					}
					if err != nil {
						return
					}
					if pf, ok := msg.(*PictureFrame); ok {
						mu.Lock()
						got[pf.Index] = append([]byte(nil), pf.Payload...)
						n := len(got)
						firstSession := sessions == 1
						mu.Unlock()
						if firstSession && n >= killAfter {
							return // abrupt reset mid-stream
						}
					}
				}
			}()
		}
	}()

	rs := &ResumableSender{
		Sender: Sender{TimeScale: 200, Chunk: 512},
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ln.Addr().String())
		},
		Hello:       validHello(),
		Backoff:     Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxAttempts: 10,
		Seed:        1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := rs.StreamSchedule(ctx, sched, payloads)
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
	case <-ended:
	case <-time.After(10 * time.Second):
		t.Fatal("server never saw the end marker")
	}

	mu.Lock()
	defer mu.Unlock()
	if resumes < 1 {
		t.Fatalf("server saw %d resumes", resumes)
	}
	if len(got) != len(payloads) {
		t.Fatalf("server received %d distinct pictures, want %d", len(got), len(payloads))
	}
	for i, p := range payloads {
		if PayloadSum64(got[i]) != PayloadSum64(p) {
			t.Fatalf("picture %d corrupted or missing", i)
		}
	}
}

// TestResumableSenderRejectsByteWiseTag: a server still on the
// byte-wise FNV-1a prefix tag answers the resume with a tag the sender
// cannot match. The sender must stop with ErrDiverged before it
// replays a byte.
func TestResumableSenderRejectsByteWiseTag(t *testing.T) {
	sched, payloads := testSchedule(t, 18)
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
	res, err := rs.StreamSchedule(ctx, sched, payloads)
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
	sched, payloads := testSchedule(t, 9)
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
	_, err := rs.StreamSchedule(context.Background(), sched, payloads)
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
	sched, payloads := testSchedule(t, 9)
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
	res, err := rs.StreamSchedule(context.Background(), sched, payloads)
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
