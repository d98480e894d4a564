package transport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// startScriptedServer answers the first message of its k-th connection
// with replies[k], a *Verdict or a *Redirect, and repeats the last reply
// once the script runs out. replies is built from the server's own
// address, so a redirect can point back at it. Behind an Admitted
// verdict it reads the stream to its end marker and echoes the marker
// as the completion ack; after any other reply it hangs up.
func startScriptedServer(t *testing.T, replies func(addr string) []any) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: close the listener, then wait for
	// the connections to end.
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	t.Cleanup(func() { ln.Close() })
	script := replies(ln.Addr().String())
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			reply := script[min(k, len(script)-1)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				fr, fw := NewFrameReader(conn), NewFrameWriter(conn)
				if _, err := fr.ReadMessageTimeout(5 * time.Second); err != nil {
					return
				}
				switch m := reply.(type) {
				case *Redirect:
					fw.WriteRedirect(*m)
					return
				case *Verdict:
					if fw.WriteVerdict(*m) != nil || m.Code != Admitted {
						return
					}
				}
				for {
					if _, err := fr.ReadMessageTimeout(5 * time.Second); err != nil {
						if errors.Is(err, ErrClosed) {
							fw.WriteEnd()
						}
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// errAnyFailure marks a row whose stream must fail, for any reason.
var errAnyFailure = errors.New("any failure")

// TestResumableSenderAnswers drives ResumableSender against a scripted
// server, one row per reply to its handshake: how many connections the
// sender opens, whether the stream succeeds, which faults it counts, the
// redirects it follows and the hello verdict it keeps.
func TestResumableSenderAnswers(t *testing.T) {
	_, payloads := testSchedule(t, 9)
	const token = 42
	tag := referenceTag(payloads)
	admitted := func(epoch uint64) *Verdict {
		return &Verdict{Code: Admitted, Available: 1e6, ResumeToken: token, Epoch: epoch, PrefixFNV: referenceTag(nil)}
	}
	other := [][]byte{payloads[1], payloads[0], payloads[2]}
	const maxAttempts = 3
	for _, c := range []struct {
		name       string
		replies    func(addr string) []any
		noDialAddr bool
		dials      int
		err        error // nil: the stream succeeds
		faults     map[FaultClass]int
		redirects  int
		verdict    *VerdictCode // the kept hello verdict; nil: not checked
		complete   bool
	}{
		{
			name: "redirect followed",
			replies: func(addr string) []any {
				return []any{&Redirect{Addr: addr}, admitted(0)}
			},
			dials: 2, redirects: 1, verdict: code(Admitted),
		},
		{
			name:       "redirect without DialAddr",
			replies:    func(addr string) []any { return []any{&Redirect{Addr: addr}} },
			noDialAddr: true,
			dials:      1, err: errAnyFailure,
		},
		{
			name:    "ninth redirect",
			replies: func(addr string) []any { return []any{&Redirect{Addr: addr}} },
			dials:   9, err: errAnyFailure, redirects: 9,
		},
		{
			name: "stale redirect",
			replies: func(addr string) []any {
				return []any{&Redirect{Addr: addr, Epoch: 5}, &Redirect{Addr: addr, Epoch: 3}, admitted(5)}
			},
			dials: 3, faults: map[FaultClass]int{FaultReset: 1}, redirects: 1, verdict: code(Admitted),
		},
		{
			name: "stale admitted verdict",
			replies: func(addr string) []any {
				return []any{&Redirect{Addr: addr, Epoch: 5}, admitted(3), admitted(5)}
			},
			dials: 3, faults: map[FaultClass]int{FaultReset: 1}, redirects: 1, verdict: code(Admitted),
		},
		{
			name: "stale capacity verdict",
			replies: func(addr string) []any {
				return []any{&Redirect{Addr: addr, Epoch: 5}, &Verdict{Code: RejectedCapacity, Epoch: 3}, admitted(5)}
			},
			dials: 3, faults: map[FaultClass]int{FaultReset: 1}, redirects: 1, verdict: code(Admitted),
		},
		{
			name:    "busy",
			replies: func(string) []any { return []any{&Verdict{Code: RejectedBusy, Available: 777}} },
			dials:   maxAttempts, err: errAnyFailure, faults: map[FaultClass]int{FaultReset: maxAttempts},
			verdict: code(RejectedBusy),
		},
		{
			name:    "malformed",
			replies: func(string) []any { return []any{&Verdict{Code: RejectedMalformed}, admitted(0)} },
			dials:   2, faults: map[FaultClass]int{FaultCorrupt: 1}, verdict: code(Admitted),
		},
		{
			name:    "capacity",
			replies: func(string) []any { return []any{&Verdict{Code: RejectedCapacity, Available: 12345}} },
			dials:   1, err: errAnyFailure, verdict: code(RejectedCapacity),
		},
		{
			name: "already complete",
			replies: func(string) []any {
				return []any{&Verdict{Code: AlreadyComplete, NextIndex: len(payloads), PrefixFNV: tag}}
			},
			dials: 1, complete: true,
		},
		{
			name: "already complete, wrong tag",
			replies: func(string) []any {
				return []any{&Verdict{Code: AlreadyComplete, NextIndex: len(payloads), PrefixFNV: tag ^ 1}}
			},
			dials: 1, err: ErrDiverged, faults: map[FaultClass]int{FaultOther: 1},
		},
		{
			name: "watermark past the stream",
			replies: func(string) []any {
				return []any{&Verdict{Code: Admitted, ResumeToken: token, NextIndex: len(payloads) + 1, PrefixFNV: tag}}
			},
			dials: 1, err: ErrDiverged, faults: map[FaultClass]int{FaultOther: 1},
		},
		{
			name: "wrong prefix tag",
			replies: func(string) []any {
				return []any{&Verdict{Code: Admitted, ResumeToken: token, NextIndex: len(other), PrefixFNV: referenceTag(other)}}
			},
			dials: 1, err: ErrDiverged, faults: map[FaultClass]int{FaultOther: 1},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			addr := startScriptedServer(t, c.replies)
			var mu sync.Mutex
			dials := 0
			dial := func(ctx context.Context, to string) (net.Conn, error) {
				mu.Lock()
				dials++
				mu.Unlock()
				var d net.Dialer
				return d.DialContext(ctx, "tcp", to)
			}
			rs := &ResumableSender{
				Sender:           Sender{TimeScale: 1000},
				Dial:             func(ctx context.Context) (net.Conn, error) { return dial(ctx, addr) },
				DialAddr:         dial,
				Hello:            validHello(),
				Backoff:          Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
				MaxAttempts:      maxAttempts,
				HandshakeTimeout: 5 * time.Second,
				Seed:             1,
			}
			if c.noDialAddr {
				rs.DialAddr = nil
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := rs.Stream(ctx, payloads)
			switch {
			case c.err == nil && err != nil:
				t.Fatalf("stream: %v", err)
			case c.err != nil && err == nil:
				t.Fatal("stream succeeded, want a failure")
			case c.err != nil && c.err != errAnyFailure && !errors.Is(err, c.err):
				t.Fatalf("stream: %v, want %v", err, c.err)
			}
			mu.Lock()
			defer mu.Unlock()
			if dials != c.dials {
				t.Errorf("%d connections dialed, want %d", dials, c.dials)
			}
			for _, class := range []FaultClass{FaultNone, FaultCorrupt, FaultTimeout, FaultReset, FaultOther} {
				if res.Faults[class] != c.faults[class] {
					t.Errorf("faults %v, want %v", res.Faults, c.faults)
					break
				}
			}
			if res.Redirects != c.redirects {
				t.Errorf("%d redirects followed, want %d", res.Redirects, c.redirects)
			}
			if c.verdict != nil && res.Verdict.Code != *c.verdict {
				t.Errorf("kept verdict %v, want %v", res.Verdict.Code, *c.verdict)
			}
			if res.AlreadyComplete != c.complete {
				t.Errorf("AlreadyComplete %v, want %v", res.AlreadyComplete, c.complete)
			}
		})
	}
}

func code(c VerdictCode) *VerdictCode { return &c }
