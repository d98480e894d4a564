package soaktest

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpegsmooth/internal/transport"
)

// Soak is one run of resumable clients, each streaming the kit's
// payloads to completion through its own sender. The first client error
// stops the others.
type Soak struct {
	t      testing.TB
	n      int
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	returned int
	results  []transport.StreamResult
	first    error // the first client error, which stopped the soak
	stopped  int   // clients that returned an error after it
}

// Tally is what a soak's clients report once every one has returned.
type Tally struct {
	// Results holds each client's StreamResult, by client.
	Results []transport.StreamResult
	// Resumes sums the accepted resumes; AlreadyComplete counts the
	// clients whose success a tombstone confirmed after the completion
	// ack was lost.
	Resumes         int
	AlreadyComplete int
}

// StartSoak launches n clients. Client i streams kit's payloads through
// the sender newClient(i) builds, all within two minutes.
func StartSoak(t testing.TB, kit *Kit, n int, newClient func(i int) *transport.ResumableSender) *Soak {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	s := &Soak{t: t, n: n, cancel: cancel, results: make([]transport.StreamResult, n)}
	t.Cleanup(cancel)
	for i := 0; i < n; i++ {
		rs := newClient(i)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			res, err := rs.Stream(ctx, kit.Payloads)
			s.mu.Lock()
			defer s.mu.Unlock()
			s.returned++
			s.results[i] = res
			switch {
			case err == nil:
			case s.first == nil:
				s.first = fmt.Errorf("client %d: %w", i, err)
				s.cancel()
			default:
				s.stopped++
			}
		}()
	}
	return s
}

// Done reports whether every client has returned.
func (s *Soak) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.returned == s.n
}

// Underway waits until every client holds a verdict and an accepted
// picture, as stats reads them off the server the clients dialed: n
// admissions, and n active streams that each accepted a picture. A
// picture accepted implies that the client's admission was committed
// and its verdict received, so a fault the caller injects next lands
// mid-stream, with no admission commit in flight. A timed-out wait adds
// what each report says.
func (s *Soak) Underway(stats func() Stats, report ...func() string) {
	s.t.Helper()
	WaitFor(s.t, "all clients underway", func() bool {
		st := stats()
		if st.Streams.Admitted != int64(s.n) || len(st.Active) != s.n {
			return false
		}
		for _, ss := range st.Active {
			if ss.Pictures < 1 {
				return false
			}
		}
		return true
	}, report...)
}

// Wait waits for every client and stops the test at the first client
// error. It returns the clients' tally.
func (s *Soak) Wait() Tally {
	s.t.Helper()
	s.wg.Wait()
	if s.first != nil {
		s.t.Fatalf("%v (%d more clients stopped with it)", s.first, s.stopped)
	}
	tally := Tally{Results: s.results}
	for _, r := range s.results {
		tally.Resumes += r.Resumes
		if r.AlreadyComplete {
			tally.AlreadyComplete++
		}
	}
	return tally
}
