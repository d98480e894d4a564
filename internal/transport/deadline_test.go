package transport

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// TestDeadlineRearmsLazily pins when a Deadline touches the connection:
// once for a run of operations, again when the timeout shrinks or grows,
// and once to clear. Every deadline it sets leaves between T and 9T/8.
// T is an hour, so the clock cannot move the deadline out of that
// window between two Arm calls.
func TestDeadlineRearmsLazily(t *testing.T) {
	var sets []time.Time
	d := Deadline{set: func(at time.Time) error {
		sets = append(sets, at)
		return nil
	}}
	// arm checks whether Arm set a deadline, and that the deadline in
	// force leaves the operation after the call between T and 9T/8.
	arm := func(timeout time.Duration, wantSet bool) {
		t.Helper()
		n := len(sets)
		if err := d.Arm(timeout); err != nil {
			t.Fatal(err)
		}
		after := time.Now()
		if got := len(sets) > n; got != wantSet {
			t.Fatalf("Arm(%v) set a deadline: %v, want %v", timeout, got, wantSet)
		}
		at := sets[len(sets)-1]
		if timeout <= 0 {
			if !at.IsZero() {
				t.Fatalf("Arm(%v) leaves %v, want the zero time", timeout, at)
			}
			return
		}
		if at.Before(after.Add(timeout)) || at.After(after.Add(timeout+timeout/8)) {
			t.Fatalf("Arm(%v) leaves %v after the call, want [T, 9T/8]", timeout, at.Sub(after))
		}
	}
	const hour = time.Hour
	arm(hour, true)
	for i := 0; i < 100; i++ {
		arm(hour, false)
	}
	arm(hour/2, true) // the last deadline leaves more than 9/8 of the shorter timeout
	arm(hour/2, false)
	arm(hour, true) // the last deadline leaves less than the longer one
	arm(0, true)
	arm(0, false)
	arm(hour, true)

	failing := Deadline{set: func(time.Time) error { return errors.New("closed") }}
	for i := 0; i < 2; i++ {
		if err := failing.Arm(hour); err == nil {
			t.Fatalf("Arm %d on a failing connection: no error", i)
		}
	}
}

// stalledPipe returns a reader's end of a pipe whose writer sends n rate
// frames spaced gap apart and then stalls, the writer's end left open.
func stalledPipe(t *testing.T, n int, gap time.Duration) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	go func() {
		fw := NewFrameWriter(client)
		for i := 0; i < n; i++ {
			time.Sleep(gap)
			if fw.WriteRate(RateNotification{Index: i, Rate: 1e6}) != nil {
				return
			}
		}
	}()
	return server
}

// cutOffWithin reports an error unless op failed with a timeout no
// sooner than timeout and no later than 9/8 of it plus slack, the
// scheduler's wake-up latency on a loaded machine.
func cutOffWithin(op func() error, timeout time.Duration) error {
	const slack = 100 * time.Millisecond
	start := time.Now()
	err := op()
	took := time.Since(start)
	if ClassifyFault(err) != FaultTimeout {
		return fmt.Errorf("stalled peer: want a timeout, got %v", err)
	}
	if took < timeout || took > timeout+timeout/8+slack {
		return fmt.Errorf("stalled peer cut off after %v, want [T, 9T/8] for T = %v", took, timeout)
	}
	return nil
}

// TestStalledPeerCutOffWithinSlack checks the [T, 9T/8] bound on the
// real clock: a peer that stalls after a run of messages — whose reads
// or writes re-armed the deadline only now and then — is cut off no
// sooner than T and no later than 9T/8, on reads and on writes. A
// shorter timeout after a longer one re-arms, and a zero timeout
// clears the deadline.
func TestStalledPeerCutOffWithinSlack(t *testing.T) {
	const timeout = 200 * time.Millisecond
	t.Run("read", func(t *testing.T) {
		fr := NewFrameReader(stalledPipe(t, 20, timeout/50))
		for i := 0; i < 20; i++ {
			if _, err := fr.ReadMessageTimeout(timeout); err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
		}
		if err := cutOffWithin(func() error { _, err := fr.ReadMessageTimeout(timeout); return err }, timeout); err != nil {
			t.Error(err)
		}
	})
	t.Run("write", func(t *testing.T) {
		client, server := net.Pipe()
		defer client.Close()
		defer server.Close()
		const reads = 20
		go func() {
			// Read 20 frames, then stall with the connection open.
			fr := NewFrameReader(server)
			for i := 0; i < reads; i++ {
				if _, err := fr.ReadMessage(); err != nil {
					return
				}
			}
		}()
		fw := NewFrameWriter(client)
		fw.WriteTimeout = timeout
		for i := 0; i < reads; i++ {
			if err := fw.WriteRate(RateNotification{Index: i, Rate: 1e6}); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			time.Sleep(timeout / 50)
		}
		if err := cutOffWithin(func() error { return fw.WriteRate(RateNotification{Index: reads, Rate: 1e6}) }, timeout); err != nil {
			t.Error(err)
		}
	})
	t.Run("shrink", func(t *testing.T) {
		fr := NewFrameReader(stalledPipe(t, 1, 0))
		if _, err := fr.ReadMessageTimeout(20 * timeout); err != nil {
			t.Fatal(err)
		}
		if err := cutOffWithin(func() error { _, err := fr.ReadMessageTimeout(timeout); return err }, timeout); err != nil {
			t.Error(err)
		}
	})
	t.Run("zero clears", func(t *testing.T) {
		// The second message comes well after the first read's deadline.
		fr := NewFrameReader(stalledPipe(t, 2, timeout*3/2))
		if _, err := fr.ReadMessageTimeout(timeout * 2); err != nil {
			t.Fatal(err)
		}
		if _, err := fr.ReadMessageTimeout(0); err != nil {
			t.Fatalf("read without a deadline: %v", err)
		}
	})
}
