package transport

import (
	"context"
	"math"
	"testing"
	"time"
)

// virtualClock is a Clock whose Sleep advances its own time at once, so
// a paced loop runs instantly and every write lands exactly on the
// instant the pacer slept to.
type virtualClock struct{ now time.Time }

func (c *virtualClock) Now() time.Time { return c.now }

func (c *virtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return ctx.Err()
}

// within reports whether got is want to the microsecond: schedule
// seconds convert to wall nanoseconds with float rounding.
func within(got, want time.Time) bool {
	d := got.Sub(want)
	return d > -time.Microsecond && d < time.Microsecond
}

// TestPacerPacesBytes: Pace hands write at most Chunk bytes per call,
// no byte b goes before schedule time start + 8b/rate, and the last
// byte's deadline is where Pace returns. Schedule time runs Scale times
// faster than the clock, from Origin.
func TestPacerPacesBytes(t *testing.T) {
	ctx := context.Background()
	clk := &virtualClock{now: time.Unix(1000, 0)}
	p := NewPacer(clk, 4, 100, 0)
	if !p.Origin.Equal(clk.now) {
		t.Fatalf("origin %v, want the current instant %v", p.Origin, clk.now)
	}
	at := func(sched float64) time.Time {
		return p.Origin.Add(time.Duration(sched / 4 * float64(time.Second)))
	}
	const start, rate = 0.5, 8000.0 // 1000 bytes per schedule second
	payload := make([]byte, 1050)
	if err := p.Wait(ctx, start); err != nil {
		t.Fatal(err)
	}
	if want := time.Unix(1000, 125e6); !clk.now.Equal(want) {
		t.Fatalf("waited to %v, want %v", clk.now, want)
	}
	sent, writes := 0, 0
	err := p.Pace(ctx, start, rate, payload, func(b []byte) error {
		if len(b) == 0 || len(b) > p.Chunk {
			t.Fatalf("write %d carries %d bytes, chunk %d", writes, len(b), p.Chunk)
		}
		if earliest := at(start + float64(sent)*8/rate); clk.now.Before(earliest) {
			t.Fatalf("byte %d left at %v, before %v", sent, clk.now, earliest)
		}
		sent += len(b)
		writes++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sent != len(payload) || writes != 11 {
		t.Fatalf("%d bytes in %d writes, want %d in 11", sent, writes, len(payload))
	}
	if want := at(start + float64(len(payload))*8/rate); !within(clk.now, want) {
		t.Fatalf("Pace returned at %v, want the last byte's deadline %v", clk.now, want)
	}

	// At rate +Inf the chunks go back to back, all at start.
	if err := p.Wait(ctx, 2); err != nil {
		t.Fatal(err)
	}
	begin := clk.now
	if !begin.Equal(at(2)) {
		t.Fatalf("waited to %v, want %v", begin, at(2))
	}
	writes = 0
	err = p.Pace(ctx, 2, math.Inf(1), payload, func(b []byte) error {
		if len(b) > p.Chunk {
			t.Fatalf("write carries %d bytes, chunk %d", len(b), p.Chunk)
		}
		if !clk.now.Equal(begin) {
			t.Fatalf("unbounded write at %v, want %v", clk.now, begin)
		}
		writes++
		return nil
	})
	if err != nil || writes != 11 {
		t.Fatalf("unbounded pace: %d writes, %v", writes, err)
	}
}

// TestPacerAnchorsNow: NewPacer's last argument is the schedule time
// of the current instant, so Wait for it does not sleep and later times
// keep their spacing.
func TestPacerAnchorsNow(t *testing.T) {
	clk := &virtualClock{now: time.Unix(50, 0)}
	p := NewPacer(clk, 2, 0, 3)
	if p.Chunk != 1024 || p.Scale != 2 {
		t.Fatalf("defaults: chunk %d scale %v", p.Chunk, p.Scale)
	}
	if want := time.Unix(48, 500e6); !p.Origin.Equal(want) {
		t.Fatalf("origin %v, want %v", p.Origin, want)
	}
	if err := p.Wait(context.Background(), 3); err != nil || !clk.now.Equal(time.Unix(50, 0)) {
		t.Fatalf("wait for now moved the clock to %v (%v)", clk.now, err)
	}
	if err := p.Wait(context.Background(), 4); err != nil || !clk.now.Equal(time.Unix(50, 500e6)) {
		t.Fatalf("wait for now+1 reached %v (%v)", clk.now, err)
	}
}
