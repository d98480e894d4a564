package transport

import (
	"context"
	"fmt"
	"time"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/mpeg"
)

// Clock abstracts time for the Pacer so tests can run with compressed
// timescales. Sleep returns ctx's error once ctx is done, even for
// d ≤ 0: that is how paced loops notice cancellation.
type Clock interface {
	Now() time.Time
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock is the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock, returning early if ctx is cancelled.
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Pacer is the one pacing loop: both senders and smoothd's egress pace
// through it. Schedule time t is the wall-clock instant Origin +
// t/Scale seconds, and Pace writes at most Chunk bytes at a time.
type Pacer struct {
	Clock  Clock
	Scale  float64
	Chunk  int
	Origin time.Time
}

// NewPacer returns a pacer on which schedule time now is the current
// instant. A nil clock is RealClock, a scale ≤ 0 is 1 and a chunk ≤ 0
// is 1024 bytes.
func NewPacer(clock Clock, scale float64, chunk int, now float64) *Pacer {
	if clock == nil {
		clock = RealClock{}
	}
	if scale <= 0 {
		scale = 1
	}
	if chunk <= 0 {
		chunk = 1024
	}
	p := &Pacer{Clock: clock, Scale: scale, Chunk: chunk}
	p.Origin = clock.Now().Add(-p.wall(now))
	return p
}

// wall converts a schedule duration to a wall-clock one.
func (p *Pacer) wall(t float64) time.Duration {
	return time.Duration(t / p.Scale * float64(time.Second))
}

// Wait sleeps until schedule time t.
func (p *Pacer) Wait(ctx context.Context, t float64) error {
	return p.Clock.Sleep(ctx, p.Origin.Add(p.wall(t)).Sub(p.Clock.Now()))
}

// Pace hands payload to write in pieces of at most Chunk bytes, sleeping
// after each so that byte b goes no earlier than schedule time start +
// 8b/rate; at rate +Inf the pieces go back to back. The caller waits for
// start itself.
func (p *Pacer) Pace(ctx context.Context, start, rate float64, payload []byte, write func([]byte) error) error {
	for sent := 0; sent < len(payload); {
		end := min(sent+p.Chunk, len(payload))
		if err := write(payload[sent:end]); err != nil {
			return err
		}
		sent = end
		if err := p.Wait(ctx, start+float64(sent)*8/rate); err != nil {
			return err
		}
	}
	return nil
}

// Sender transmits a smoothing schedule over a connection, pacing each
// picture's bytes at its scheduled rate.
type Sender struct {
	// Chunk is the pacing granularity in bytes (default 1024): the sender
	// writes at most Chunk bytes, then sleeps until the pacing deadline
	// for the next chunk.
	Chunk int
	// Clock defaults to RealClock.
	Clock Clock
	// TimeScale compresses the schedule's timeline: wall-clock durations
	// are schedule durations divided by TimeScale (default 1; tests use
	// large factors to replay multi-second schedules in milliseconds).
	TimeScale float64
	// WriteTimeout bounds every message and payload chunk write (the
	// mirror of Receiver.ReadTimeout) so a dead or stalled receiver
	// cannot wedge the sender goroutine: each gets at least WriteTimeout
	// and at most 9/8 of it (FrameWriter.WriteTimeout). Zero means no
	// deadline; it takes effect only when the connection supports write
	// deadlines.
	WriteTimeout time.Duration
}

// Send replays the schedule over w: for each picture it waits until the
// scheduled start time t_i (relative to the session origin), emits the
// rate notification, and streams the picture's payload paced at r_i.
// payloads[i] must hold ceil(S_i/8) bytes of picture i's data.
//
// Send is a wrapper over SendDecisions: the schedule's per-picture
// arrays are the stored form of the Session decision stream the sender
// actually consumes.
func (s *Sender) Send(ctx context.Context, w *FrameWriter, sched *core.Schedule, payloads [][]byte) error {
	decisions := make([]core.Decision, len(sched.Rates))
	for i := range decisions {
		decisions[i] = core.Decision{Picture: i, Rate: sched.Rates[i], Start: sched.Start[i]}
	}
	return s.SendDecisions(ctx, w, decisions, sched.Trace.TypeOf, payloads)
}

// SendDecisions paces pictures over w directly from a Session's decision
// stream: for each decision it waits until the scheduled start time
// (relative to the session origin), emits a rate notification when the
// rate changed, and streams the picture's payload paced at the decided
// rate. typeOf supplies the picture type for wire headers (for a pure
// GOP-pattern stream, gop.TypeOf); payloads[i] holds picture
// decisions[i].Picture's data, ceil(S_i/8) bytes.
func (s *Sender) SendDecisions(ctx context.Context, w *FrameWriter, decisions []core.Decision, typeOf func(int) mpeg.PictureType, payloads [][]byte) error {
	if len(payloads) != len(decisions) {
		return fmt.Errorf("transport: %d payloads for %d pictures", len(payloads), len(decisions))
	}
	if s.WriteTimeout > 0 && w.WriteTimeout == 0 {
		w.WriteTimeout = s.WriteTimeout
	}
	p := NewPacer(s.Clock, s.TimeScale, s.Chunk, 0)
	lastRate := 0.0
	for i, d := range decisions {
		// Wait for the scheduled start of the picture (continuous
		// service makes this a no-op after the first picture, modulo
		// pacing error).
		if err := p.Wait(ctx, d.Start); err != nil {
			return err
		}
		if d.Rate != lastRate {
			if err := w.WriteRate(RateNotification{Index: d.Picture, Rate: d.Rate}); err != nil {
				return fmt.Errorf("transport: rate notification %d: %w", d.Picture, err)
			}
			lastRate = d.Rate
		}
		payload := payloads[i]
		if err := w.WritePictureHeader(d.Picture, typeOf(d.Picture), payload); err != nil {
			return fmt.Errorf("transport: picture header %d: %w", d.Picture, err)
		}
		if err := p.Pace(ctx, d.Start, d.Rate, payload, w.WriteChunk); err != nil {
			return fmt.Errorf("transport: picture %d payload: %w", d.Picture, err)
		}
	}
	if err := w.WriteEnd(); err != nil {
		return fmt.Errorf("transport: end marker: %w", err)
	}
	return nil
}
