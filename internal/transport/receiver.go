package transport

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"mpegsmooth/internal/mpeg"
)

// ReceivedPicture records one picture as observed by the receiver.
type ReceivedPicture struct {
	Index int
	Type  mpeg.PictureType
	Bytes int
	// Sum64 is the FNV-1a hash of the payload, for end-to-end integrity
	// checks without retaining the payload itself.
	Sum64 uint64
	// Arrival is the wall-clock time the last payload byte was read,
	// relative to the receiver's start.
	Arrival time.Duration
	// NotifiedRate is the sender's declared rate in effect when the
	// picture arrived (bits/second).
	NotifiedRate float64
}

// PayloadSum64 computes the same FNV-1a hash the receiver records, for
// sender-side comparison.
func PayloadSum64(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// Report summarizes a receive session.
type Report struct {
	Pictures      []ReceivedPicture
	Notifications []RateNotification
	// Hello is the stream-opening declaration, when the sender sent one.
	Hello *StreamHello
	// Elapsed is the total session duration.
	Elapsed time.Duration
}

// TotalBytes sums the received payload sizes.
func (r *Report) TotalBytes() int {
	total := 0
	for _, p := range r.Pictures {
		total += p.Bytes
	}
	return total
}

// Receiver drains a sender's stream with configurable robustness knobs.
// The zero value behaves exactly like the package-level Receive.
type Receiver struct {
	// ReadTimeout bounds the wait for each message (header through
	// payload): a stalled sender is cut off no sooner than ReadTimeout
	// and no later than 9/8 of it, the deadline being re-armed lazily
	// (FrameReader.ReadMessageTimeout). Zero means wait forever. It
	// takes effect only when the connection supports read deadlines
	// (net.Conn does).
	ReadTimeout time.Duration
}

// Receive drains a sender's stream until the end marker, recording
// arrival times and rate notifications. The reader should be the
// connection's read side; cancellation is honoured between messages, and
// a stalled sender is cut off after ReadTimeout when configured.
func (rc *Receiver) Receive(ctx context.Context, conn io.Reader) (*Report, error) {
	start := time.Now()
	report := &Report{}
	currentRate := 0.0
	fr := NewFrameReaderBuffered(conn)
	for {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		msg, err := fr.ReadMessageTimeout(rc.ReadTimeout)
		if err == ErrClosed {
			report.Elapsed = time.Since(start)
			return report, nil
		}
		if err != nil {
			return report, err
		}
		switch m := msg.(type) {
		case *StreamHello:
			report.Hello = m
		case *RateNotification:
			report.Notifications = append(report.Notifications, *m)
			currentRate = m.Rate
		case *PictureFrame:
			report.Pictures = append(report.Pictures, ReceivedPicture{
				Index:        m.Index,
				Type:         m.Type,
				Bytes:        len(m.Payload),
				Sum64:        PayloadSum64(m.Payload),
				Arrival:      time.Since(start),
				NotifiedRate: currentRate,
			})
		default:
			return report, fmt.Errorf("transport: unexpected message %T", msg)
		}
	}
}

// Receive drains a sender's stream until the end marker with no read
// timeout; see Receiver for the configurable form.
func Receive(ctx context.Context, conn io.Reader) (*Report, error) {
	return (&Receiver{}).Receive(ctx, conn)
}
