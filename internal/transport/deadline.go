package transport

import (
	"io"
	"time"
)

// deadlineSlack is the share of a timeout T, as its reciprocal, by which
// a Deadline may overshoot: an armed deadline leaves the next operation
// between T and T + T/deadlineSlack = 9T/8.
const deadlineSlack = 8

// Deadline arms one direction of a connection's deadline lazily. Setting
// a deadline per message costs a runtime timer update (and on a DGConn a
// timer of its own), so Deadline keeps the deadline it last set and
// moves it only when it would leave the next operation less than the
// timeout T, or more than 9T/8 (the timeout shrank); it then sets it to
// now + 9T/8. Every operation armed through it therefore gets at least T
// and at most 9T/8, however long the connection lives, and a connection
// that is read or written steadily re-arms about once per T/8.
//
// A Deadline must own its direction's deadline: nothing else may set it
// on the same connection. It is not safe for concurrent use; its owner
// serializes Arm with the operations it bounds. The zero value, and a
// Deadline for an end without deadline support, arms nothing.
type Deadline struct {
	set func(time.Time) error
	at  time.Time // the deadline last set; zero when none is
}

// readDeadline returns the lazy read deadline of r, which arms nothing
// unless r has SetReadDeadline (net.Conn and net.Pipe do).
func readDeadline(r io.Reader) Deadline {
	if d, ok := r.(interface{ SetReadDeadline(time.Time) error }); ok {
		return Deadline{set: d.SetReadDeadline}
	}
	return Deadline{}
}

// WriteDeadline returns the lazy write deadline of w, which arms nothing
// unless w has SetWriteDeadline.
func WriteDeadline(w io.Writer) Deadline {
	if d, ok := w.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return Deadline{set: d.SetWriteDeadline}
	}
	return Deadline{}
}

// Arm makes the deadline leave the next operation at least timeout and
// at most 9/8 of it. A timeout ≤ 0 clears any deadline Arm set.
func (d *Deadline) Arm(timeout time.Duration) error {
	if d.set == nil {
		return nil
	}
	if timeout <= 0 {
		if d.at.IsZero() {
			return nil
		}
		d.at = time.Time{}
		return d.set(d.at)
	}
	now := time.Now()
	if left := d.at.Sub(now); !d.at.IsZero() && left >= timeout && left <= timeout+timeout/deadlineSlack {
		return nil
	}
	d.at = now.Add(timeout + timeout/deadlineSlack)
	if err := d.set(d.at); err != nil {
		d.at = time.Time{} // unknown: the next Arm sets it again
		return err
	}
	return nil
}
