package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// sink is the server's shared egress link (server.Config.Egress). It
// scans every Write whole for payload tags, so it attributes pictures
// correctly whatever grain the server writes at and however many
// pictures one write holds: a head tag marks a picture's first byte, a
// tail tag its last. Within a session, each picture's head and tail
// must each appear exactly once, head before tail, in picture order.
type sink struct {
	base time.Time

	mu       sync.Mutex
	bytes    int64
	writes   int64
	tails    int64
	sessions map[uint32]*egressLog
	errs     []string
}

// egressLog is one session's egress record. When timed, first and
// finish hold each picture's head and tail times in nanoseconds since
// the sink's base. done closes once the last tail is out.
type egressLog struct {
	slot     int
	pictures int
	next     int  // picture whose tail is due next
	open     bool // next's head is out, its tail is not
	first    []int64
	finish   []int64
	done     chan struct{}
}

func newSink(base time.Time) *sink {
	return &sink{base: base, sessions: map[uint32]*egressLog{}}
}

// expect registers a session before its hello, so its tags resolve.
func (s *sink) expect(sess uint32, slot, pictures int, timed bool) *egressLog {
	l := &egressLog{slot: slot, pictures: pictures, done: make(chan struct{})}
	if timed {
		l.first = make([]int64, pictures)
		l.finish = make([]int64, pictures)
	}
	s.mu.Lock()
	s.sessions[sess] = l
	s.mu.Unlock()
	return l
}

// Write implements io.Writer. It never fails: a tag it cannot place is
// a correctness error reported through errors, not a write error the
// server would act on.
func (s *sink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytes += int64(len(p))
	s.writes++
	now := int64(-1)
	for off := 0; ; {
		i := bytes.Index(p[off:], tagMagic)
		if i < 0 {
			break
		}
		at := off + i
		if at+tagLen > len(p) {
			s.errorf("tag split by a write boundary at byte %d of %d", at, len(p))
			break
		}
		if now < 0 {
			now = int64(time.Since(s.base))
		}
		s.tag(p[at:at+tagLen], now)
		off = at + tagLen
	}
	return len(p), nil
}

func (s *sink) tag(t []byte, now int64) {
	slot := int(binary.BigEndian.Uint16(t[8:10]))
	sess := binary.BigEndian.Uint32(t[10:14])
	pic := int(binary.BigEndian.Uint16(t[14:16]))
	l := s.sessions[sess]
	if l == nil || l.slot != slot {
		s.errorf("tag for unknown session %d slot %d", sess, slot)
		return
	}
	if pic != l.next {
		s.errorf("session %d: picture %d egressed, want picture %d", sess, pic, l.next)
		return
	}
	switch {
	case t[7] == tagHead && !l.open:
		l.open = true
		if l.first != nil {
			l.first[pic] = now
		}
	case t[7] == tagTail && l.open:
		l.open = false
		if l.finish != nil {
			l.finish[pic] = now
		}
		l.next++
		s.tails++
		if l.next == l.pictures {
			// A finished session's tags must never appear again.
			delete(s.sessions, sess)
			close(l.done)
		}
	default:
		s.errorf("session %d: picture %d tag %q out of order", sess, pic, t[7])
	}
}

func (s *sink) errorf(format string, args ...any) {
	if len(s.errs) < 20 {
		s.errs = append(s.errs, fmt.Sprintf("egress: "+format, args...))
	}
}

// counts returns the bytes, writes and picture tails egressed so far.
func (s *sink) counts() (bytes, writes, tails int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, s.writes, s.tails
}

// errors returns the correctness errors seen so far.
func (s *sink) errors() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.errs...)
}

// pending returns the sessions whose egress has not finished.
func (s *sink) pending() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint32, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	return ids
}

// at converts a sink timestamp to wall time.
func (s *sink) at(ns int64) time.Time { return s.base.Add(time.Duration(ns)) }
