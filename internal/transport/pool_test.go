package transport

import (
	"testing"

	"mpegsmooth/internal/trace"
)

// payloadSizes returns the payload bytes of a Driving1 session, as a
// sender frames them.
func payloadSizes(t *testing.T, seed int64) []int {
	t.Helper()
	tr, err := trace.Driving1(270, seed)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, tr.Len())
	for i, bits := range tr.Sizes {
		sizes[i] = int((bits + 7) / 8)
	}
	return sizes
}

// inFlight is how many payloads the session model below holds at once:
// smoothd keeps a payload from its read until egress has paced it, a
// few decisions' lookahead on an unpaced stream.
const inFlight = 8

// playSession returns a step that draws the next picture's payload from
// p, as a FrameReader does, and returns the payload read inFlight
// pictures earlier, as egress does.
func playSession(p *BufferPool, sizes []int) func() {
	var held [inFlight][]byte
	next := 0
	return func() {
		slot := next % inFlight
		p.Put(held[slot]) // nil for the first inFlight pictures
		held[slot] = p.Get(sizes[next])
		next++
	}
}

// TestBufferPoolWarmSessionZeroAlloc pins what one pool per server buys:
// once one Driving1 session has warmed it, the next session, with other
// picture sizes, draws every payload from it without allocating — any
// idle buffer of a size class fits any picture of that class.
func TestBufferPoolWarmSessionZeroAlloc(t *testing.T) {
	var p BufferPool
	first, next := payloadSizes(t, 1), payloadSizes(t, 2)
	warm := playSession(&p, first)
	for range first {
		warm()
	}
	// AllocsPerRun's warm-up call plays the next session's first picture.
	if allocs := testing.AllocsPerRun(len(next)-1, playSession(&p, next)); allocs != 0 {
		t.Errorf("a warmed pool allocates %.3f times per picture of the next session, want 0", allocs)
	}
}

// TestBufferPoolSizeClasses: Get rounds a buffer's capacity up to its
// power-of-two class, Put keeps only buffers of a class size up to the
// class's retention bound, and a buffer the pool did not make is
// dropped, never lent out.
func TestBufferPoolSizeClasses(t *testing.T) {
	var p BufferPool
	for _, c := range []struct{ size, cap int }{
		{1, 4 << 10}, {4 << 10, 4 << 10}, {4<<10 + 1, 8 << 10}, {100_000, 128 << 10},
		{MaxPictureBytes, MaxPictureBytes}, {MaxPictureBytes + 1, MaxPictureBytes + 1},
	} {
		if b := p.Get(c.size); len(b) != c.size || cap(b) != c.cap {
			t.Errorf("Get(%d): len %d cap %d, want cap %d", c.size, len(b), cap(b), c.cap)
		}
	}

	foreign := make([]byte, 5000)
	p.Put(foreign)
	p.Put(nil)
	p.Put(make([]byte, 0, MaxPictureBytes+1))
	if b := p.Get(5000); &b[0] == &foreign[0] || cap(b) != 8<<10 {
		t.Errorf("Get(5000) after a foreign Put: cap %d, foreign buffer lent: %v", cap(b), &b[0] == &foreign[0])
	}

	b := p.Get(6000)
	p.Put(b)
	if again := p.Get(7000); &again[0] != &b[0] {
		t.Error("a returned buffer was not lent to the next picture of its class")
	}

	// The 4 MiB class keeps one idle buffer.
	big1, big2 := p.Get(3<<20), p.Get(3<<20)
	p.Put(big1)
	p.Put(big2)
	if n := len(p.free[sizeClass(3<<20)]); n != 1 {
		t.Errorf("4 MiB class keeps %d idle buffers, want 1", n)
	}
}
