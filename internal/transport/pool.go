// Payload buffer pooling for the frame hot path. A saturated smoothd
// ingests tens of thousands of pictures per second; allocating a fresh
// payload buffer per frame makes the garbage collector a rate policer
// of its own. BufferPool recycles payload buffers across frames: the
// reader takes one sized to the announced picture, the server returns
// it after the decision step (egress sent, or duplicate dropped).
package transport

import (
	"math/bits"
	"sync"
)

// Size classes: a pooled buffer's capacity is a power of two from
// 1<<minClassShift (4 KiB) up to MaxPictureBytes, so any idle buffer of
// a class fits any picture of that class, at the cost of up to half a
// buffer of slack.
const (
	minClassShift = 12
	maxClassShift = 22 // MaxPictureBytes == 1<<maxClassShift
	numClasses    = maxClassShift - minClassShift + 1
)

// classIdleBytes bounds the idle bytes one size class retains: a class
// keeps at most classIdleBytes/size buffers, so 1,024 idle 4 KiB
// buffers, 64 of 64 KiB and one of 4 MiB. A whole pool then holds at
// most 11 × 4 MiB = 44 MiB idle, whatever its streams' number. Beyond
// the bound Put drops the buffer for the collector, so a burst of large
// pictures cannot pin memory forever.
const classIdleBytes = 4 << 20

// BufferPool recycles picture payload buffers in power-of-two size
// classes. It is a concrete mutex-guarded LIFO per class rather than a
// sync.Pool: payload lifetimes span goroutines (reader → decision →
// egress), which defeats sync.Pool's per-P caching, and a typed
// [][]byte freelist avoids boxing the slice header on every Put. One
// pool serves every stream of a smoothd server, so a new session starts
// with the buffers its predecessors warmed. The zero value is ready to
// use.
type BufferPool struct {
	mu   sync.Mutex
	free [numClasses][][]byte
}

// sizeClass returns the class of a buffer of n bytes: the smallest
// whose size, 1<<(minClassShift+class), holds n. It is numClasses or
// more for n above MaxPictureBytes.
func sizeClass(n int) int {
	if n <= 1<<minClassShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minClassShift
}

// Get returns a buffer with len == size: the most recently returned
// buffer of size's class, or a new one with the class's capacity. A
// size above MaxPictureBytes gets an exact, unpooled buffer.
func (p *BufferPool) Get(size int) []byte {
	c := sizeClass(size)
	if c >= numClasses {
		return make([]byte, size)
	}
	p.mu.Lock()
	if free := p.free[c]; len(free) > 0 {
		b := free[len(free)-1]
		free[len(free)-1] = nil
		p.free[c] = free[:len(free)-1]
		p.mu.Unlock()
		return b[:size]
	}
	p.mu.Unlock()
	return make([]byte, size, 1<<(minClassShift+c))
}

// Put returns a buffer to the pool. Only a buffer whose capacity is
// exactly a class size is kept, up to its class's retention bound;
// anything else — nil, a buffer the pool did not make — is dropped.
func (p *BufferPool) Put(b []byte) {
	c := sizeClass(cap(b))
	if c >= numClasses || cap(b) != 1<<(minClassShift+c) {
		return
	}
	p.mu.Lock()
	if len(p.free[c]) < classIdleBytes>>(minClassShift+c) {
		p.free[c] = append(p.free[c], b[:0])
	}
	p.mu.Unlock()
}
