// Package frame is the one framing the stream wire, the datagram ARQ
// packets, the MSRP replication channel and the journal's records
// share:
//
//	kind (1) | word (4) | body | crc32 (4)
//
// big-endian, with the CRC-32/IEEE of every byte before the trailer.
// What word means is the caller's: the sequence number on the stream
// wire, the flow id on a datagram, the body length on MSRP and journal
// frames. Split and Read take the length-prefixed form, and compare the
// declared length with the caller's cap as a uint32, before converting
// it to int or allocating: a corrupt length can neither wrap negative
// on a 32-bit target nor drive a large allocation.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	// HeaderLen is the kind byte and the word.
	HeaderLen = 5
	// Overhead is the header plus the CRC trailer: a frame's size
	// beyond its body.
	Overhead = HeaderLen + 4
)

var (
	// ErrCRC reports a frame whose trailer does not match its bytes.
	ErrCRC = errors.New("frame: crc mismatch")
	// ErrTooLong reports a length-prefixed frame that declares a body
	// over the caller's cap.
	ErrTooLong = errors.New("frame: declared body over cap")
)

// Begin appends a frame header to dst. The caller appends the body and
// then seals the frame with End or EndLen, passing start = len(dst) as
// it was before Begin.
func Begin(dst []byte, kind byte, word uint32) []byte {
	return binary.BigEndian.AppendUint32(append(dst, kind), word)
}

// End appends the CRC trailer of the frame begun at dst[start].
func End(dst []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// EndLen sets the word of the frame begun at dst[start] to its body
// length, then ends it: the length-prefixed form Split and Read take.
func EndLen(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start+1:], uint32(len(dst)-start-HeaderLen))
	return End(dst, start)
}

// Append appends a whole frame carrying body to dst.
func Append(dst []byte, kind byte, word uint32, body []byte) []byte {
	start := len(dst)
	return End(append(Begin(dst, kind, word), body...), start)
}

// Check verifies that b is exactly one frame and returns its kind, word
// and body; body aliases b.
func Check(b []byte) (kind byte, word uint32, body []byte, err error) {
	if len(b) < Overhead {
		return 0, 0, nil, io.ErrUnexpectedEOF
	}
	end := len(b) - 4
	if got, want := binary.BigEndian.Uint32(b[end:]), crc32.ChecksumIEEE(b[:end]); got != want {
		return 0, 0, nil, fmt.Errorf("%w: %#02x frame has %08x, want %08x", ErrCRC, b[0], got, want)
	}
	return b[0], binary.BigEndian.Uint32(b[1:HeaderLen]), b[HeaderLen:end], nil
}

// bodyLen returns the body length a length-prefixed header declares,
// refusing one over max while it is still a uint32.
func bodyLen(head []byte, max uint32) (int, error) {
	n := binary.BigEndian.Uint32(head[1:HeaderLen])
	if n > max {
		return 0, fmt.Errorf("%w: %#02x frame declares %d bytes, cap %d", ErrTooLong, head[0], n, max)
	}
	return int(n), nil
}

// Split checks the length-prefixed frame at the front of b, whose body
// may be at most max bytes, and returns its kind, its body (aliasing b)
// and its encoded size. max must stay below 1<<31 - Overhead.
func Split(b []byte, max uint32) (kind byte, body []byte, size int, err error) {
	if len(b) < HeaderLen {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	n, err := bodyLen(b, max)
	if err != nil {
		return 0, nil, 0, err
	}
	if len(b)-Overhead < n {
		return 0, nil, 0, io.ErrUnexpectedEOF
	}
	kind, _, body, err = Check(b[:Overhead+n])
	return kind, body, Overhead + n, err
}

// Read reads one length-prefixed frame whose body may be at most max
// bytes. The declared length is checked before the frame is allocated,
// so a peer cannot make the reader reserve more than max. max must stay
// below 1<<31 - Overhead.
func Read(r io.Reader, max uint32) (kind byte, body []byte, err error) {
	var head [HeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	n, err := bodyLen(head[:], max)
	if err != nil {
		return 0, nil, err
	}
	b := make([]byte, Overhead+n)
	copy(b, head[:])
	if _, err := io.ReadFull(r, b[HeaderLen:]); err != nil {
		return 0, nil, err
	}
	kind, _, body, err = Check(b)
	return kind, body, err
}
