package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// caps are the length-prefixed readers' bounds the tests apply: the
// journal's record body cap and MSRP's stream cap.
var caps = []uint32{4096, 64 << 20}

// TestEncoders: a frame built in place with Begin and EndLen is the
// frame Append builds around the same body, and Check, Split and Read
// all return its fields.
func TestEncoders(t *testing.T) {
	body := []byte("body bytes")
	inPlace := EndLen(append(Begin([]byte("prefix"), 'r', 0), body...), len("prefix"))
	whole := Append([]byte("prefix"), 'r', uint32(len(body)), body)
	if !bytes.Equal(inPlace, whole) {
		t.Fatalf("Begin+EndLen %x, Append %x", inPlace, whole)
	}
	f := whole[len("prefix"):]
	if len(f) != Overhead+len(body) {
		t.Fatalf("%d-byte frame around a %d-byte body", len(f), len(body))
	}
	kind, word, got, err := Check(f)
	if err != nil || kind != 'r' || word != uint32(len(body)) || !bytes.Equal(got, body) {
		t.Fatalf("Check: %c %d %q %v", kind, word, got, err)
	}
	kind, got, size, err := Split(append(f, "next frame"...), caps[0])
	if err != nil || kind != 'r' || size != len(f) || !bytes.Equal(got, body) {
		t.Fatalf("Split: %c %q %d %v", kind, got, size, err)
	}
	kind, got, err = Read(bytes.NewReader(f), caps[0])
	if err != nil || kind != 'r' || !bytes.Equal(got, body) {
		t.Fatalf("Read: %c %q %v", kind, got, err)
	}
	// The word is the caller's: End leaves it alone.
	seq := End(append(Begin(nil, 'P', 7), body...), 0)
	if _, word, _, err := Check(seq); err != nil || word != 7 {
		t.Fatalf("Begin+End word %d, %v", word, err)
	}
}

// TestCorruptFramesRefused: every truncation and every flipped bit of a
// frame is an error, from each checker.
func TestCorruptFramesRefused(t *testing.T) {
	f := Append(nil, 'a', 12, []byte("twelve bytes"))
	for cut := 0; cut < len(f); cut++ {
		if _, _, _, err := Check(f[:cut]); err == nil {
			t.Errorf("Check accepted a frame cut at %d", cut)
		}
		if _, _, _, err := Split(f[:cut], caps[0]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("Split of a frame cut at %d: %v", cut, err)
		}
		if _, _, err := Read(bytes.NewReader(f[:cut]), caps[0]); err == nil {
			t.Errorf("Read accepted a frame cut at %d", cut)
		}
	}
	for bit := 0; bit < 8*len(f); bit++ {
		bad := append([]byte(nil), f...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, _, err := Check(bad); !errors.Is(err, ErrCRC) {
			t.Errorf("Check of a flip of bit %d: %v", bit, err)
		}
		if _, _, _, err := Split(bad, caps[1]); err == nil {
			t.Errorf("Split accepted a flip of bit %d", bit)
		}
	}
}

// TestHugeDeclaredLengths: lengths that do not fit a 32-bit int are
// refused against the cap before they are converted, by Split and by
// Read, instead of wrapping negative and panicking.
func TestHugeDeclaredLengths(t *testing.T) {
	for _, declared := range []uint32{0x80000000, 0xFFFFFFFF} {
		head := binary.BigEndian.AppendUint32([]byte{'h'}, declared)
		f := append(head, 0, 0, 0, 0)
		for _, max := range caps {
			if _, _, _, err := Split(f, max); !errors.Is(err, ErrTooLong) {
				t.Errorf("Split of %#x under cap %d: %v", declared, max, err)
			}
			if _, _, err := Read(bytes.NewReader(f), max); !errors.Is(err, ErrTooLong) {
				t.Errorf("Read of %#x under cap %d: %v", declared, max, err)
			}
		}
	}
}

// FuzzFrame hammers the codec with arbitrary bytes. Truncations, CRC
// flips and oversized declared lengths must produce an error, never a
// panic or an over-read, and anything accepted re-encodes byte for
// byte: accepted frames are exactly the writable ones. Split and Read
// must agree on every input.
func FuzzFrame(f *testing.F) {
	// One frame of each MSRP message type.
	cursor := make([]byte, 32)
	binary.BigEndian.PutUint64(cursor[0:], 3)
	binary.BigEndian.PutUint64(cursor[8:], 2)
	binary.BigEndian.PutUint64(cursor[16:], 99)
	binary.BigEndian.PutUint64(cursor[24:], 4096)
	hello := binary.BigEndian.AppendUint64(nil, 3)
	hello = binary.BigEndian.AppendUint32(hello, 1)
	hello = append(hello, "alpha/1"...)
	ack := binary.BigEndian.AppendUint64(nil, 3)
	ack = binary.BigEndian.AppendUint64(ack, 42)
	lp := func(kind byte, body []byte) []byte { return Append(nil, kind, uint32(len(body)), body) }
	seeds := [][]byte{
		lp('h', hello),
		lp('a', ack),
		lp('b', cursor),
		lp('r', append(append([]byte{}, cursor...), 0xDE, 0xAD)),
		lp('s', nil),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)-1]) // truncated CRC
		f.Add(s[:5])        // truncated payload
		flipped := append([]byte{}, s...)
		flipped[len(flipped)-1] ^= 0x01 // CRC flip
		f.Add(flipped)
	}
	f.Add([]byte{'r', 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // oversized
	f.Add([]byte{'r', 0x80, 0x00, 0x00, 0x00, 0, 0, 0, 0}) // negative as a 32-bit int
	// One frame per protocol: a stream-wire end marker at sequence 5, a
	// datagram FIN on flow 7, a journal epoch record.
	f.Add(Append(nil, 'E', 5, nil))
	f.Add(Append(nil, 'f', 7, []byte{0, 0, 0, 99, 0, 0}))
	f.Add(lp('E', binary.BigEndian.AppendUint64(nil, 3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The whole-frame form: the stream wire's and the datagram's.
		if kind, word, body, err := Check(data); err == nil {
			if re := Append(nil, kind, word, body); !bytes.Equal(re, data) {
				t.Fatalf("checked frame re-encodes to %x, was %x", re, data)
			}
		}
		// The length-prefixed form: MSRP's and the journal's.
		for _, max := range caps {
			kind, body, size, err := Split(data, max)
			if err == nil {
				if size < Overhead || size > len(data) || len(body) != size-Overhead || len(body) > int(max) {
					t.Fatalf("split %d-byte frame with a %d-byte body from %d bytes under cap %d",
						size, len(body), len(data), max)
				}
				re := EndLen(append(Begin(nil, kind, 0), body...), 0)
				if !bytes.Equal(re, data[:size]) {
					t.Fatalf("split frame re-encodes to %x, was %x", re, data[:size])
				}
			}
			rkind, rbody, rerr := Read(bytes.NewReader(data), max)
			if (rerr == nil) != (err == nil) || err == nil && (rkind != kind || !bytes.Equal(rbody, body)) {
				t.Fatalf("cap %d: Split gave %c %x %v, Read %c %x %v", max, kind, body, err, rkind, rbody, rerr)
			}
		}
	})
}
