package transport

import (
	"bytes"
	"testing"

	"mpegsmooth/internal/frame"
	"mpegsmooth/internal/mpeg"
)

// FuzzFrameReader attacks the stream wire's message decoder. The input
// is a kind byte, a body and whatever follows it (a picture's payload);
// the harness frames the body with a valid CRC and sequence number, so
// mutations get past the frame check and reach decode. No input may
// panic, and every message the reader accepts must re-encode through
// FrameWriter to exactly the bytes it read: decode accepts only what
// the writer can produce.
func FuzzFrameReader(f *testing.F) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	payload := []byte("picture payload")
	writes := []func() error{
		func() error { return fw.WriteHello(validHello()) },
		func() error { return fw.WriteResume(StreamResume{Token: 42}) },
		func() error {
			return fw.WriteVerdict(Verdict{Code: AlreadyComplete, Available: 1e6, ResumeToken: 42,
				NextIndex: 9, PrefixFNV: 0xFEED, Epoch: 3})
		},
		func() error { return fw.WriteRedirect(Redirect{Addr: "127.0.0.1:8442", Epoch: 3}) },
		func() error { return fw.WriteRate(RateNotification{Index: 4, Rate: 1.5e6}) },
		func() error {
			if err := fw.WritePictureHeader(4, mpeg.TypeB, payload); err != nil {
				return err
			}
			return fw.WriteChunk(payload)
		},
		func() error { return fw.WriteEnd() },
	}
	for _, write := range writes {
		buf.Reset()
		if err := write(); err != nil {
			f.Fatal(err)
		}
		// Strip the sequence number and CRC the harness adds back.
		wire := buf.Bytes()
		n, _ := bodyLen(wire[0])
		seed := append([]byte{wire[0]}, wire[frame.HeaderLen:frame.HeaderLen+n]...)
		f.Add(append(seed, wire[frame.Overhead+n:]...))
	}
	// A redirect whose padding after the address is not zero: the
	// writer always zeroes it, so the reader must refuse it.
	rd, _ := bodyLen(kindRedirect)
	padded := make([]byte, 1+rd)
	padded[0], padded[10], padded[11], padded[len(padded)-1] = kindRedirect, 1, 'x', 1
	f.Add(padded)
	f.Add([]byte{'Z', 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		kind, rest := data[0], data[1:]
		n, _ := bodyLen(kind)
		n = min(n, len(rest))
		stream := append(frame.Append(nil, kind, 0, rest[:n]), rest[n:]...)
		r := bytes.NewReader(stream)
		msg, err := NewFrameReader(r).ReadMessage()
		if err != nil && err != ErrClosed {
			return
		}
		var out bytes.Buffer
		w := NewFrameWriter(&out)
		switch m := msg.(type) {
		case nil:
			err = w.WriteEnd()
		case *StreamHello:
			err = w.WriteHello(*m)
		case *StreamResume:
			err = w.WriteResume(*m)
		case *Verdict:
			err = w.WriteVerdict(*m)
		case *Redirect:
			err = w.WriteRedirect(*m)
		case *RateNotification:
			err = w.WriteRate(*m)
		case *PictureFrame:
			if err = w.WritePictureHeader(m.Index, m.Type, m.Payload); err == nil {
				err = w.WriteChunk(m.Payload)
			}
		default:
			t.Fatalf("reader returned %T", msg)
		}
		if err != nil {
			t.Fatalf("re-encoding accepted %T: %v", msg, err)
		}
		if read := stream[:len(stream)-r.Len()]; !bytes.Equal(out.Bytes(), read) {
			t.Fatalf("accepted %T re-encodes to\n%x\nbut was read from\n%x", msg, out.Bytes(), read)
		}
	})
}
