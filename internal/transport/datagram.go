package transport

import (
	"encoding/binary"
	"fmt"

	"mpegsmooth/internal/frame"
)

// Datagram packet layer: the wire format the ARQ connection (dgconn.go)
// speaks over a lossy packet channel. Each UDP datagram carries exactly
// one packet; the stream frames of wire.go ride inside the reliable
// byte stream the ARQ layer reconstructs, so the two codecs never mix
// on the wire. Packet kinds deliberately avoid the stream frame kind
// bytes ('R','P','E','H','V','M','D') so a cross-fed byte is always an
// immediate decode error rather than a plausible packet.
//
// Every packet is one frame of package frame whose word is conn; the
// bodies are (big-endian)
//
//	DATA  'd' | seq(4) | len(2) | payload
//	FIN   'f' | seq(4) | len(2)=0
//	ACK   'a' | cum(4) | bitmap(8)
//
// conn is the flow incarnation ID drawn fresh per dial: packets from a
// previous incarnation of the same 5-tuple fail the ID check and drop
// as stale duplicates instead of corrupting the live flow. seq numbers
// packets (not bytes) from 0 per direction; a FIN occupies a sequence
// slot so end-of-stream rides the same selective-repeat reliability as
// data. An ACK carries cum = the next sequence the receiver expects
// (everything below is delivered) plus a 64-bit selective-ack bitmap:
// bit i set means seq cum+1+i is held in the reassembly buffer.
const (
	dgKindData = 'd'
	dgKindFin  = 'f'
	dgKindAck  = 'a'
)

const (
	// dgDataHeader is kind+conn+seq+len; dgAckSize the full fixed-size
	// ACK packet; dgTrailer the CRC.
	dgDataHeader = frame.HeaderLen + 4 + 2
	dgAckSize    = frame.Overhead + 4 + 8
	dgTrailer    = frame.Overhead - frame.HeaderLen

	// DatagramMTU is the default per-packet payload budget, sized so a
	// full DATA packet stays under common 1280-byte path MTUs with the
	// 15-byte header+trailer overhead.
	DatagramMTU = 1152

	// dgMaxPayload bounds what the decoder will accept, independent of
	// the sender's MTU setting — a corrupted length field must never
	// drive a large allocation.
	dgMaxPayload = 9216

	// dgSendWindow is the selective-repeat send window in packets. It
	// matches the 64-bit ACK bitmap exactly so every in-flight packet is
	// individually ackable, and fits inside the receiver's reassembly
	// window with room for one displaced window of duplicates.
	dgSendWindow = 64

	// dgReassemblyWindow bounds receiver buffering: a packet at or past
	// rcvNext+window is a reorder overflow and tears the flow down. A
	// conforming sender never exceeds rcvNext+dgSendWindow, so overflow
	// only fires on channel displacement beyond a full extra window or
	// cross-incarnation traffic.
	dgReassemblyWindow = 128

	// dgGapRetransmit is the gap-evidence threshold for fast retransmit:
	// once a packet has been reported missing (unacked below a
	// selectively-acked higher sequence) this many times, it is resent
	// without waiting for its retransmission timeout.
	dgGapRetransmit = 2
)

// dgPacket is one decoded datagram.
type dgPacket struct {
	Kind byte
	Conn uint32 // flow incarnation ID
	// DATA/FIN fields.
	Seq     uint32
	Payload []byte // aliases the decode input; copy before retaining
	// ACK fields.
	Cum    uint32 // next sequence the receiver expects
	Bitmap uint64 // bit i: seq Cum+1+i held in reassembly
}

// appendDataPacket encodes a DATA (or, with empty payload and the FIN
// kind, a FIN) packet onto dst.
func appendDataPacket(dst []byte, kind byte, conn, seq uint32, payload []byte) []byte {
	start := len(dst)
	dst = frame.Begin(dst, kind, conn)
	dst = binary.BigEndian.AppendUint32(dst, seq)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	return frame.End(append(dst, payload...), start)
}

// appendAckPacket encodes an ACK packet onto dst.
func appendAckPacket(dst []byte, conn, cum uint32, bitmap uint64) []byte {
	start := len(dst)
	dst = frame.Begin(dst, dgKindAck, conn)
	dst = binary.BigEndian.AppendUint32(dst, cum)
	return frame.End(binary.BigEndian.AppendUint64(dst, bitmap), start)
}

// decodeDatagram parses and verifies one received datagram. Every
// failure wraps ErrCorrupt; a valid datagram must be exactly one whole
// packet (UDP preserves message boundaries, so trailing bytes mean
// corruption, not coalescing). The returned packet's Payload aliases
// buf.
func decodeDatagram(buf []byte) (dgPacket, error) {
	kind, conn, body, err := frame.Check(buf)
	if err != nil {
		return dgPacket{}, fmt.Errorf("datagram of %d bytes: %w: %w", len(buf), ErrCorrupt, err)
	}
	p := dgPacket{Kind: kind, Conn: conn}
	switch kind {
	case dgKindData, dgKindFin:
		if len(buf) < dgDataHeader+dgTrailer {
			return p, fmt.Errorf("datagram truncated (%d bytes): %w", len(buf), ErrCorrupt)
		}
		n := int(binary.BigEndian.Uint16(body[4:6]))
		if n > dgMaxPayload {
			return p, fmt.Errorf("datagram payload length %d exceeds cap: %w", n, ErrCorrupt)
		}
		if len(buf) != dgDataHeader+n+dgTrailer {
			return p, fmt.Errorf("datagram length %d does not match header (%d payload): %w",
				len(buf), n, ErrCorrupt)
		}
		if kind == dgKindFin && n != 0 {
			return p, fmt.Errorf("fin with %d payload bytes: %w", n, ErrCorrupt)
		}
		p.Seq = binary.BigEndian.Uint32(body[0:4])
		p.Payload = body[6:]
		return p, nil
	case dgKindAck:
		if len(buf) != dgAckSize {
			return p, fmt.Errorf("ack datagram length %d: %w", len(buf), ErrCorrupt)
		}
		p.Cum = binary.BigEndian.Uint32(body[0:4])
		p.Bitmap = binary.BigEndian.Uint64(body[4:12])
		return p, nil
	}
	return p, fmt.Errorf("unknown datagram kind %#x: %w", kind, ErrCorrupt)
}
