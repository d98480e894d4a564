package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// IntegrityMode selects the prefix-verification hash a stream session
// negotiates in its hello. The server computes the running hash over
// every accepted payload in index order and echoes it in
// Verdict.PrefixFNV; the sender verifies its own prefix before
// (re)playing anything.
//
// The FNV mode (the default, and the only pre-negotiation behaviour)
// detects accidental divergence — corruption the frame CRCs missed,
// replayed bytes from the wrong stream, shifted picture boundaries.
// HMAC-SHA256 additionally resists an adversarial peer: without the
// shared key, a forged AlreadyComplete or resume verdict cannot present
// a matching prefix tag.
type IntegrityMode byte

const (
	// IntegrityFNV: FNV-1a chained over one 16-byte digest record per
	// accepted payload (default; see fnvPrefix).
	IntegrityFNV IntegrityMode = 0
	// IntegrityHMAC: a chained HMAC-SHA256 — chain₀ = HMAC(key, "init"),
	// chainₙ = HMAC(key, chainₙ₋₁ ‖ payloadₙ) — whose 32-byte chain
	// value is the running state. The wire tag is the chain's first 8
	// bytes. Chaining (rather than one long-running MAC) makes the state
	// explicit and restorable, which the server's crash journal needs.
	IntegrityHMAC IntegrityMode = 1
)

// String names the mode (the -integrity flag spelling).
func (m IntegrityMode) String() string {
	switch m {
	case IntegrityFNV:
		return "fnv"
	case IntegrityHMAC:
		return "hmac-sha256"
	}
	return fmt.Sprintf("IntegrityMode(%d)", byte(m))
}

// Valid reports whether the mode is one a hello may carry.
func (m IntegrityMode) Valid() bool { return m <= IntegrityHMAC }

// PrefixHash is a resumable running hash over a stream's accepted
// payload prefix. State/Restore expose the full internal state so a
// crash-recovery journal can persist the watermark hash and resume it
// bit-exactly in a fresh process.
type PrefixHash interface {
	// Absorb appends one payload to the hashed prefix. crc is the
	// payload's CRC-32/IEEE, which a FrameReader has already verified
	// (PictureFrame.CRC): the FNV mode hashes it instead of computing it
	// again, and the HMAC mode ignores it.
	Absorb(payload []byte, crc uint32)
	// Sum64 returns the 8-byte wire tag of the current prefix.
	Sum64() uint64
	// State returns the full internal state (8 bytes for FNV, 32 for the
	// HMAC chain).
	State() []byte
	// AppendState appends the internal state to dst and returns the
	// extended slice — State without the allocation, for per-picture
	// callers that reuse a scratch buffer.
	AppendState(dst []byte) []byte
	// Restore replaces the internal state with one State produced.
	Restore(state []byte) error
	// Mode identifies the negotiated algorithm.
	Mode() IntegrityMode
}

// NewPrefixHash creates the running hash for a mode. IntegrityHMAC
// requires a non-empty key; IntegrityFNV ignores it.
func NewPrefixHash(mode IntegrityMode, key []byte) (PrefixHash, error) {
	switch mode {
	case IntegrityFNV:
		return &fnvPrefix{state: fnvOffset}, nil
	case IntegrityHMAC:
		if len(key) == 0 {
			return nil, fmt.Errorf("transport: integrity mode %s requires a key", mode)
		}
		h := &hmacPrefix{key: append([]byte(nil), key...)}
		mac := hmac.New(sha256.New, h.key)
		mac.Write([]byte("mpegsmooth-prefix-init"))
		h.chain = mac.Sum(nil)
		return h, nil
	}
	return nil, fmt.Errorf("transport: unknown integrity mode %d", mode)
}

// PrefixSum computes the wire tag of payloads[:n] from scratch — the
// sender-side mirror of the server's running hash at watermark n.
func PrefixSum(mode IntegrityMode, key []byte, payloads [][]byte, n int) (uint64, error) {
	h, err := NewPrefixHash(mode, key)
	if err != nil {
		return 0, err
	}
	for _, p := range payloads[:n] {
		h.Absorb(p, crc32.ChecksumIEEE(p))
	}
	return h.Sum64(), nil
}

// fnvOffset is the FNV-1a 64-bit offset basis (the hash of the empty
// prefix), matching hash/fnv.New64a.
const fnvOffset = 14695981039346656037

// fnvPrime is the FNV-1a 64-bit prime. hash/fnv does not expose
// seeding from a prior state, so Absorb applies the FNV-1a step
// directly; TestFNVPrefixMatchesStdlib pins the equivalence.
const fnvPrime = 1099511628211

// castagnoli selects the hardware CRC-32C path in hash/crc32.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fnvPrefix implements PrefixHash as FNV-1a chained over one 16-byte
// record per payload: big-endian uint64(len) ‖ CRC-32C ‖ CRC-32/IEEE.
// Both CRCs run in hardware, and the CRC-32/IEEE is the one the frame
// already carries and the reader verified, so a picture costs one
// vectorised pass of its own instead of a byte-serial FNV-1a multiply
// chain over its whole payload. The pair of CRCs catches every burst
// of up to 32 bits in a payload, and the length field pins picture
// boundaries; any other divergence escapes only through a 64-bit
// collision. The state is the 64-bit FNV-1a value, so it stays
// trivially resumable.
type fnvPrefix struct {
	state uint64
}

func (f *fnvPrefix) Absorb(payload []byte, crc uint32) {
	var rec [16]byte
	binary.BigEndian.PutUint64(rec[0:8], uint64(len(payload)))
	binary.BigEndian.PutUint32(rec[8:12], crc32.Checksum(payload, castagnoli))
	binary.BigEndian.PutUint32(rec[12:16], crc)
	s := f.state
	for _, b := range rec {
		s ^= uint64(b)
		s *= fnvPrime
	}
	f.state = s
}

func (f *fnvPrefix) Sum64() uint64 { return f.state }

func (f *fnvPrefix) State() []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], f.state)
	return buf[:]
}

func (f *fnvPrefix) AppendState(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, f.state)
}

func (f *fnvPrefix) Restore(state []byte) error {
	if len(state) != 8 {
		return fmt.Errorf("transport: fnv prefix state is %d bytes, want 8", len(state))
	}
	f.state = binary.BigEndian.Uint64(state)
	return nil
}

func (f *fnvPrefix) Mode() IntegrityMode { return IntegrityFNV }

// hmacPrefix implements PrefixHash with the chained HMAC-SHA256
// construction. The chain value commits to the whole prefix in order;
// forging a tag for a different prefix requires the key. It MACs every
// payload byte rather than fnvPrefix's CRC digests: CRCs are linear, so
// an attacker can choose different bytes with the same digests and a
// MAC over them would vouch for both.
type hmacPrefix struct {
	key   []byte
	chain []byte // 32 bytes
}

func (h *hmacPrefix) Absorb(payload []byte, _ uint32) {
	mac := hmac.New(sha256.New, h.key)
	mac.Write(h.chain)
	mac.Write(payload)
	h.chain = mac.Sum(h.chain[:0])
}

func (h *hmacPrefix) Sum64() uint64 { return binary.BigEndian.Uint64(h.chain[:8]) }

func (h *hmacPrefix) State() []byte { return append([]byte(nil), h.chain...) }

func (h *hmacPrefix) AppendState(dst []byte) []byte { return append(dst, h.chain...) }

func (h *hmacPrefix) Restore(state []byte) error {
	if len(state) != sha256.Size {
		return fmt.Errorf("transport: hmac prefix state is %d bytes, want %d", len(state), sha256.Size)
	}
	h.chain = append(h.chain[:0], state...)
	return nil
}

func (h *hmacPrefix) Mode() IntegrityMode { return IntegrityHMAC }
