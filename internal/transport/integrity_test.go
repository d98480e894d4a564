package transport

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math/rand"
	"testing"
)

func testPayloads(t *testing.T, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 16+rng.Intn(64))
		rng.Read(out[i])
	}
	return out
}

// referenceTag computes the fnv-mode prefix tag from its definition
// with the standard library alone — FNV-1a over one 16-byte record per
// payload, big-endian uint64(len) ‖ CRC-32C ‖ CRC-32/IEEE — so tests
// check the running hash against a computation of their own.
func referenceTag(payloads [][]byte) uint64 {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	h := fnv.New64a()
	for _, p := range payloads {
		var rec [16]byte
		binary.BigEndian.PutUint64(rec[0:8], uint64(len(p)))
		binary.BigEndian.PutUint32(rec[8:12], crc32.Checksum(p, castagnoli))
		binary.BigEndian.PutUint32(rec[12:16], crc32.ChecksumIEEE(p))
		h.Write(rec[:])
	}
	return h.Sum64()
}

// byteFNV is the pre-record prefix tag: FNV-1a straight over the
// concatenated payload bytes.
func byteFNV(payloads [][]byte) uint64 {
	h := fnv.New64a()
	for _, p := range payloads {
		h.Write(p)
	}
	return h.Sum64()
}

func fnvTag(t *testing.T, payloads [][]byte) uint64 {
	t.Helper()
	sum, err := PrefixSum(IntegrityFNV, nil, payloads, len(payloads))
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestFNVPrefixMatchesStdlib pins the running fnv-mode hash against
// referenceTag, built from hash/fnv and hash/crc32, after every
// payload, from the empty prefix (the FNV-1a offset basis) on.
func TestFNVPrefixMatchesStdlib(t *testing.T) {
	payloads := testPayloads(t, 8)
	h, err := NewPrefixHash(IntegrityFNV, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := fnv.New64a().Sum64(); h.Sum64() != want {
		t.Fatalf("empty prefix: %016x, want offset basis %016x", h.Sum64(), want)
	}
	for i, p := range payloads {
		h.Absorb(p)
		if want := referenceTag(payloads[:i+1]); h.Sum64() != want {
			t.Fatalf("after %d payloads: %016x vs reference %016x", i+1, h.Sum64(), want)
		}
	}
}

// TestFNVPrefixGolden pins the tag of fixed payloads, so a change to
// the construction — which would strand every journaled stream and
// tombstone — cannot pass unnoticed.
func TestFNVPrefixGolden(t *testing.T) {
	seq := make([]byte, 256)
	for i := range seq {
		seq[i] = byte(i)
	}
	payloads := [][]byte{[]byte("mpeg"), seq, {0}, []byte("lossless smoothing")}
	const want = 0x92a7d045fcda974f
	if got := fnvTag(t, payloads); got != want {
		t.Fatalf("golden tag %016x, want %016x", got, uint64(want))
	}
	if got := referenceTag(payloads); got != want {
		t.Fatalf("reference tag %016x, want %016x", got, uint64(want))
	}
}

// TestFNVPrefixPictureBoundaries: the same concatenated bytes split at
// different picture boundaries must tag differently. FNV-1a straight
// over the bytes could not tell them apart.
func TestFNVPrefixPictureBoundaries(t *testing.T) {
	payloads := testPayloads(t, 2)
	joined := append(append([]byte(nil), payloads[0]...), payloads[1]...)
	cut := len(payloads[0]) - 5
	a := payloads
	b := [][]byte{joined[:cut], joined[cut:]}
	if byteFNV(a) != byteFNV(b) {
		t.Fatal("byte-wise FNV-1a should not see picture boundaries")
	}
	if fnvTag(t, a) == fnvTag(t, b) {
		t.Error("moving a picture boundary left the tag unchanged")
	}
	if fnvTag(t, a) == fnvTag(t, [][]byte{joined}) {
		t.Error("merging two pictures left the tag unchanged")
	}
}

// TestFNVPrefixDetectsBursts: flipping one bit, or any burst of up to
// 32 bits, at sampled offsets inside one picture changes the tag — the
// CRC-32 guarantee carried through the record chain.
func TestFNVPrefixDetectsBursts(t *testing.T) {
	payloads := testPayloads(t, 3)
	pic := make([]byte, 1500)
	rand.New(rand.NewSource(5)).Read(pic)
	payloads[1] = pic
	want := fnvTag(t, payloads)
	rng := rand.New(rand.NewSource(6))
	bits := len(pic) * 8
	flip := func(p []byte, bit int) { p[bit/8] ^= 1 << (bit % 8) }
	for trial := 0; trial < 400; trial++ {
		span := 1 + trial%32 // burst length in bits; first and last always flip
		start := rng.Intn(bits - span + 1)
		bad := append([]byte(nil), pic...)
		flip(bad, start)
		if span > 1 {
			flip(bad, start+span-1)
			for b := start + 1; b < start+span-1; b++ {
				if rng.Intn(2) == 1 {
					flip(bad, b)
				}
			}
		}
		corrupt := [][]byte{payloads[0], bad, payloads[2]}
		if got := fnvTag(t, corrupt); got == want {
			t.Fatalf("%d-bit burst at bit %d left the tag unchanged", span, start)
		}
	}
}

// TestPrefixHashStateRoundTrip is the property the crash journal relies
// on: the state captured at any watermark — by State or, as the server
// does per picture, by AppendState into a reused scratch — Restored
// into a fresh hash, continues to the identical final sum.
func TestPrefixHashStateRoundTrip(t *testing.T) {
	payloads := testPayloads(t, 10)
	key := []byte("test-integrity-key")
	for _, mode := range []IntegrityMode{IntegrityFNV, IntegrityHMAC} {
		t.Run(mode.String(), func(t *testing.T) {
			full, err := NewPrefixHash(mode, key)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range payloads {
				full.Absorb(p)
			}
			want := full.Sum64()

			for cut := 0; cut <= len(payloads); cut++ {
				first, _ := NewPrefixHash(mode, key)
				for _, p := range payloads[:cut] {
					first.Absorb(p)
				}
				state := first.State()
				scratch := first.AppendState([]byte("journal"))
				if string(scratch[len("journal"):]) != string(state) {
					t.Fatalf("cut %d: AppendState %x, State %x", cut, scratch[len("journal"):], state)
				}
				second, _ := NewPrefixHash(mode, key)
				if err := second.Restore(scratch[len("journal"):]); err != nil {
					t.Fatalf("cut %d: Restore: %v", cut, err)
				}
				for _, p := range payloads[cut:] {
					second.Absorb(p)
				}
				if got := second.Sum64(); got != want {
					t.Fatalf("cut %d: resumed sum %016x, want %016x", cut, got, want)
				}
				if sum, err := PrefixSum(mode, key, payloads, cut); err != nil || sum != first.Sum64() {
					t.Fatalf("cut %d: PrefixSum = %016x, %v; want %016x", cut, sum, err, first.Sum64())
				}
			}
		})
	}
}

func TestHMACPrefixProperties(t *testing.T) {
	payloads := testPayloads(t, 4)
	sum := func(key string) uint64 {
		s, err := PrefixSum(IntegrityHMAC, []byte(key), payloads, len(payloads))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if sum("key-a") == sum("key-b") {
		t.Error("different keys produced the same tag")
	}
	// Order sensitivity: swapping payloads changes the chain.
	swapped := [][]byte{payloads[1], payloads[0], payloads[2], payloads[3]}
	a, _ := PrefixSum(IntegrityHMAC, []byte("k"), payloads, 4)
	b, _ := PrefixSum(IntegrityHMAC, []byte("k"), swapped, 4)
	if a == b {
		t.Error("payload order does not affect the chained tag")
	}
	if _, err := NewPrefixHash(IntegrityHMAC, nil); err == nil {
		t.Error("keyless HMAC mode accepted")
	}
	if _, err := NewPrefixHash(IntegrityMode(9), nil); err == nil {
		t.Error("unknown mode accepted")
	}
	var h PrefixHash
	h, _ = NewPrefixHash(IntegrityHMAC, []byte("k"))
	if err := h.Restore([]byte{1, 2, 3}); err == nil {
		t.Error("short HMAC state accepted")
	}
	h, _ = NewPrefixHash(IntegrityFNV, nil)
	if err := h.Restore([]byte{1, 2, 3}); err == nil {
		t.Error("short FNV state accepted")
	}
}

// TestFNVPrefixAbsorbZeroAlloc pins the per-picture hash step at zero
// allocations: the server absorbs every accepted payload.
func TestFNVPrefixAbsorbZeroAlloc(t *testing.T) {
	h, err := NewPrefixHash(IntegrityFNV, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 7400)
	if allocs := testing.AllocsPerRun(200, func() { h.Absorb(payload) }); allocs != 0 {
		t.Errorf("fnv Absorb allocates %.1f objects/picture, want 0", allocs)
	}
}
