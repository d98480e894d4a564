package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"

	"mpegsmooth/internal/faultnet"
	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/transport"
)

// Everything a workload feeds the system is derived here from the
// benchmark seed, so one seed always yields byte-identical traces,
// payloads, nonces and fault settings. Each derived stream has its own
// domain constant so adding one never shifts another.
const (
	domainTrace uint64 = iota + 1
	domainArena
	domainNonce
	domainFaults
	domainARQ
	domainOffset
	domainCluster
)

// mix derives a sub-seed from seed and parts with splitmix64.
func mix(seed int64, parts ...uint64) uint64 {
	x := uint64(seed)
	step := func(v uint64) {
		x += v + 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		x = z ^ z>>31
	}
	step(0)
	for _, p := range parts {
		step(p)
	}
	return x
}

// subSeed is mix reduced to a positive int64, the form the library's
// seeded constructors take.
func subSeed(seed int64, parts ...uint64) int64 {
	s := int64(mix(seed, parts...) >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

// seqFunc builds one of the paper's synthetic sequences.
type seqFunc func(pictures int, seed int64) (*trace.Trace, error)

// tagLen is the size of the head and tail tags every payload carries.
// Payload sizes are whole multiples of tagLen, so under any egress
// write grain that is itself a multiple of tagLen no write splits a tag.
const tagLen = 16

// tagMagic opens every tag; the byte after it says head or tail.
var tagMagic = []byte{0xB7, 0x53, 0x4D, 0x42, 0x45, 0x4E, 0x43}

const (
	tagHead byte = 'H'
	tagTail byte = 'T'
)

// template is one generated trace the load generator streams: picture
// sizes rounded up to whole tags, and where in the arena each picture's
// body bytes start.
type template struct {
	tr   *trace.Trace
	offs []int
}

// bytes returns the total payload size of the template's pictures.
func (t *template) bytes() int64 { return t.tr.TotalBits() / 8 }

// inputs is one workload's generated input set.
type inputs struct {
	seed  int64
	arena []byte
	tpls  []*template
}

// makeInputs generates count templates of the given length, rotating
// through seqs, plus the random arena payload bodies are cut from.
func makeInputs(seed int64, seqs []seqFunc, count, pictures int) (*inputs, error) {
	in := &inputs{seed: seed}
	maxPic := 0
	for k := 0; k < count; k++ {
		raw, err := seqs[k%len(seqs)](pictures, subSeed(seed, domainTrace, uint64(k)))
		if err != nil {
			return nil, err
		}
		sizes := make([]int64, raw.Len())
		for i, s := range raw.Sizes {
			b := (s + 7) / 8
			if b < 2*tagLen {
				b = 2 * tagLen
			}
			b = (b + tagLen - 1) / tagLen * tagLen
			sizes[i] = b * 8
			if int(b) > maxPic {
				maxPic = int(b)
			}
		}
		tr, err := trace.FromPictureSizes(raw.Name, raw.Tau, raw.GOP, sizes)
		if err != nil {
			return nil, err
		}
		in.tpls = append(in.tpls, &template{tr: tr})
	}
	rng := rand.New(rand.NewSource(subSeed(seed, domainArena)))
	in.arena = make([]byte, 1<<20+maxPic)
	rng.Read(in.arena)
	// Body bytes must never spell a tag, or the egress sink would count
	// a picture boundary that is not there.
	for i := bytes.Index(in.arena, tagMagic); i >= 0; i = bytes.Index(in.arena, tagMagic) {
		in.arena[i] ^= 0xFF
	}
	for _, t := range in.tpls {
		t.offs = make([]int, t.tr.Len())
		for i, s := range t.tr.Sizes {
			t.offs[i] = rng.Intn(len(in.arena) - int(s/8) + 1)
		}
	}
	return in, nil
}

// payload writes picture i of tpl, as streamed by session sess from
// slot, into dst (which must hold the picture) and returns it: arena
// body bytes framed by a head and a tail tag naming the picture.
func (in *inputs) payload(dst []byte, tpl *template, i, slot int, sess uint32) []byte {
	n := int(tpl.tr.Sizes[i] / 8)
	p := dst[:n]
	copy(p, in.arena[tpl.offs[i]:tpl.offs[i]+n])
	putTag(p[:tagLen], tagHead, slot, sess, i)
	putTag(p[n-tagLen:], tagTail, slot, sess, i)
	return p
}

func putTag(b []byte, kind byte, slot int, sess uint32, pic int) {
	copy(b, tagMagic)
	b[7] = kind
	binary.BigEndian.PutUint16(b[8:10], uint16(slot))
	binary.BigEndian.PutUint32(b[10:14], sess)
	binary.BigEndian.PutUint16(b[14:16], uint16(pic))
}

// payloadFNV is the prefix hash the server must report for a finished
// session that streamed every picture of tpl.
func (in *inputs) payloadFNV(tpl *template, slot int, sess uint32) (uint64, error) {
	pays := make([][]byte, tpl.tr.Len())
	for i := range pays {
		pays[i] = in.payload(make([]byte, tpl.tr.Sizes[i]/8), tpl, i, slot, sess)
	}
	return transport.PrefixSum(transport.IntegrityFNV, nil, pays, len(pays))
}

// nonce is session sess's hello nonce: unique per session, never zero.
func (in *inputs) nonce(sess uint32) uint64 {
	return mix(in.seed, domainNonce, uint64(sess)) | 1
}

// arqSeed seeds one datagram flow's retransmission jitter.
func (in *inputs) arqSeed(sess uint32) int64 { return subSeed(in.seed, domainARQ, uint64(sess)) }

// offset is source i's start offset in the multiplexing run, in [0, 1) s.
func (in *inputs) offset(i int) float64 {
	return float64(mix(in.seed, domainOffset, uint64(i))>>11) / (1 << 53)
}

// packetFaults is the datagram workload's injected fault mix. Fading is
// left out: its blocks follow the wall clock, not the seed.
func packetFaults(seed int64) faultnet.PacketConfig {
	return faultnet.PacketConfig{
		Seed:        subSeed(seed, domainFaults),
		LossProb:    0.01,
		DupProb:     0.005,
		ReorderProb: 0.01,
		Burst:       faultnet.PacketBurst{EnterProb: 0.002},
	}
}
