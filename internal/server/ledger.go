// Lock-sharded session ledgers: the server's only record of recent
// sessions. The nonce table maps a live hello nonce to its stream; the
// tombstone table maps a completed stream's resume token to its final
// state for one TTL. Both are keyed by values that are uniform by
// construction (crypto-random nonces and resume tokens), so a
// fixed-width shard array with per-shard mutexes spreads duplicate-hello
// probes and late-resume lookups ~evenly, off the admission mutex, with
// no resizing or rebalancing.
//
// The nonce table is written only under s.mu — in admit, its rollback,
// finish, and journal recovery — so a read under s.mu is authoritative:
// admit's check there is the guard against reserving a second peak for
// one nonce. handleHello's lock-free probe is only the fast path that
// reattaches a retransmitted hello; a racy miss there costs the sender
// one RejectedBusy round trip, never a second reservation.
//
// Gap-freedom for late resumes holds because finish entombs a completed
// stream before s.mu is released: any resume that finds the token gone
// from s.resumable serialized after that critical section and therefore
// finds the tombstone.
package server

import (
	"sync"
	"time"
)

// ledgerShards is the shard count for both ledgers; a power of two so
// the fibonacci hash reduces to a shift.
const ledgerShards = 32

// ledgerShard maps a uniform 64-bit key to a shard index by fibonacci
// hashing: multiply by 2⁶⁴/φ and keep the top bits. Even adversarially
// clustered keys spread, and for the crypto-random keys these ledgers
// hold it is effectively a free permutation.
func ledgerShard(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - 5))
}

// nonceShard is one stripe of the nonce ledger, padded out so adjacent
// shards' mutexes do not share a cache line under contention.
type nonceShard struct {
	mu sync.Mutex
	m  map[uint64]*stream
	_  [40]byte
}

// nonceLedger routes duplicate hellos (a sender redialing because our
// admission verdict was lost) back to their live stream. The zero value
// is ready to use.
type nonceLedger struct {
	shards [ledgerShards]nonceShard
}

func (l *nonceLedger) get(nonce uint64) *stream {
	sh := &l.shards[ledgerShard(nonce)]
	sh.mu.Lock()
	st := sh.m[nonce]
	sh.mu.Unlock()
	return st
}

func (l *nonceLedger) put(nonce uint64, st *stream) {
	sh := &l.shards[ledgerShard(nonce)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = map[uint64]*stream{}
	}
	sh.m[nonce] = st
	sh.mu.Unlock()
}

func (l *nonceLedger) del(nonce uint64) {
	sh := &l.shards[ledgerShard(nonce)]
	sh.mu.Lock()
	delete(sh.m, nonce)
	sh.mu.Unlock()
}

// tombShard is one stripe of the tombstone ledger: the tombstones by
// token, plus the tokens in insertion order. Every tombstone is written
// with the same TTL (recovered ones, with their earlier expiries, go in
// first), so insertion order is expiry order and put sweeps the expired
// prefix in O(expired). A live token at the front stops the sweep;
// lookup's expiry check, not the sweep, is what retires a tombstone.
type tombShard struct {
	mu    sync.Mutex
	m     map[uint64]tombstone
	order []uint64
}

// tombLedger remembers recently completed streams by resume token so a
// sender whose completion ack was lost gets a precise AlreadyComplete
// verdict (with the final hash) instead of an unknown-token rejection.
// Each tombstone stays answerable for exactly its TTL, whatever the
// completion rate: memory is completion rate × TTL. The zero value is
// ready to use.
type tombLedger struct {
	shards [ledgerShards]tombShard
}

// put entombs one completed stream, first dropping the shard's
// tombstones that expired by now.
func (l *tombLedger) put(token uint64, t tombstone, now time.Time) {
	sh := &l.shards[ledgerShard(token)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	for _, tok := range sh.order {
		if now.Before(sh.m[tok].expires) {
			break
		}
		delete(sh.m, tok)
		n++
	}
	if sh.m == nil {
		sh.m = map[uint64]tombstone{}
	}
	sh.order = append(sh.order[n:], token)
	sh.m[token] = t
}

// lookup finds a tombstone that has not expired by now.
func (l *tombLedger) lookup(token uint64, now time.Time) (tombstone, bool) {
	sh := &l.shards[ledgerShard(token)]
	sh.mu.Lock()
	t, ok := sh.m[token]
	sh.mu.Unlock()
	if !ok || !now.Before(t.expires) {
		return tombstone{}, false
	}
	return t, true
}
