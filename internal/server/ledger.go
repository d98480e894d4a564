package server

import "time"

// tombLedger remembers recently completed streams by resume token so a
// sender whose completion ack was lost gets a precise AlreadyComplete
// verdict (with the final hash) instead of an unknown-token rejection.
// Each tombstone stays answerable for exactly its TTL, whatever the
// completion rate: memory is completion rate × TTL.
//
// Every tombstone is written with the same TTL (recovered ones, with
// their earlier expiries, go in first), so insertion order is expiry
// order and put sweeps the expired prefix in O(expired). A live token
// at the front stops the sweep; lookup's expiry check, not the sweep,
// is what retires a tombstone. The server guards the ledger with s.mu;
// the zero value is ready to use.
type tombLedger struct {
	m     map[uint64]tombstone
	order []uint64
}

// put entombs one completed stream, first dropping the tombstones that
// expired by now.
func (l *tombLedger) put(token uint64, t tombstone, now time.Time) {
	n := 0
	for _, tok := range l.order {
		if now.Before(l.m[tok].expires) {
			break
		}
		delete(l.m, tok)
		n++
	}
	if l.m == nil {
		l.m = map[uint64]tombstone{}
	}
	l.order = append(l.order[n:], token)
	l.m[token] = t
}

// lookup finds a tombstone that has not expired by now.
func (l *tombLedger) lookup(token uint64, now time.Time) (tombstone, bool) {
	t, ok := l.m[token]
	if !ok || !now.Before(t.expires) {
		return tombstone{}, false
	}
	return t, true
}
