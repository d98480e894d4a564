package netsim

import (
	"fmt"
	"math"
)

// Admission is a peak-rate admission controller for a shared link: each
// stream declares the peak rate of its smoothed schedule (the traffic
// descriptor a Policer would enforce), and the controller admits the
// stream only if the sum of reserved peaks stays within the link
// capacity. Because a smoothed stream never transmits above its peak,
// this reservation makes the multiplexing lossless — the admission-time
// analogue of the paper's Section 5 experiment, where smoothing lets
// more streams share a finite-buffer link before any cell is lost.
// Would-be overloads are rejected before their first picture instead of
// being dropped mid-stream.
//
// Admission is a plain accumulator with no locking, like the rest of
// this package; concurrent servers wrap it in their own mutex.
type Admission struct {
	capacity float64
	reserved float64

	admitted int64
	rejected int64
	active   int64
	parked   int64
}

// NewAdmission creates a controller for a link of the given capacity in
// bits/second.
func NewAdmission(capacity float64) (*Admission, error) {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return nil, fmt.Errorf("netsim: non-positive link capacity %v", capacity)
	}
	return &Admission{capacity: capacity}, nil
}

// Admit decides on a stream declaring the given peak rate: it reserves
// the peak and reports true when it fits in the remaining capacity, and
// counts a rejection otherwise. Non-positive or non-finite peaks are
// always rejected.
func (a *Admission) Admit(peak float64) bool {
	if peak <= 0 || math.IsNaN(peak) || math.IsInf(peak, 0) {
		a.rejected++
		return false
	}
	// Tolerate float accumulation error at exact capacity: a link sized
	// for n identical peaks admits all n.
	if a.reserved+peak > a.capacity*(1+1e-12) {
		a.rejected++
		return false
	}
	a.reserved += peak
	a.admitted++
	a.active++
	return true
}

// Rehydrate force-installs a reservation recovered from the crash
// journal: the peak is reserved without counting a new admission, so
// "streams admitted" stays one per client stream across server
// generations. Capacity is not re-checked — the journal is
// authoritative for state the previous generation already committed to.
func (a *Admission) Rehydrate(peak float64) {
	a.reserved += peak
	a.active++
}

// Release returns an admitted stream's reservation when it ends. The
// peak must match what was admitted.
func (a *Admission) Release(peak float64) {
	a.reserved -= peak
	a.active--
	// With no active streams the ledger is empty by definition; zeroing
	// it here stops float residue from admit/release orderings (most
	// visibly journal-rehydrated reservations released in a different
	// order than they were summed) accumulating into phantom bandwidth.
	if a.reserved < 0 || a.active <= 0 {
		a.reserved = 0
	}
}

// Capacity returns the link capacity in bits/second.
func (a *Admission) Capacity() float64 { return a.capacity }

// Reserved returns the sum of admitted peaks in bits/second.
func (a *Admission) Reserved() float64 { return a.reserved }

// Available returns the unreserved capacity in bits/second.
func (a *Admission) Available() float64 {
	if avail := a.capacity - a.reserved; avail > 0 {
		return avail
	}
	return 0
}

// Admitted returns the count of streams ever admitted.
func (a *Admission) Admitted() int64 { return a.admitted }

// Rejected returns the count of streams rejected.
func (a *Admission) Rejected() int64 { return a.rejected }

// Active returns the count of admitted streams not yet released.
func (a *Admission) Active() int64 { return a.active }

// Park marks one active stream as disconnected-but-reserved: its sender
// dropped, the server is holding its reservation through a resume
// window. The stream stays Active — the whole point of parking is that
// the capacity remains spoken for, so a reconnecting sender is never
// re-admitted against different arithmetic.
func (a *Admission) Park() { a.parked++ }

// Unpark clears one parked mark (on resume or on window expiry).
func (a *Admission) Unpark() {
	if a.parked > 0 {
		a.parked--
	}
}

// Parked returns the count of active streams currently awaiting resume.
func (a *Admission) Parked() int64 { return a.parked }
