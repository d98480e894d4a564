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
	active   int64
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
// the peak and reports true when it fits in the remaining capacity.
// Non-positive or non-finite peaks are always rejected.
func (a *Admission) Admit(peak float64) bool {
	if peak <= 0 || math.IsNaN(peak) || math.IsInf(peak, 0) {
		return false
	}
	// Tolerate float accumulation error at exact capacity: a link sized
	// for n identical peaks admits all n.
	if a.reserved+peak > a.capacity*(1+1e-12) {
		return false
	}
	a.reserved += peak
	a.active++
	return true
}

// Rehydrate force-installs a reservation recovered from the crash
// journal. Capacity is not re-checked — the journal is authoritative for
// state the previous generation already committed to.
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

// Active returns the count of reservations held: admitted or
// rehydrated streams not yet released.
func (a *Admission) Active() int64 { return a.active }
