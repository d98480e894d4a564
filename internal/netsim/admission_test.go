package netsim

import (
	"math"
	"testing"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/trace"
)

func TestAdmissionValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewAdmission(bad); err == nil {
			t.Errorf("capacity %v accepted", bad)
		}
	}
}

func TestAdmissionReservesAndRejects(t *testing.T) {
	a, err := NewAdmission(10e6)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Admit(4e6) || !a.Admit(4e6) {
		t.Fatal("two 4 Mbps streams must fit a 10 Mbps link")
	}
	if a.Admit(4e6) {
		t.Fatal("third 4 Mbps stream must not fit 2 Mbps headroom")
	}
	if got := a.Available(); math.Abs(got-2e6) > 1 {
		t.Fatalf("available %.0f, want 2e6", got)
	}
	// Exact fit admits (the float tolerance at capacity).
	if !a.Admit(2e6) {
		t.Fatal("exact-fit stream rejected")
	}
	if a.Active() != 3 {
		t.Fatalf("active %d, want 3", a.Active())
	}
	a.Release(4e6)
	if a.Active() != 2 {
		t.Fatalf("active %d after release", a.Active())
	}
	if !a.Admit(4e6) {
		t.Fatal("released capacity not reusable")
	}
}

// TestRehydrate: a journal-recovered reservation restores the peak and
// holds a reservation until released.
func TestRehydrate(t *testing.T) {
	a, err := NewAdmission(10e6)
	if err != nil {
		t.Fatal(err)
	}
	a.Rehydrate(4e6)
	if got := a.Reserved(); got != 4e6 {
		t.Fatalf("reserved %v, want 4e6", got)
	}
	if got := a.Active(); got != 1 {
		t.Fatalf("active %v, want 1", got)
	}
	a.Release(4e6)
	if got := a.Reserved(); got != 0 {
		t.Fatalf("reserved %v after release, want 0", got)
	}
}

func TestAdmissionRejectsBadPeaks(t *testing.T) {
	a, err := NewAdmission(1e6)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{0, -5, math.NaN(), math.Inf(1)} {
		if a.Admit(bad) {
			t.Errorf("peak %v admitted", bad)
		}
	}
	if a.Reserved() != 0 {
		t.Fatalf("bad peaks reserved %v", a.Reserved())
	}
}

// TestIdenticalStreamsFillTheLinkExactly pins the admission arithmetic
// the soak test relies on: a link sized for n equal peaks admits exactly
// n such streams, in any order.
func TestIdenticalStreamsFillTheLinkExactly(t *testing.T) {
	const peak = 1.7e6
	const n = 20
	a, err := NewAdmission(peak * n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !a.Admit(peak) {
			t.Fatalf("stream %d rejected with %f available", i, a.Available())
		}
	}
	for i := 0; i < 5; i++ {
		if a.Admit(peak) {
			t.Fatalf("over-capacity stream %d admitted", i)
		}
	}
}

// TestSmoothedPassesPolicerAtLowerPeak is the admission-control math in
// one test: policed against a single declared peak rate (the CBR
// contract an Admission reserves), the smoothed schedule of a trace
// conforms at its smoothed peak, while the unsmoothed stream of the same
// trace needs the much higher raw peak S_max/τ — so a link of fixed
// capacity admits strictly more smoothed streams.
func TestSmoothedPassesPolicerAtLowerPeak(t *testing.T) {
	tr, err := trace.Driving1(135, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.Smooth(tr, core.Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	smoothedPeak := sched.PeakRate()
	rawPeak := 0.0
	for _, s := range tr.Sizes {
		if r := float64(s) / tr.Tau; r > rawPeak {
			rawPeak = r
		}
	}
	if smoothedPeak >= rawPeak*0.8 {
		t.Fatalf("smoothing bought too little: smoothed peak %.0f vs raw peak %.0f", smoothedPeak, rawPeak)
	}

	// offer replays an emission (rate function sampled per picture)
	// through a fresh policer declared at a single fixed rate.
	offer := func(declared float64, rateOf func(j int) (start, rate float64)) int64 {
		p, err := NewPolicer(4 * CellBits)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetRate(0, declared); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < tr.Len(); j++ {
			start, rate := rateOf(j)
			bits, tcur := float64(tr.Sizes[j]), start
			for bits > 0 {
				cell := math.Min(float64(CellBits), bits)
				if _, err := p.Offer(tcur, cell); err != nil {
					t.Fatal(err)
				}
				bits -= cell
				tcur += cell / rate
			}
		}
		return p.Dropped()
	}
	smoothedEmission := func(j int) (float64, float64) { return sched.Start[j], sched.Rates[j] }
	rawEmission := func(j int) (float64, float64) { return float64(j) * tr.Tau, float64(tr.Sizes[j]) / tr.Tau }

	if drops := offer(smoothedPeak, smoothedEmission); drops != 0 {
		t.Errorf("smoothed stream dropped %d cells at its own declared peak", drops)
	}
	if drops := offer(smoothedPeak, rawEmission); drops == 0 {
		t.Error("unsmoothed stream conformed at the smoothed peak: admission would under-reserve")
	}
	if drops := offer(rawPeak, rawEmission); drops != 0 {
		t.Errorf("unsmoothed stream dropped %d cells at the raw peak", drops)
	}
}
