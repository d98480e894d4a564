package core

import (
	"hash/fnv"
	"math"
	"testing"

	"mpegsmooth/internal/trace"
)

// scheduleFingerprint hashes the exact bit patterns of a schedule's
// rates and timing, so two schedules compare bit-for-bit through one
// uint64.
func scheduleFingerprint(s *Schedule) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(x float64) {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf)
	}
	for j := range s.Rates {
		put(s.Rates[j])
		put(s.Start[j])
		put(s.Depart[j])
	}
	return h.Sum64()
}

// TestPolicyGoldenSchedules pins every policy's and every estimator's
// schedule to fingerprints on all four paper sequences (108 pictures,
// seed 1, K=1, H=N, D=0.2). The basic and moving-average rows were
// captured from the seed (pre-Policy) decision kernel; the rest from
// the kernel before its plug-ins took View, Bounds and State by
// pointer. Any drift means the kernel arithmetic changed, not just its
// structure. A nil Policy must be BasicPolicy, bit for bit. Each
// estimator runs under the basic policy, and each sequence's cap lies
// below its basic peak, so the capped row pins a cap that binds.
func TestPolicyGoldenSchedules(t *testing.T) {
	golden := map[string]map[string]uint64{
		"Driving1": {
			"basic": 0xc7a82ecae498361, "moving-average": 0x895365b70d6924ac,
			"min-var": 0xf6f476ea8de9782e, "capped": 0xeba2ee0df2d1199c,
			"nearest-type": 0x1614de942a927602, "type-mean": 0x1c9162bb15932bb8,
			"ewma": 0x6971285c586803ec, "oracle": 0xa436a34caa090522,
		},
		"Driving2": {
			"basic": 0xa00c87213996aa85, "moving-average": 0xc2bedcf6ab4529f4,
			"min-var": 0x82edf9c7309ff2eb, "capped": 0x48aecc0083371df9,
			"nearest-type": 0xc292a7e4bfc55218, "type-mean": 0x1a83b8a9aa317ab2,
			"ewma": 0xa67c77bccb44755e, "oracle": 0x74627b9c0baa35e4,
		},
		"Tennis": {
			"basic": 0xdc4a7c6db4d03ef0, "moving-average": 0x624cfd70d0f092ba,
			"min-var": 0x23f4229d57fca705, "capped": 0xe85cbb69209af514,
			"nearest-type": 0x2acf178b2baefeaa, "type-mean": 0x5ccb7fecebc9603c,
			"ewma": 0x13b9e7d88a774563, "oracle": 0x856e0559085c4555,
		},
		"Backyard": {
			"basic": 0xe75eecf6bbe5cab8, "moving-average": 0x2d758bc7c168e727,
			"min-var": 0x2848823c853af3da, "capped": 0x2144a06822dc17e3,
			"nearest-type": 0xc0a810699669c708, "type-mean": 0x8f4c4fd9c4c16322,
			"ewma": 0x19abcce7b8bfea59, "oracle": 0x6cfc2a4944a26edc,
		},
	}
	caps := map[string]float64{"Driving1": 2.6e6, "Driving2": 2.7e6, "Tennis": 1.9e6, "Backyard": 1.2e6}
	seqs, err := trace.PaperSequences(108, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range seqs {
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"basic", Config{}},
			{"basic", Config{Policy: BasicPolicy{}}},
			{"moving-average", Config{Policy: MovingAveragePolicy{}}},
			{"min-var", Config{Policy: MinimumVariability{}}},
			{"capped", Config{Policy: CappedRate{Cap: caps[tr.Name]}}},
			{"nearest-type", Config{Estimator: NearestTypeEstimator{}}},
			{"type-mean", Config{Estimator: TypeMeanEstimator{}}},
			{"ewma", Config{Estimator: EWMAEstimator{}}},
			{"oracle", Config{Estimator: OracleEstimator{}}},
		} {
			cfg := c.cfg
			cfg.K, cfg.H, cfg.D = 1, tr.GOP.N, 0.2
			s, err := Smooth(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := scheduleFingerprint(s), golden[tr.Name][c.name]; got != want {
				t.Errorf("%s %s (Policy %v, Estimator %v): schedule fingerprint %#x, want %#x (kernel arithmetic changed)",
					tr.Name, c.name, cfg.Policy, cfg.Estimator, got, want)
			}
			if c.name == "capped" && len(s.PolicyViolations()) == 0 {
				t.Errorf("%s: cap %v does not bind", tr.Name, caps[tr.Name])
			}
		}
	}

	// An adaptive-pattern trace, where View.Type reads explicit types.
	s, err := Smooth(adaptiveTrace(108, 1), Config{K: 1, H: 9, D: 0.2, Estimator: NearestTypeEstimator{}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := scheduleFingerprint(s), uint64(0xbfaf4e0c536d20ba); got != want {
		t.Errorf("adaptive nearest-type: schedule fingerprint %#x, want %#x (kernel arithmetic changed)", got, want)
	}
}

// TestCappedRateEnforcesCeiling: the cap binds on every picture, and
// when it forces the rate below the Theorem 1 lower bound, the schedule
// reports the violation instead of silently exceeding the ceiling. A
// policy that selects NaN is reported too, at every picture.
func TestCappedRateEnforcesCeiling(t *testing.T) {
	tr := paperTrace(t, 108)
	base, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, r := range base.Rates {
		if r > peak {
			peak = r
		}
	}

	// A cap above the uncapped peak changes nothing.
	loose, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2, Policy: CappedRate{Cap: peak * 2}})
	if err != nil {
		t.Fatal(err)
	}
	if scheduleFingerprint(loose) != scheduleFingerprint(base) {
		t.Error("cap above the peak altered the schedule")
	}
	if v := loose.PolicyViolations(); len(v) != 0 {
		t.Errorf("loose cap reported violations %v", v)
	}

	// A cap at 80% of the peak must bind: every rate at or below it.
	cap := peak * 0.8
	s, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2, Policy: CappedRate{Cap: cap}})
	if err != nil {
		t.Fatal(err)
	}
	for j, r := range s.Rates {
		if r > cap*(1+1e-12) {
			t.Fatalf("picture %d: rate %v exceeds cap %v", j, r, cap)
		}
	}
	// The binding cap forces delay-bound violations; the policy report
	// and the Theorem 1 checks must both account for them.
	viol := s.PolicyViolations()
	if len(viol) == 0 {
		t.Fatal("binding cap reported no policy violations")
	}
	if i := s.CheckRatesWithinBounds(); i == -1 {
		t.Error("binding cap but rates all within Theorem 1 bounds")
	} else if viol[0] != i {
		t.Errorf("first policy violation %d != first bound violation %d", viol[0], i)
	}
	if i := s.CheckDelayBound(); i == -1 {
		t.Error("cap forced rates below the lower bound but no delay violation surfaced")
	}
	// Bits are still conserved and service continuous: the cap degrades
	// delay, not correctness of transmission.
	if i := s.CheckConservation(); i != -1 {
		t.Errorf("conservation violated at %d under cap", i)
	}
	if i := s.CheckContinuousService(); i != -1 {
		t.Errorf("continuous service violated at %d under cap", i)
	}

	// NaN lies in no band and passes every comparison: the schedule
	// must still fail each Theorem 1 check, list every picture as a
	// policy violation, and be refused by Evaluate.
	ns, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2, Policy: nanPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if v := ns.PolicyViolations(); len(v) != tr.Len() {
		t.Errorf("NaN policy: %d of %d pictures are policy violations", len(v), tr.Len())
	}
	for _, c := range []struct {
		name  string
		check func() int
	}{
		{"delay bound", ns.CheckDelayBound},
		{"continuous service", ns.CheckContinuousService},
		{"rates within bounds", ns.CheckRatesWithinBounds},
		{"conservation", ns.CheckConservation},
		{"causality", ns.CheckCausality},
	} {
		if c.check() == -1 {
			t.Errorf("NaN policy passes the %s check", c.name)
		}
	}
	if m, err := ns.Evaluate(); err == nil {
		t.Errorf("NaN policy: Evaluate returned %+v and no error", m)
	}
	// Its peak and largest delay are NaN, not 0, offline and live; a
	// schedule with no NaN keeps the peak it always had.
	if p, d := ns.PeakRate(), ns.MaxDelay(); !math.IsNaN(p) || !math.IsNaN(d) {
		t.Errorf("NaN policy: peak %v, max delay %v; want NaN and NaN", p, d)
	}
	live, err := NewSession(tr.Tau, tr.GOP, Config{K: 1, H: 9, D: 0.2, Policy: nanPolicy{}}, WithLength(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range tr.Sizes {
		if _, err := live.Push(size); err != nil {
			t.Fatal(err)
		}
	}
	live.Close()
	if p := live.PeakRate(); !math.IsNaN(p) {
		t.Errorf("NaN policy: live Session peak %v, want NaN", p)
	}
	if math.Float64bits(base.PeakRate()) != math.Float64bits(peak) {
		t.Errorf("peak %v, want %v", base.PeakRate(), peak)
	}
}

// nanPolicy selects NaN for every picture.
type nanPolicy struct{}

func (nanPolicy) Name() string                   { return "nan" }
func (nanPolicy) Select(*Bounds, *State) float64 { return math.NaN() }

// TestCappedRateValidate rejects non-positive ceilings at Validate time.
func TestCappedRateValidate(t *testing.T) {
	tr := paperTrace(t, 27)
	for _, cap := range []float64{0, -1, math.Inf(1)} {
		if _, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2, Policy: CappedRate{Cap: cap}}); err == nil {
			t.Errorf("cap %v accepted", cap)
		}
	}
}

// TestMinimumVariability: band-centred selection stays within the
// Theorem 1 guarantees and keeps strictly positive slack to both
// accumulated bounds on normal exits (observed via the Session hook).
func TestMinimumVariability(t *testing.T) {
	tr := paperTrace(t, 108)
	cfg := Config{K: 1, H: 9, D: 0.2, Policy: MinimumVariability{}}
	s, err := Smooth(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, check := range []struct {
		name string
		f    func() int
	}{
		{"delay bound", s.CheckDelayBound},
		{"continuous service", s.CheckContinuousService},
		{"rates within bounds", s.CheckRatesWithinBounds},
		{"conservation", s.CheckConservation},
		{"causality", s.CheckCausality},
	} {
		if i := check.f(); i != -1 {
			t.Errorf("%s violated at picture %d", check.name, i)
		}
	}
	if v := s.PolicyViolations(); len(v) != 0 {
		t.Errorf("min-var reported violations %v", v)
	}
	// Compared to basic, centring trades more rate changes for a lower
	// standard deviation ceiling — at minimum it must remain feasible
	// and distinct.
	basic, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if scheduleFingerprint(basic) == scheduleFingerprint(s) {
		t.Error("min-var produced the basic schedule verbatim")
	}
}

// TestParsePolicy covers the flag grammar.
func TestParsePolicy(t *testing.T) {
	for spec, want := range map[string]string{
		"basic":          "basic",
		"moving":         "moving-average",
		"moving-average": "moving-average",
		"min-var":        "min-var",
		"capped:2.5e6":   "capped:2.5e+06(basic)",
		" Basic ":        "basic",
	} {
		p, err := ParsePolicy(spec)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", spec, err)
		}
		if p.Name() != want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", spec, p.Name(), want)
		}
	}
	for _, bad := range []string{"", "fastest", "capped:", "capped:-3", "capped:x"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
}
