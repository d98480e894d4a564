package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpegsmooth/internal/mpeg"
	"mpegsmooth/internal/trace"
)

// liveSession builds a Session for tr whose observer collects into
// *obs, declaring tr's length when declared is set.
func liveSession(tr *trace.Trace, cfg Config, declared bool, obs *[]Observation) (*Session, error) {
	opts := []SessionOption{WithObserver(func(o Observation) { *obs = append(*obs, o) })}
	if declared {
		opts = append(opts, WithLength(tr.Len()))
	}
	return NewSession(tr.Tau, tr.GOP, cfg, opts...)
}

// runLive pushes tr through a live Session one picture at a time and
// gathers every decision and observation.
func runLive(tr *trace.Trace, cfg Config, declared bool) ([]Decision, []Observation, error) {
	var obs []Observation
	s, err := liveSession(tr, cfg, declared, &obs)
	if err != nil {
		return nil, nil, err
	}
	var out []Decision
	for _, size := range tr.Sizes {
		ds, err := s.Push(size)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, ds...)
	}
	return append(out, s.Close()...), obs, nil
}

// matchesOffline returns the first difference between a live run's
// decisions and observations and those of Smooth's own offline run —
// every field, the estimator error included — or nil.
func matchesOffline(tr *trace.Trace, cfg Config, live []Decision, obs []Observation) error {
	var wantObs []Observation
	sess, err := newTraceSession(tr, cfg, WithObserver(func(o Observation) { wantObs = append(wantObs, o) }))
	if err != nil {
		return err
	}
	var want []Decision
	sess.runAll(tr.Sizes, func(d *Decision) { want = append(want, *d) })
	if len(live) != len(want) || len(obs) != len(wantObs) {
		return fmt.Errorf("%d decisions and %d observations, want %d and %d",
			len(live), len(obs), len(want), len(wantObs))
	}
	for i := range want {
		if live[i] != want[i] {
			return fmt.Errorf("decision %d: live %+v, offline %+v", i, live[i], want[i])
		}
		if obs[i] != wantObs[i] {
			return fmt.Errorf("observation %d: live %+v, offline %+v", i, obs[i], wantObs[i])
		}
	}
	return nil
}

// lengthModes are the two ways a live Session learns where a sequence
// ends: at Close, or from a declared length.
var lengthModes = []struct {
	name     string
	declared bool
}{{"closed", false}, {"declared", true}}

// TestLiveMatchesOffline: the incremental smoother must produce exactly
// the offline schedule, decision for decision and observation for
// observation, whether or not it knows the sequence length up front.
func TestLiveMatchesOffline(t *testing.T) {
	tr := paperTrace(t, 270)
	for _, mode := range lengthModes {
		for _, cfg := range []Config{
			{K: 1, H: 9, D: 0.2},
			{K: 1, H: 9, D: 0.1},
			{K: 3, H: 18, D: 0.25},
			{K: 9, H: 9, D: 0.1333 + 10.0/30},
			{K: 1, H: 1, D: 0.0667},
			{K: 1, H: 9, D: 0.2, Policy: MovingAveragePolicy{}},
			{K: 1, H: 9, D: 0.2, Estimator: TypeMeanEstimator{}},
		} {
			offline, err := Smooth(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			live, obs, err := runLive(tr, cfg, mode.declared)
			if err != nil {
				t.Fatal(err)
			}
			if err := matchesOffline(tr, cfg, live, obs); err != nil {
				t.Fatalf("%s %+v: %v", mode.name, cfg, err)
			}
			for i, d := range live {
				if d.Picture != i || d.Rate != offline.Rates[i] || d.Start != offline.Start[i] ||
					d.Depart != offline.Depart[i] || d.Delay != offline.Delays[i] {
					t.Fatalf("%s %+v picture %d: live (r=%v t=%v d=%v) != Smooth (r=%v t=%v d=%v)",
						mode.name, cfg, i, d.Rate, d.Start, d.Depart,
						offline.Rates[i], offline.Start[i], offline.Depart[i])
				}
			}
		}
	}
}

// TestLiveMatchesOfflineProperty extends the equivalence to random
// traces and configurations, in both length modes. OracleEstimator
// needs sizes that are not pushed yet, so it is offline-only and is
// skipped with a declared length.
func TestLiveMatchesOfflineProperty(t *testing.T) {
	for _, mode := range lengthModes {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tr := randomTrace(rng)
			cfg := randomConfig(rng, tr)
			if _, oracle := cfg.Estimator.(OracleEstimator); oracle && mode.declared {
				return true
			}
			live, obs, err := runLive(tr, cfg, mode.declared)
			if err == nil {
				err = matchesOffline(tr, cfg, live, obs)
			}
			if err != nil {
				t.Logf("%s seed %d cfg %+v: %v", mode.name, seed, cfg, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
	}
}

// TestDeclaredLengthDecidesByStart: with a declared length, each
// decision is returned by the push of a picture that had arrived by
// the decision's own start time t_j — the Session never makes the
// sender's schedule wait for lookahead pictures it only estimates.
func TestDeclaredLengthDecidesByStart(t *testing.T) {
	gens := []func(int, int64) (*trace.Trace, error){trace.Driving1, trace.Driving2, trace.Tennis, trace.Backyard}
	for _, gen := range gens {
		tr, err := gen(270, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := tr.GOP.N
		for _, cfg := range []Config{
			{K: 1, H: n, D: 0.2},
			{K: 1, H: n, D: 0.1},
			{K: 3, H: 2 * n, D: 0.25},
		} {
			s, err := NewSession(tr.Tau, tr.GOP, cfg, WithLength(tr.Len()))
			if err != nil {
				t.Fatal(err)
			}
			for p, size := range tr.Sizes {
				ds, err := s.Push(size)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range ds {
					if arrived := float64(p+1) * tr.Tau; arrived > d.Start {
						t.Fatalf("%s %+v: picture %d (start %.4f s) decided at the push of picture %d, which arrives at %.4f s",
							tr.Name, cfg, d.Picture, d.Start, p, arrived)
					}
				}
			}
			if ds := s.Close(); len(ds) != 0 {
				t.Fatalf("%s %+v: %d decisions waited for Close", tr.Name, cfg, len(ds))
			}
		}
	}
}

// TestDeclaredLengthClosedShort: a declared length does not oblige the
// sender to reach it. Declared 30 and closed after 25, every picture is
// decided within its bound and every observation delivered.
func TestDeclaredLengthClosedShort(t *testing.T) {
	tr := paperTrace(t, 30)
	cfg := Config{K: 1, H: 9, D: 0.2}
	var obs []Observation
	s, err := liveSession(tr, cfg, true, &obs)
	if err != nil {
		t.Fatal(err)
	}
	var ds []Decision
	for _, size := range tr.Sizes[:25] {
		out, err := s.Push(size)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, out...)
	}
	ds = append(ds, s.Close()...)
	if len(ds) != 25 || len(obs) != 25 {
		t.Fatalf("%d decisions and %d observations for 25 pictures", len(ds), len(obs))
	}
	for i, d := range ds {
		if d.Picture != i || obs[i].Picture != i || d.Delay > cfg.D+1e-9 {
			t.Fatalf("picture %d: decision %+v, observation %+v", i, d, obs[i])
		}
	}
}

func TestLiveEmitsEagerly(t *testing.T) {
	// With K=1 and H=1, a decision for picture j should be available
	// shortly after picture j (plus whatever the view horizon needs) —
	// NOT only at Close.
	gop := mpeg.GOP{M: 3, N: 9}
	ls, err := NewSession(1.0/30, gop, Config{K: 1, H: 1, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	for i := 0; i < 90; i++ {
		ds, err := ls.Push(30_000)
		if err != nil {
			t.Fatal(err)
		}
		emitted += len(ds)
	}
	if emitted < 80 {
		t.Fatalf("only %d of 90 decisions emitted before Close", emitted)
	}
	rest := ls.Close()
	if emitted+len(rest) != 90 {
		t.Fatalf("total decisions %d, want 90", emitted+len(rest))
	}
}

func TestLiveValidation(t *testing.T) {
	gop := mpeg.GOP{M: 3, N: 9}
	if _, err := NewSession(0, gop, Config{K: 1, H: 9, D: 0.2}); err == nil {
		t.Error("zero tau should fail")
	}
	for _, tau := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, k := range []int{0, 1} {
			if _, err := NewSession(tau, gop, Config{K: k, H: 9, D: 0.2}); err == nil {
				t.Errorf("tau %v with K = %d should fail", tau, k)
			}
		}
	}
	for _, d := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := NewSession(1.0/30, gop, Config{K: 1, H: 9, D: d}); err == nil {
			t.Errorf("D = %v should fail", d)
		}
	}
	if _, err := NewSession(1.0/30, mpeg.GOP{M: 3, N: 10}, Config{K: 1, H: 9, D: 0.2}); err == nil {
		t.Error("bad GOP should fail")
	}
	if _, err := NewSession(1.0/30, gop, Config{K: 1, H: 0, D: 0.2}); err == nil {
		t.Error("bad config should fail")
	}
	ls, err := NewSession(1.0/30, gop, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Push(0); err == nil {
		t.Error("zero size should fail")
	}
	ls.Close()
	if _, err := ls.Push(100); err == nil {
		t.Error("Push after Close should fail")
	}
	// Close is idempotent.
	if extra := ls.Close(); len(extra) != 0 {
		t.Error("second Close emitted decisions")
	}
}

func TestLiveAccessors(t *testing.T) {
	gop := mpeg.GOP{M: 3, N: 9}
	ls, err := NewSession(1.0/30, gop, Config{K: 1, H: 9, D: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := ls.Push(50_000); err != nil {
			t.Fatal(err)
		}
	}
	if ls.Pushed() != 5 {
		t.Fatalf("Pushed = %d", ls.Pushed())
	}
	if ls.Pending() < 0 || ls.Pending() > 5 {
		t.Fatalf("Pending = %d", ls.Pending())
	}
	ls.Close()
	if ls.Pending() != 0 {
		t.Fatalf("Pending after Close = %d", ls.Pending())
	}
}

func BenchmarkLivePush(b *testing.B) {
	gop := mpeg.GOP{M: 3, N: 9}
	tr := paperTrace(b, 270)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls, err := NewSession(tr.Tau, gop, Config{K: 1, H: 9, D: 0.2})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range tr.Sizes {
			if _, err := ls.Push(s); err != nil {
				b.Fatal(err)
			}
		}
		ls.Close()
	}
}
