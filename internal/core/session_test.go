package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpegsmooth/internal/mpeg"
)

// TestSessionRejectsInputBeforeMutating: a Push past the sequence end —
// after Close, or beyond a declared length — or with an invalid size,
// must fail before touching any session state — the regression guarded
// here is a rejected push perturbing drain state through a premature
// append.
func TestSessionRejectsInputBeforeMutating(t *testing.T) {
	gop := mpeg.GOP{M: 3, N: 9}
	for _, mode := range lengthModes {
		var opts []SessionOption
		if mode.declared {
			opts = append(opts, WithLength(20))
		}
		s, err := NewSession(1.0/30, gop, Config{K: 1, H: 9, D: 0.5}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Push(40_000 + int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Push(-5); err == nil {
			t.Fatalf("%s: negative size accepted", mode.name)
		}
		if got := s.Pushed(); got != 20 {
			t.Fatalf("%s: rejected size mutated state: Pushed = %d, want 20", mode.name, got)
		}
		if !mode.declared {
			s.Close()
		}
		if s.Pending() != 0 {
			t.Fatalf("%s: Pending at the sequence end = %d", mode.name, s.Pending())
		}
		if ds, err := s.Push(100); err == nil {
			t.Fatalf("%s: Push past the end accepted", mode.name)
		} else if ds != nil {
			t.Fatalf("%s: Push past the end returned decisions", mode.name)
		}
		if got := s.Pushed(); got != 20 {
			t.Fatalf("%s: Push past the end mutated state: Pushed = %d, want 20", mode.name, got)
		}
		// A Close after the rejected Push emits nothing new: the
		// rejected input left no trace in drain state.
		if extra := s.Close(); len(extra) != 0 {
			t.Fatalf("%s: Close after rejected Push emitted %d extra decisions", mode.name, len(extra))
		}
	}
}

// TestSessionChunkedPushMatchesSmooth drives a Session with randomized
// push chunk sizes in 1..H+K and asserts bit-for-bit agreement with the
// offline Smooth, in both length modes — the live/offline equivalence
// property extended to arbitrary arrival batching. (Chunking cannot
// change the result: drain emits a decision exactly when its inputs are
// determined, regardless of how many sizes arrived in one batch.)
func TestSessionChunkedPushMatchesSmooth(t *testing.T) {
	for _, mode := range lengthModes {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			tr := randomTrace(rng)
			cfg := randomConfig(rng, tr)
			if _, oracle := cfg.Estimator.(OracleEstimator); oracle && mode.declared {
				return true // offline-only: it needs sizes not yet pushed
			}
			var obs []Observation
			s, err := liveSession(tr, cfg, mode.declared, &obs)
			if err != nil {
				return false
			}
			var live []Decision
			for i := 0; i < tr.Len(); {
				chunk := rng.Intn(cfg.H+cfg.K) + 1 // 1..H+K
				for c := 0; c < chunk && i < tr.Len(); c++ {
					ds, err := s.Push(tr.Sizes[i])
					if err != nil {
						return false
					}
					live = append(live, ds...)
					i++
				}
			}
			live = append(live, s.Close()...)
			if err := matchesOffline(tr, cfg, live, obs); err != nil {
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

// TestSessionObserver: the hook fires once per decision, in order, with
// slack and depth consistent with the emitted decisions. With a
// declared length it trails the decisions, but by Close it has
// reported exactly what the offline run reports.
func TestSessionObserver(t *testing.T) {
	tr := paperTrace(t, 108)
	cfg := Config{K: 1, H: 9, D: 0.2}
	for _, mode := range lengthModes {
		var obs []Observation
		s, err := liveSession(tr, cfg, mode.declared, &obs)
		if err != nil {
			t.Fatal(err)
		}
		var ds []Decision
		for _, sz := range tr.Sizes {
			out, err := s.Push(sz)
			if err != nil {
				t.Fatal(err)
			}
			ds = append(ds, out...)
			if len(obs) > len(ds) {
				t.Fatalf("%s: %d observations ahead of %d decisions", mode.name, len(obs), len(ds))
			}
			if !mode.declared && len(obs) != len(ds) {
				t.Fatalf("%s: %d observations behind %d decisions", mode.name, len(obs), len(ds))
			}
		}
		ds = append(ds, s.Close()...)
		if len(obs) != len(ds) || len(obs) != tr.Len() {
			t.Fatalf("%s: %d observations for %d decisions (%d pictures)", mode.name, len(obs), len(ds), tr.Len())
		}
		if err := matchesOffline(tr, cfg, ds, obs); err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		for i, o := range obs {
			d := ds[i]
			if o.Picture != i || o.Rate != d.Rate {
				t.Fatalf("%s observation %d: picture %d rate %v, decision picture %d rate %v",
					mode.name, i, o.Picture, o.Rate, d.Picture, d.Rate)
			}
			if o.Depth < 1 || o.Depth > 9 {
				t.Fatalf("%s picture %d: lookahead depth %d outside 1..H", mode.name, i, o.Depth)
			}
			// K=1 keeps every decision within the band: non-negative slack.
			if o.LowerSlack < 0 || o.UpperSlack < 0 {
				t.Fatalf("%s picture %d: negative slack (%v, %v)", mode.name, i, o.LowerSlack, o.UpperSlack)
			}
			if got := d.Rate - d.Lower; got != o.LowerSlack {
				t.Fatalf("%s picture %d: slack mismatch %v != %v", mode.name, i, got, o.LowerSlack)
			}
		}
		// The estimator is imperfect on a real trace: some window must show
		// a nonzero estimation error.
		anyErr := false
		for _, o := range obs {
			if o.EstimatorError != 0 {
				anyErr = true
				break
			}
		}
		if !anyErr {
			t.Errorf("%s: no decision observed a nonzero estimator error", mode.name)
		}
	}
}

// TestSessionObserverSeesCapViolations: under a binding cap the observer
// reports negative lower slack exactly where the schedule reports policy
// violations.
func TestSessionObserverSeesCapViolations(t *testing.T) {
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
	cfg := Config{K: 1, H: 9, D: 0.2, Policy: CappedRate{Cap: peak * 0.8}}
	var negative []int
	sched, err := SmoothObserved(tr, cfg, func(o Observation) {
		if o.LowerSlack < 0 {
			negative = append(negative, o.Picture)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(negative) == 0 {
		t.Fatal("binding cap but observer saw no negative slack")
	}
	if len(sched.PolicyViolations()) == 0 {
		t.Fatal("binding cap but schedule reports no violations")
	}
}

// TestSessionPeakRateMatchesSchedule: the Session's running peak — the
// traffic descriptor a smoothd admission controller reserves — is
// monotone during the stream and ends exactly at the offline schedule's
// PeakRate.
func TestSessionPeakRateMatchesSchedule(t *testing.T) {
	tr := paperTrace(t, 54)
	sched, err := Smooth(tr, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(tr.Tau, tr.GOP, Config{K: 1, H: 9, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if s.PeakRate() != 0 {
		t.Fatalf("peak before any decision: %v", s.PeakRate())
	}
	prev := 0.0
	for _, size := range tr.Sizes {
		if _, err := s.Push(size); err != nil {
			t.Fatal(err)
		}
		if s.PeakRate() < prev {
			t.Fatalf("peak decreased: %v -> %v", prev, s.PeakRate())
		}
		prev = s.PeakRate()
	}
	s.Close()
	if got, want := s.PeakRate(), sched.PeakRate(); got != want {
		t.Fatalf("session peak %v, schedule peak %v", got, want)
	}
	// And the schedule's peak really is the max of its rates.
	max := 0.0
	for _, r := range sched.Rates {
		if r > max {
			max = r
		}
	}
	if sched.PeakRate() != max {
		t.Fatalf("PeakRate %v, max rate %v", sched.PeakRate(), max)
	}
}

// sizeHistory keeps TestKernelAllocs' reference slice on the heap, as a
// Session's size history is.
var sizeHistory []int64

// TestKernelAllocs pins the kernel's allocations. Smooth and Evaluate
// each allocate the same number of times whatever the trace's length,
// Evaluate at most three times (its two step functions and the ideal's
// starts and rates), and a Session with a declared length allocates at
// most once per Push, on average: the decisions it returns, plus the
// occasional growth of its size prefix. Pushed with AppendPush into one
// reused slice, as smoothd's ingest does, a whole stream allocates a
// constant number of times plus the growth of its size history,
// whatever its length. A View, Bounds, State or Decision that escaped
// to the heap would cost an allocation per decision and fail the
// Smooth, Push and AppendPush checks; an Evaluate that built ideal
// smoothing's Schedule again would fail its ceiling.
func TestKernelAllocs(t *testing.T) {
	var smooths, evals, streams []float64
	for _, n := range []int{54, 270, 1080} {
		tr := paperTrace(t, n)
		cfg := Config{K: 1, H: tr.GOP.N, D: 0.2}
		stream := testing.AllocsPerRun(3, func() {
			s, err := NewSession(tr.Tau, tr.GOP, cfg, WithLength(n))
			if err != nil {
				t.Fatal(err)
			}
			var decs []Decision
			for _, size := range tr.Sizes {
				if decs, err = s.AppendPush(decs[:0], size); err != nil {
					t.Fatal(err)
				}
			}
		})
		history := testing.AllocsPerRun(3, func() {
			var sizes []int64
			for _, size := range tr.Sizes {
				sizes = append(sizes, size)
			}
			sizeHistory = sizes
		})
		streams = append(streams, stream-history)
		smooths = append(smooths, testing.AllocsPerRun(5, func() {
			if _, err := Smooth(tr, cfg); err != nil {
				t.Fatal(err)
			}
		}))
		sched, err := Smooth(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		evals = append(evals, testing.AllocsPerRun(5, func() {
			if _, err := sched.Evaluate(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if smooths[0] != smooths[1] || smooths[1] != smooths[2] {
		t.Errorf("Smooth allocations at 54, 270 and 1080 pictures: %v, want one count", smooths)
	}
	if evals[0] != evals[1] || evals[1] != evals[2] || evals[0] > 3 {
		t.Errorf("Evaluate allocations at 54, 270 and 1080 pictures: %v, want one count of at most 3", evals)
	}
	if streams[0] != streams[1] || streams[1] != streams[2] {
		t.Errorf("AppendPush stream allocations beyond its size history at 54, 270 and 1080 pictures: %v, want one count", streams)
	}

	tr := paperTrace(t, 270)
	cfg := Config{K: 1, H: tr.GOP.N, D: 0.2}
	s, err := NewSession(tr.Tau, tr.GOP, cfg, WithLength(tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	// AllocsPerRun makes one warm-up call before its runs: every
	// picture is pushed once.
	perPush := testing.AllocsPerRun(tr.Len()-1, func() {
		if _, err := s.Push(tr.Sizes[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if perPush > 1 {
		t.Errorf("declared-length Push allocates %v times per call, want at most 1", perPush)
	}

	// A declared-length stream closed one picture short leaves several
	// pictures undecided; Close decides them all into one presized
	// slice. Each run closes its own Session, AllocsPerRun's warm-up
	// included.
	closers := make([]*Session, 6)
	for i := range closers {
		s, err := NewSession(tr.Tau, tr.GOP, cfg, WithLength(tr.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range tr.Sizes[:tr.Len()-1] {
			if _, err := s.Push(size); err != nil {
				t.Fatal(err)
			}
		}
		if s.Pending() < 2 {
			t.Fatalf("%d pictures pending before Close, want several", s.Pending())
		}
		closers[i] = s
	}
	next = 0
	perClose := testing.AllocsPerRun(len(closers)-1, func() {
		closers[next].Close()
		next++
	})
	if perClose > 1 {
		t.Errorf("declared-length Close allocates %v times, want at most 1", perClose)
	}
}

// typeRecorder is the pattern estimator, recording the type its View
// gives each picture it estimates.
type typeRecorder struct {
	PatternEstimator
	seen map[int]mpeg.PictureType
}

func (r *typeRecorder) Estimate(j int, v *View) int64 {
	r.seen[j] = v.Type(j)
	return r.PatternEstimator.Estimate(j, v)
}

// TestSessionTypeOffset: a Session that starts at picture base of a
// trace, mid-pattern, shows its estimator each picture's type as the
// trace has it when WithTypeOffset(base) numbers the types. Without the
// offset the estimator reads picture base as the pattern's I picture.
func TestSessionTypeOffset(t *testing.T) {
	tr := paperTrace(t, 54)
	for _, base := range []int{0, 7, 13} {
		for _, offset := range []bool{true, false} {
			rec := &typeRecorder{seen: map[int]mpeg.PictureType{}}
			var opts []SessionOption
			if offset {
				opts = append(opts, WithTypeOffset(base))
			}
			sess, err := NewSession(tr.Tau, tr.GOP, Config{K: 1, H: tr.GOP.N, D: 0.2, Estimator: rec},
				append(opts, WithLength(tr.Len()-base))...)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range tr.Sizes[base:] {
				if _, err := sess.Push(size); err != nil {
					t.Fatal(err)
				}
			}
			sess.Close()
			if len(rec.seen) == 0 {
				t.Fatal("the estimator estimated nothing")
			}
			wrong := 0
			for j, ty := range rec.seen {
				if ty != tr.TypeOf(base+j) {
					wrong++
				}
			}
			if want := offset || base%tr.GOP.N == 0; (wrong == 0) != want {
				t.Errorf("start %d, offset %v: %d of %d estimated pictures read the wrong type", base, offset, wrong, len(rec.seen))
			}
		}
	}
}
