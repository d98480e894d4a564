package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mpegsmooth"
	"mpegsmooth/internal/core"
	"mpegsmooth/internal/metrics"
	"mpegsmooth/internal/netsim"
	"mpegsmooth/internal/trace"
)

// goldenDigest is offline_mux's digest, at seed 1, of every smoothed rate
// and of the multiplexer's statistics over them: a change that alters
// what the kernel or the simulator computes fails the run instead of
// looking faster.
const goldenDigest = 0x4770e9c3bd48790c

// The offline workload: the paper's four sequences at eight seeds each,
// multiplexed onto a link at 1.1 times their summed mean rate with a
// 100-cell buffer.
const (
	offlineSeeds  = 8
	offlineLoad   = 1.1
	offlineBuffer = 100
)

var paperSeqs = []seqFunc{trace.Driving1, trace.Driving2, trace.Tennis, trace.Backyard}

// offlineRig runs the paper's algorithm and its multiplexing experiment
// with no I/O, on two goroutines: one passes the traces through the
// kernel over and over, the other multiplexes the kernel's latest
// output. The kernel stage carries the end-to-end metrics; the
// simulator's cell-level run is reported per layer, because on a shared
// host its speed swings by a third from one minute to the next while
// the kernel's holds within a few percent.
type offlineRig struct {
	in      *inputs
	offsets []float64
	link    float64
	t       *tracer
	seed    int64

	stopCh chan struct{}
	wg     sync.WaitGroup
	latest atomic.Pointer[kernelPass] // the kernel's most recent full pass

	base          time.Time // op records count time from here
	mu            sync.Mutex
	ops           []opRecord
	muxRuns       int
	errs          []string
	rateSum       uint64 // digest of the first pass's rates
	muxSum        uint64 // digest of the first multiplexer run
	goldenChecked bool
}

// offlineOp is one trace through the kernel: smooth, verify, evaluate.
type offlineOp struct {
	start, end time.Time
	survived   int // pictures whose smoothed delay is within D
	err        error
}

// opRecord is what the benchmark keeps of one kernel op. It is compact
// because a run keeps a few hundred thousand, and the process's memory
// is a metric.
type opRecord struct {
	end      int64   // ns since the rig's base
	dur, gap float32 // ms; gap is generator time since the previous op
	tpl      uint16  // the trace, by template index
	survived uint16
	failed   bool
}

// in reports whether the record's end falls in w.
func (r *offlineRig) within(op opRecord, w window) bool {
	at := r.base.Add(time.Duration(op.end))
	return !at.Before(w.from) && at.Before(w.to)
}

// kernelPass is one pass of every trace through the kernel.
type kernelPass struct {
	rates  []*metrics.StepFunc
	digest uint64
}

func setupOffline(o options, _ string, t *tracer) (rig, error) {
	in, err := makeInputs(o.seed, paperSeqs, len(paperSeqs)*offlineSeeds, 270)
	if err != nil {
		return nil, err
	}
	r := &offlineRig{in: in, t: t, seed: o.seed, stopCh: make(chan struct{}), base: time.Now()}
	for i, tpl := range in.tpls {
		r.offsets = append(r.offsets, in.offset(i))
		r.link += tpl.tr.MeanRate()
	}
	r.link *= offlineLoad
	return r, nil
}

func (r *offlineRig) start() {
	r.wg.Add(2)
	go r.kernelLoop()
	go r.muxLoop()
}

func (r *offlineRig) stop() {
	close(r.stopCh)
	r.wg.Wait()
}

func (r *offlineRig) stopped() bool {
	select {
	case <-r.stopCh:
		return true
	default:
		return false
	}
}

// kernelLoop passes every trace through core.Smooth, Verify and
// Evaluate, over and over, publishing each pass's rate functions.
func (r *offlineRig) kernelLoop() {
	defer r.wg.Done()
	last := time.Now()
	for !r.stopped() {
		pass := &kernelPass{rates: make([]*metrics.StepFunc, len(r.in.tpls))}
		h := fnv.New64a()
		ops := make([]opRecord, 0, len(r.in.tpls))
		ok := true
		for i, tpl := range r.in.tpls {
			op, sched, rf := r.kernel(tpl)
			ops = append(ops, opRecord{
				end:      int64(op.end.Sub(r.base)),
				dur:      float32(op.end.Sub(op.start)) / 1e6,
				gap:      float32(op.start.Sub(last)) / 1e6,
				tpl:      uint16(i),
				survived: uint16(op.survived),
				failed:   op.err != nil,
			})
			last = op.end
			if op.err != nil {
				r.fail("%s: %v", tpl.tr.Name, op.err)
				ok = false
				break
			}
			pass.rates[i] = rf
			for _, rate := range sched.Rates {
				putUint64(h, math.Float64bits(rate))
			}
		}
		pass.digest = h.Sum64()
		r.mu.Lock()
		r.ops = append(r.ops, ops...)
		if !ok {
			r.mu.Unlock()
			continue
		}
		if r.rateSum == 0 {
			r.rateSum = pass.digest
		} else if pass.digest != r.rateSum {
			r.errs = append(r.errs, fmt.Sprintf("offline: pass rate digest %#x differs from the first, %#x", pass.digest, r.rateSum))
		}
		r.mu.Unlock()
		r.latest.Store(pass)
	}
}

// kernel runs one trace through core.Smooth, Verify and Evaluate.
func (r *offlineRig) kernel(tpl *template) (offlineOp, *core.Schedule, *metrics.StepFunc) {
	tr := tpl.tr
	op := offlineOp{start: time.Now()}
	sched, err := core.Smooth(tr, smoothConfig(tr))
	t1 := time.Now()
	if err != nil {
		op.err = err
		op.end = t1
		return op, nil, nil
	}
	op.err = mpegsmooth.Verify(sched)
	t2 := time.Now()
	if op.err == nil {
		_, op.err = mpegsmooth.Evaluate(sched)
	}
	op.end = time.Now()
	if r.t.enabled() {
		n := float64(tr.Len())
		r.t.span("core.smooth", 0, 0, -1, op.start, t1, n)
		r.t.span("core.verify", 0, 0, -1, t1, t2, n)
		r.t.span("metrics.evaluate", 0, 0, -1, t2, op.end, n)
	}
	for _, d := range sched.Delays {
		if d <= paramD+1e-9 {
			op.survived++
		}
	}
	rf, err := sched.RateFunc()
	if op.err == nil {
		op.err = err
	}
	return op, sched, rf
}

// muxLoop multiplexes the kernel's latest rate functions, over and over.
func (r *offlineRig) muxLoop() {
	defer r.wg.Done()
	for !r.stopped() {
		pass := r.latest.Load()
		if pass == nil {
			time.Sleep(time.Millisecond)
			continue
		}
		start := time.Now()
		res, err := netsim.RunDetailed(netsim.RunConfig{
			Rates: pass.rates, Offsets: r.offsets, LinkRate: r.link, BufferCells: offlineBuffer,
		})
		if err != nil {
			r.fail("multiplexer: %v", err)
			return
		}
		if r.t.enabled() {
			r.t.span("netsim.run", 0, 0, -1, start, time.Now(), float64(res.Arrived))
		}
		d := muxDigest(res)
		r.mu.Lock()
		r.muxRuns++
		switch {
		case r.muxSum == 0:
			r.muxSum = d
		case d != r.muxSum:
			r.errs = append(r.errs, fmt.Sprintf("offline: multiplexer digest %#x differs from the first, %#x", d, r.muxSum))
		}
		if r.seed == 1 && !r.goldenChecked {
			r.goldenChecked = true
			if got := r.rateSum ^ r.muxSum; got != goldenDigest {
				r.errs = append(r.errs, fmt.Sprintf("offline: seed 1 digest %#x, golden %#x", got, uint64(goldenDigest)))
			}
		}
		r.mu.Unlock()
	}
}

func putUint64(h interface{ Write([]byte) (int, error) }, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// muxDigest hashes the multiplexer's outcome.
func muxDigest(res netsim.RunResult) uint64 {
	h := fnv.New64a()
	for _, v := range []int64{res.Arrived, res.Served, res.Lost, int64(res.MaxQueue)} {
		putUint64(h, uint64(v))
	}
	for _, src := range res.Sources {
		putUint64(h, uint64(src.Emitted))
		putUint64(h, uint64(src.Lost))
	}
	return h.Sum64()
}

func (r *offlineRig) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf("offline: "+format, args...))
	}
}

func (r *offlineRig) endToEnd(w window) e2e {
	r.mu.Lock()
	defer r.mu.Unlock()
	var m e2e
	for _, op := range r.ops {
		if !r.within(op, w) {
			continue
		}
		m.attempted++
		m.pictures += float64(r.in.tpls[op.tpl].tr.Len())
		if op.failed {
			m.failed++
			continue
		}
		m.latency = append(m.latency, float64(op.dur))
		m.survived += float64(op.survived)
	}
	return m
}

// delivered is the trace data the kernel finished within w.
func (r *offlineRig) delivered(w window) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	bytes := 0.0
	for _, op := range r.ops {
		if !op.failed && r.within(op, w) {
			bytes += float64(r.in.tpls[op.tpl].bytes())
		}
	}
	return bytes
}

func (r *offlineRig) counters() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	pics := 0.0
	for _, op := range r.ops {
		pics += float64(r.in.tpls[op.tpl].tr.Len())
	}
	return map[string]float64{"pictures": pics}
}

func (r *offlineRig) poll(stop <-chan struct{}) float64 {
	<-stop
	return 0
}

func (r *offlineRig) layers(w window, _ func(string) float64, _ float64) map[string]float64 {
	r.mu.Lock()
	var gaps []float64
	for _, op := range r.ops {
		if r.within(op, w) {
			gaps = append(gaps, float64(op.gap))
		}
	}
	r.mu.Unlock()
	per := func(name string) float64 {
		tm := r.t.timing(name)
		return ratio(tm.total, tm.units)
	}
	return map[string]float64{
		"loadgen.lag_p99_ms":              percentile(gaps, 0.99).Value,
		"core.verify_ns_per_picture":      per("core.verify"),
		"metrics.evaluate_ns_per_picture": per("metrics.evaluate"),
		"netsim.ns_per_cell":              per("netsim.run"),
	}
}

func (r *offlineRig) check() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	errs := append([]string(nil), r.errs...)
	if r.muxRuns == 0 {
		errs = append(errs, "offline: no multiplexer run completed")
	}
	return errs
}

func (r *offlineRig) close() {}
