// Command bench runs one seeded workload against the real smoothd
// server, cluster, transport, journal, smoothing kernel and multiplexing
// simulator, all in-process on loopback, and prints every metric by name
// with its unit:
//
//	bash bench/run.sh --workload ingest_journal --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set, measured untraced; with --trace 1 they are the
// per-layer set, measured in the second half of the window with every
// layer boundary traced (the first half, untraced, gives the tracing
// overhead). A failed correctness gate prints "correct": false and
// exits 1; a run that cannot be measured exits 2 without a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mpegsmooth/internal/trace"
)

// workloads maps each workload name to the function that builds its
// inputs and system under test in a directory. README.md says why each
// exists.
var workloads = map[string]func(o options, dir string, t *tracer) (rig, error){
	"ingest_journal": serverWorkload(serverSpec{
		seqs: []seqFunc{trace.Driving1}, templates: 8, pictures: 270,
		timeScale: 1e6, journal: true,
	}),
	"churn_quorum2": serverWorkload(serverSpec{
		seqs: []seqFunc{trace.Backyard}, templates: 8, pictures: 12,
		timeScale: 1e6, cluster: true,
	}),
	"live_paced": serverWorkload(serverSpec{
		seqs: paperSeqs, templates: 8, pictures: 270,
		timeScale: 20, period: 500 * time.Millisecond, lead: 20 * time.Millisecond, journal: true,
	}),
	"datagram_lossy": serverWorkload(serverSpec{
		seqs: []seqFunc{trace.Driving1}, templates: 4, pictures: 270,
		timeScale: 4, period: 2500 * time.Millisecond, lead: 100 * time.Millisecond, datagram: true,
	}),
	"offline_mux": setupOffline,
}

func serverWorkload(spec serverSpec) func(options, string, *tracer) (rig, error) {
	return func(o options, dir string, t *tracer) (rig, error) { return setupServer(spec, o, dir, t) }
}

// metricDef names one metric, its unit, and (per-layer) the workloads
// whose path crosses the layer; elsewhere it reads 0.
type metricDef struct {
	name, unit string
	on         string
}

const (
	allWorkloads = "ingest_journal churn_quorum2 live_paced datagram_lossy offline_mux"
	servers      = "ingest_journal churn_quorum2 live_paced datagram_lossy"
	standalone   = "ingest_journal live_paced datagram_lossy"
	journaled    = "ingest_journal churn_quorum2 live_paced"
)

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "rss_mb", unit: "MB"},
	{name: "throughput_mb_s", unit: "MB/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "deadline_survival", unit: "share"},
}

var perLayer = []metricDef{
	{"latency_p90_ms", "ms", allWorkloads},
	{"latency_p99_ms", "ms", allWorkloads},
	{"loadgen.lag_p99_ms", "ms", allWorkloads},
	{"core.smooth_ns_per_picture", "ns/picture", allWorkloads},
	{"runtime.allocs_per_picture", "count", allWorkloads},
	{"runtime.gc_cpu_fraction", "share", allWorkloads},
	{"trace.overhead_share", "share", allWorkloads},
	{"transport.verdict_p50_us", "us/verdict", servers},
	{"transport.verdict_p99_us", "us/verdict", servers},
	{"transport.picture_write_p50_us", "us/picture", servers},
	{"transport.end_ack_p50_us", "us/ack", servers},
	{"transport.dg_retransmits_per_kpkt", "1/kpkt", "datagram_lossy"},
	{"transport.dg_fast_share", "share", "datagram_lossy"},
	{"faultnet.drops_per_kpkt", "1/kpkt", "datagram_lossy"},
	{"server.read_wait_share", "share", standalone},
	{"server.busy_us_per_picture", "us/picture", standalone},
	{"server.verdict_p50_us", "us/verdict", standalone},
	{"server.ack_p50_us", "us/ack", standalone},
	{"egress.writes_per_picture", "count", servers},
	{"egress.start_lateness_p50_ms", "ms/picture", "live_paced datagram_lossy"},
	{"egress.start_lateness_p99_ms", "ms/picture", "live_paced datagram_lossy"},
	{"journal.fsync_p50_us", "us/fsync", journaled},
	{"journal.fsync_p99_us", "us/fsync", journaled},
	{"journal.fsyncs_per_session", "count", journaled},
	{"journal.records_per_batch", "count", journaled},
	{"journal.commit_mean_us", "us/batch", journaled},
	{"journal.bytes_per_picture", "B/picture", journaled},
	{"cluster.follower_fsync_p50_us", "us/fsync", "churn_quorum2"},
	{"cluster.ack_lag_records_max", "count", "churn_quorum2"},
	{"cluster.repl_records_per_session", "count", "churn_quorum2"},
	{"core.verify_ns_per_picture", "ns/picture", "offline_mux"},
	{"metrics.evaluate_ns_per_picture", "ns/picture", "offline_mux"},
	{"netsim.ns_per_cell", "ns/cell", "offline_mux"},
}

func (d metricDef) applies(workload string) bool {
	for _, w := range strings.Fields(d.on) {
		if w == workload {
			return true
		}
	}
	return false
}

// setupRepeats is how many times a run builds its system; setup_s is the
// median, the others are torn down.
const setupRepeats = 9

// warmup is the untimed load offered before the measured window, the
// same on every run so that two runs being compared differ only in code.
const warmup = 2 * time.Second

type options struct {
	workload string
	seed     int64
	window   time.Duration
	warmup   time.Duration // warmup, or 0 in the smoke test
	setups   int           // setupRepeats, or 1 in the smoke test
	trace    bool
	dir      string // for journals, and the span file
}

// window is a measurement interval [from, to).
type window struct{ from, to time.Time }

// e2e is what a rig measured over one window.
type e2e struct {
	attempted, failed  int
	latency            []float64 // ms, per operation (per picture in an open loop)
	pictures, survived float64
}

// rig is a running workload: its system under test and load generator.
type rig interface {
	// start begins offering load; stop ends it and waits for in-flight
	// operations to finish.
	start()
	stop()
	// counters returns cumulative counts, read at window edges.
	counters() map[string]float64
	// poll samples the system until stop closes, during the traced
	// window, and returns what it sampled.
	poll(stop <-chan struct{}) float64
	endToEnd(w window) e2e
	// delivered is the payload delivered within w.
	delivered(w window) float64
	layers(w window, delta func(string) float64, polled float64) map[string]float64
	// check runs the correctness gates once the load has stopped.
	check() []string
	close()
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome. Lines are the human-readable report; Short
// names percentiles that rest on too few samples.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Gates     []string          `json:"-"`
	Short     []string          `json:"-"`
	Lines     []string          `json:"-"`
}

func (r *result) printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func main() {
	var o options
	var seconds float64
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+allWorkloads)
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&traced, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for journals and the span file")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.warmup, o.setups = warmup, setupRepeats
	o.trace = traced == 1
	if _, ok := workloads[o.workload]; !ok || o.window <= 0 || (traced != 0 && traced != 1) {
		fmt.Fprintf(os.Stderr, "bench: need --workload (%s), --seconds > 0, --trace 0|1\n", allWorkloads)
		os.Exit(2)
	}
	// Every run must end well inside the harness's time limit.
	time.AfterFunc(o.warmup+o.window+150*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: watchdog: run did not finish")
		os.Exit(3)
	})

	work := filepath.Join(o.dir, "work", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	res, err := run(o, work)
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.workload, err)
		os.Exit(2)
	}
	for _, l := range res.Lines {
		fmt.Println(l)
	}
	for _, g := range res.Gates {
		fmt.Println("GATE FAILED:", g)
	}
	if len(res.Short) > 0 && !o.trace {
		fmt.Fprintf(os.Stderr, "bench: too few samples for %s; lengthen --seconds\n", strings.Join(res.Short, ", "))
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up o.setups times, offers load through the
// warm-up and the measured window, stops it, checks the gates, and
// computes the metrics.
func run(o options, work string) (*result, error) {
	setup := workloads[o.workload]
	var t *tracer
	if o.trace {
		t = newTracer(time.Now())
	}
	var r rig
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		r, err = setup(o, filepath.Join(work, fmt.Sprint(i)), t)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	defer r.close()

	res := &result{Metrics: map[string]metric{}}
	r.start()
	time.Sleep(o.warmup)
	from := time.Now()
	if !o.trace {
		rss := sampleRSS(o.window)
		w := window{from, time.Now()}
		r.stop()
		e := r.endToEnd(w)
		res.Attempted, res.Failed = e.attempted, e.failed
		res.endToEnd(o, e, r, w, setups, rss)
	} else {
		time.Sleep(o.window / 2)
		mid := time.Now()
		cm := snapshot(r)
		t.on.Store(true)
		stopPoll, polled := make(chan struct{}), make(chan float64, 1)
		go func() { polled <- r.poll(stopPoll) }()
		time.Sleep(o.window - o.window/2)
		to := time.Now()
		r.stop()
		c1 := snapshot(r)
		close(stopPoll)
		t.on.Store(false)
		all := r.endToEnd(window{from, to})
		res.Attempted, res.Failed = all.attempted, all.failed
		bare := r.endToEnd(window{from, mid})
		traced := r.endToEnd(window{mid, to})
		layers := r.layers(window{mid, to}, delta(cm, c1), <-polled)
		if err := res.perLayer(o, t, layers, bare, traced, delta(cm, c1)); err != nil {
			return nil, err
		}
		path := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		kept, dropped, err := t.writeSpans(path)
		if err != nil {
			return nil, err
		}
		res.printf("spans: %d written to %s (%d beyond the cap not kept)", kept, path, dropped)
	}
	res.Gates = r.check()
	res.Correct = len(res.Gates) == 0
	return res, nil
}

// snapshot reads the rig's counters plus the runtime's.
func snapshot(r rig) map[string]float64 {
	c := r.counters()
	c["allocs"], c["gc_cpu"], c["total_cpu"] = runtimeCounters()
	return c
}

func delta(a, b map[string]float64) func(string) float64 {
	return func(name string) float64 { return b[name] - a[name] }
}

func (res *result) set(name, unit string, v float64) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (res *result) endToEnd(o options, e e2e, r rig, w window, setups, rss []float64) {
	res.set("setup_s", "s", median(setups))
	res.set("rss_mb", "MB", median(rss))
	// Throughput is the median of one-second buckets, so a stall on a
	// shared machine moves it less than it would move a mean.
	var rates []float64
	for t := w.from; !t.Add(time.Second).After(w.to); t = t.Add(time.Second) {
		rates = append(rates, r.delivered(window{t, t.Add(time.Second)})/1e6)
	}
	res.set("throughput_mb_s", "MB/s", median(rates))
	p50 := percentile(e.latency, 0.50)
	res.set("latency_p50_ms", "ms", p50.Value)
	if !p50.OK {
		res.Short = append(res.Short, "latency_p50_ms")
	}
	res.set("deadline_survival", "share", ratio(e.survived, e.pictures))
	res.printf("workload %s seed %d: %d attempted, %d failed in %.1f s", o.workload, o.seed, e.attempted, e.failed, w.to.Sub(w.from).Seconds())
	res.printf("setup runs (s): %.6g", setups)
	res.printf("throughput by second (MB/s): %.6g", rates)
	res.printf("latency p50 %v ms, p90 %v ms, p99 %v ms", p50, percentile(e.latency, 0.90), percentile(e.latency, 0.99))
	res.printf("deadline_survival over %.0f pictures", e.pictures)
	for _, d := range endToEnd {
		res.printf("%-36s %14.6g %s", d.name, res.Metrics[d.name].Value, d.unit)
	}
}

// median is the middle sample (the lower middle of an even count).
func median(samples []float64) float64 {
	return percentile(append([]float64(nil), samples...), 0.5).Value
}

// perLayer assembles the per-layer metrics: the rig's own, the ones
// every workload shares, and zero for layers the workload never crosses.
func (res *result) perLayer(o options, t *tracer, layers map[string]float64, bare, traced e2e, d func(string) float64) error {
	smooth := t.timing("core.smooth")
	layers["core.smooth_ns_per_picture"] = ratio(smooth.total, smooth.units)
	layers["runtime.allocs_per_picture"] = ratio(d("allocs"), d("pictures"))
	layers["runtime.gc_cpu_fraction"] = ratio(d("gc_cpu"), d("total_cpu"))
	b, tr := percentile(bare.latency, 0.5), percentile(traced.latency, 0.5)
	layers["trace.overhead_share"] = ratio(tr.Value, b.Value) - 1
	p90, p99 := percentile(traced.latency, 0.90), percentile(traced.latency, 0.99)
	layers["latency_p90_ms"], layers["latency_p99_ms"] = p90.Value, p99.Value
	res.printf("workload %s seed %d, traced half: latency p50 %v ms traced vs %v ms untraced", o.workload, o.seed, tr, b)
	res.printf("traced half: latency p90 %v ms, p99 %v ms", p90, p99)
	known := map[string]bool{}
	for _, def := range perLayer {
		known[def.name] = true
		v, ok := layers[def.name]
		if def.applies(o.workload) && !ok {
			return fmt.Errorf("workload produced no %s", def.name)
		}
		if !def.applies(o.workload) {
			v = 0
		}
		res.set(def.name, def.unit, v)
		res.printf("%-36s %14.6g %s", def.name, v, def.unit)
	}
	for name := range layers {
		if !known[name] {
			return errors.New("workload produced unlisted metric " + name)
		}
	}
	return nil
}
