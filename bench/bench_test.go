package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		name string
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{"empty", 0, 0.5, 0, false},
		{"median of 19 leaves 9 beyond", 19, 0.5, 10, false},
		{"median of 20", 20, 0.5, 10, true},
		{"median of 21", 21, 0.5, 11, true},
		{"p99 of 999 leaves 9 beyond", 999, 0.99, 990, false},
		{"p99 of 1000", 1000, 0.99, 990, true},
		{"p99 of 5000", 5000, 0.99, 4950, true},
		{"p90 of 100", 100, 0.90, 90, true},
		{"p90 of 99", 99, 0.90, 90, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := percentile(seq(c.n), c.q)
			if got.N != c.n || got.OK != c.ok || (c.n > 0 && got.Value != c.want) {
				t.Errorf("percentile(%d samples, %v) = %+v, want value %v ok %v", c.n, c.q, got, c.want, c.ok)
			}
		})
	}
}

// egressOf returns the payload bytes session sess streams from slot.
func egressOf(in *inputs, tpl *template, slot int, sess uint32) [][]byte {
	out := make([][]byte, tpl.tr.Len())
	for i := range out {
		out[i] = in.payload(make([]byte, tpl.tr.Sizes[i]/8), tpl, i, slot, sess)
	}
	return out
}

// TestSinkAnyWriteGrain feeds the sink two sessions' pictures
// interleaved at several write grains, and batched several pictures to a
// write: every picture is attributed once, in order, and every byte is
// counted.
func TestSinkAnyWriteGrain(t *testing.T) {
	in, err := makeInputs(3, paperSeqs, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	a, b := egressOf(in, in.tpls[0], 0, 7), egressOf(in, in.tpls[1], 1, 8)
	total := 0
	for _, p := range append(append([][]byte(nil), a...), b...) {
		total += len(p)
	}
	for _, grain := range []int{16, 48, 4096, 1 << 20} {
		s := newSink(time.Now())
		la := s.expect(7, 0, len(a), true)
		s.expect(8, 1, len(b), true)
		// Round-robin the two sessions' chunks, as the shared link does.
		var chunks [2][][]byte
		for k, pics := range [][][]byte{a, b} {
			for _, p := range pics {
				for off := 0; off < len(p); off += grain {
					chunks[k] = append(chunks[k], p[off:min(off+grain, len(p))])
				}
			}
		}
		for i := 0; i < len(chunks[0]) || i < len(chunks[1]); i++ {
			for k := range chunks {
				if i < len(chunks[k]) {
					s.Write(chunks[k][i])
				}
			}
		}
		bytes, _, tails := s.counts()
		if errs := s.errors(); len(errs) > 0 {
			t.Fatalf("grain %d: %v", grain, errs)
		}
		if int(bytes) != total || int(tails) != len(a)+len(b) || len(s.pending()) > 0 {
			t.Errorf("grain %d: %d bytes, %d tails, sessions %v unfinished; want %d bytes, %d tails",
				grain, bytes, tails, s.pending(), total, len(a)+len(b))
		}
		for i := range a {
			if la.first[i] == 0 || la.finish[i] < la.first[i] {
				t.Fatalf("grain %d: picture %d head %d tail %d", grain, i, la.first[i], la.finish[i])
			}
		}
	}

	// A vectored egress: one write carrying many whole pictures.
	s := newSink(time.Now())
	s.expect(7, 0, len(a), false)
	s.Write(bytes.Join(a[:10], nil))
	s.Write(bytes.Join(a[10:], nil))
	if _, _, tails := s.counts(); tails != int64(len(a)) || len(s.pending()) > 0 || len(s.errors()) > 0 {
		t.Errorf("batched writes: %d tails, errors %v", tails, s.errors())
	}
}

func TestSinkRejectsMisorderedEgress(t *testing.T) {
	in, err := makeInputs(3, paperSeqs, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	a := egressOf(in, in.tpls[0], 0, 1)
	for _, c := range []struct {
		name     string
		pictures int
		writes   [][]byte
		want     string
	}{
		{"picture skipped", len(a), [][]byte{a[0], a[2]}, "picture 2 egressed, want picture 1"},
		{"picture repeated", len(a), [][]byte{a[0], a[0]}, "picture 0 egressed, want picture 1"},
		{"tail before head", len(a), [][]byte{a[0][len(a[0])-tagLen:]}, "out of order"},
		{"tag split across writes", len(a), [][]byte{a[0][:tagLen/2], a[0][tagLen/2:]}, "split"},
		{"unknown session", len(a), [][]byte{egressOf(in, in.tpls[0], 0, 99)[0]}, "unknown session"},
		{"egress after the session finished", 1, [][]byte{a[0], a[0]}, "unknown session"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newSink(time.Now())
			s.expect(1, 0, c.pictures, false)
			for _, w := range c.writes {
				s.Write(w)
			}
			if errs := strings.Join(s.errors(), "; "); !strings.Contains(errs, c.want) {
				t.Errorf("errors %q, want one containing %q", errs, c.want)
			}
		})
	}
}

// TestSeedDeterminism pins that a seed fixes every generated input and
// that another seed changes them.
func TestSeedDeterminism(t *testing.T) {
	type generated struct {
		Sizes   [][]int64
		Offs    [][]int
		Arena   []byte
		Nonces  []uint64
		ARQ     []int64
		Offsets []float64
		Faults  any
	}
	gen := func(seed int64) generated {
		in, err := makeInputs(seed, paperSeqs, 8, 270)
		if err != nil {
			t.Fatal(err)
		}
		var g generated
		for _, tpl := range in.tpls {
			g.Sizes = append(g.Sizes, tpl.tr.Sizes)
			g.Offs = append(g.Offs, tpl.offs)
		}
		g.Arena = in.arena
		for s := uint32(0); s < 64; s++ {
			g.Nonces = append(g.Nonces, in.nonce(s))
			g.ARQ = append(g.ARQ, in.arqSeed(s))
			g.Offsets = append(g.Offsets, in.offset(int(s)))
		}
		g.Faults = packetFaults(seed)
		return g
	}
	one, again, two := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(one, again) {
		t.Fatal("seed 1 generated different inputs on a second call")
	}
	v1, v2 := reflect.ValueOf(one), reflect.ValueOf(two)
	for i := 0; i < v1.NumField(); i++ {
		if reflect.DeepEqual(v1.Field(i).Interface(), v2.Field(i).Interface()) {
			t.Errorf("seeds 1 and 2 generated the same %s", v1.Type().Field(i).Name)
		}
	}
	seen := map[uint64]bool{}
	for _, n := range one.Nonces {
		if n == 0 || seen[n] {
			t.Fatalf("nonce %#x zero or repeated", n)
		}
		seen[n] = true
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced: the
// correctness gates must pass and every metric BENCHMARK.json names must
// be emitted with its unit. The ten runs go at once, each deleting its
// journals as it ends, because deleting fsynced files is slow on some
// disks and would otherwise dominate the test's time.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	type smokeRun struct {
		workload string
		traced   bool
		want     []struct{ Name, Unit string }
		res      *result
		err      error
	}
	var runs []*smokeRun
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload", w.Name)
			continue
		}
		runs = append(runs, &smokeRun{workload: w.Name, want: bf.EndToEnd}, &smokeRun{workload: w.Name, traced: true, want: bf.PerLayer})
	}
	dir := t.TempDir()
	var wg sync.WaitGroup
	for i, sr := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := options{workload: sr.workload, seed: 1, window: time.Second, setups: 1, trace: sr.traced, dir: dir}
			work := filepath.Join(dir, fmt.Sprint(i))
			sr.res, sr.err = run(o, work)
			os.RemoveAll(work)
		}()
	}
	wg.Wait()
	for _, sr := range runs {
		t.Run(fmt.Sprintf("%s/trace=%v", sr.workload, sr.traced), func(t *testing.T) {
			res := sr.res
			if sr.err != nil {
				t.Fatal(sr.err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("correct %v, %d attempted, %d failed, gates %v", res.Correct, res.Attempted, res.Failed, res.Gates)
			}
			if len(res.Metrics) != len(sr.want) {
				t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(sr.want))
			}
			for _, m := range sr.want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}
