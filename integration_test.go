package mpegsmooth

// Cross-subsystem integration tests: each walks a complete pipeline
// through the public API and checks the invariants that must chain
// across module boundaries.

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"
)

// TestPipelineMarkovToNetwork: Markov-modulated source → smoothing →
// VBV analysis → policer conformance → multiplexer, invariants intact at
// every stage.
func TestPipelineMarkovToNetwork(t *testing.T) {
	tr, err := GenerateMarkovTrace(MarkovConfig{
		Name:  "integration",
		GOP:   GOP{M: 3, N: 9},
		IBase: 180_000, PBase: 80_000, BBase: 25_000,
		States: []MarkovState{
			{Name: "calm", Complexity: 0.7, Motion: 0.3, MeanDwell: 45},
			{Name: "busy", Complexity: 1.0, Motion: 1.1, MeanDwell: 45},
		},
		Pictures: 270,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}

	sched, err := Smooth(tr, Config{K: 1, H: tr.GOP.N, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(sched); err != nil {
		t.Fatal(err)
	}

	// VBV: the decoder start-up the stream demands is within the bound.
	a, err := AnalyzeVBV(sched)
	if err != nil {
		t.Fatal(err)
	}
	if a.StartupDelay > 0.2+1e-9 {
		t.Fatalf("startup %.4f exceeds D", a.StartupDelay)
	}
	if err := CheckVBV(sched, a.StartupDelay, a.PeakBuffer); err != nil {
		t.Fatal(err)
	}

	// Policer: the schedule conforms to its own declarations.
	p, err := NewPolicer(4 * CellBits)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < tr.Len(); j++ {
		if err := p.SetRate(sched.Start[j], sched.Rates[j]); err != nil {
			t.Fatal(err)
		}
		bits, tm := float64(tr.Sizes[j]), sched.Start[j]
		for bits > 0 {
			cell := float64(CellBits)
			if bits < cell {
				cell = bits
			}
			ok, err := p.Offer(tm, cell)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("picture %d non-conforming against own declaration", j)
			}
			bits -= cell
			tm += cell / sched.Rates[j]
		}
	}

	// Multiplexer: the smoothed stream rides a link with modest headroom
	// without loss.
	rf, err := sched.RateFunc()
	if err != nil {
		t.Fatal(err)
	}
	st, err := RunMux(MuxRunConfig{
		Rates:       []*StepFunc{rf},
		LinkRate:    rf.Max() * 1.02,
		BufferCells: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Lost != 0 {
		t.Fatalf("smoothed stream lost %d cells under its own peak", st.Lost)
	}
}

// TestPipelineCodecToTransport: synthetic video → codec → inspect →
// live smoothing → paced TCP transport → receiver integrity.
func TestPipelineCodecToTransport(t *testing.T) {
	synth, err := NewSynthesizer(BackyardVideoScript(64, 48, 18, 3))
	if err != nil {
		t.Fatal(err)
	}
	var frames []*Frame
	for !synth.Done() {
		frames = append(frames, synth.Next())
	}
	gop := GOP{M: 3, N: 9}
	enc, err := NewEncoder(DefaultEncoderConfig(64, 48, gop))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := enc.EncodeSequence(frames)
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectStream(seq.Data)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := info.SizesInDisplayOrder()
	if err != nil {
		t.Fatal(err)
	}

	// Live smoothing, picture by picture.
	live, err := NewSession(1.0/30, gop, Config{K: 1, H: gop.N, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var decisions []Decision
	for _, s := range sizes {
		ds, err := live.Push(s)
		if err != nil {
			t.Fatal(err)
		}
		decisions = append(decisions, ds...)
	}
	decisions = append(decisions, live.Close()...)
	if len(decisions) != len(sizes) {
		t.Fatalf("%d decisions for %d pictures", len(decisions), len(sizes))
	}

	// The offline schedule is identical; use it to drive the transport.
	tr, err := TraceFromPictureSizes("codec", 1.0/30, gop, sizes)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := Smooth(tr, Config{K: 1, H: gop.N, D: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decisions {
		if d.Rate != sched.Rates[i] {
			t.Fatalf("live decision %d diverges", i)
		}
	}

	rng := rand.New(rand.NewSource(2))
	payloads := make([][]byte, tr.Len())
	for i, bits := range tr.Sizes {
		payloads[i] = make([]byte, (bits+7)/8)
		rng.Read(payloads[i])
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	connCh := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			connCh <- c
		}
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-connCh
	defer server.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	go func() {
		s := &Sender{TimeScale: 100}
		s.Send(ctx, NewFrameWriter(client), sched, payloads)
	}()
	report, err := Receive(ctx, server)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Pictures) != tr.Len() {
		t.Fatalf("received %d pictures", len(report.Pictures))
	}
	for i, p := range report.Pictures {
		if p.Sum64 != PayloadSum64(payloads[i]) {
			t.Fatalf("picture %d corrupted in flight", i)
		}
	}
}
