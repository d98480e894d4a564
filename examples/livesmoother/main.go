// Livesmoother: embed the algorithm in a streaming pipeline.
//
// A live encoder produces picture sizes one at a time; an incremental
// Session emits each rate decision the moment its inputs are
// determined. The encoder declares how many pictures it will produce,
// so no decision waits for its whole lookahead window to arrive: with
// K=1 a decision trails the encoder by at most the pictures encoded
// while its predecessor was still departing. The
// decisions stream through a token-bucket policer — the network checking
// that we honour our own notify(i, rate) declarations — and the final
// schedule's decoder-side requirements are analyzed against the MPEG
// model-decoder (VBV) rules.
package main

import (
	"fmt"
	"log"

	"mpegsmooth"
)

func main() {
	gop := mpegsmooth.GOP{M: 3, N: 9}
	const tau = 1.0 / 30

	// The "encoder": a trace generator standing in for live capture.
	tr, err := mpegsmooth.Driving1(270, 1)
	if err != nil {
		log.Fatal(err)
	}

	live, err := mpegsmooth.NewSession(tau, gop, mpegsmooth.Config{K: 1, H: gop.N, D: 0.2},
		mpegsmooth.WithLength(tr.Len()))
	if err != nil {
		log.Fatal(err)
	}
	policer, err := mpegsmooth.NewPolicer(4 * mpegsmooth.CellBits)
	if err != nil {
		log.Fatal(err)
	}

	var decisions []mpegsmooth.Decision
	maxLag := 0
	feed := func(ds []mpegsmooth.Decision) {
		for _, d := range ds {
			// Declare the rate, then offer the picture's bits paced at it.
			if err := policer.SetRate(d.Start, d.Rate); err != nil {
				log.Fatal(err)
			}
			bits, t := float64(tr.Sizes[d.Picture]), d.Start
			for bits > 0 {
				cell := float64(mpegsmooth.CellBits)
				if bits < cell {
					cell = bits
				}
				ok, err := policer.Offer(t, cell)
				if err != nil {
					log.Fatal(err)
				}
				if !ok {
					log.Fatalf("picture %d: our own declaration rejected us", d.Picture)
				}
				bits -= cell
				t += cell / d.Rate
			}
			decisions = append(decisions, d)
		}
	}
	for i, size := range tr.Sizes {
		ds, err := live.Push(size)
		if err != nil {
			log.Fatal(err)
		}
		if lag := i + 1 - len(decisions) - len(ds); lag > maxLag {
			maxLag = lag
		}
		feed(ds)
	}
	feed(live.Close())

	fmt.Printf("streamed %d pictures; max decision lag %d pictures behind the encoder\n",
		len(decisions), maxLag)
	fmt.Printf("policer: %d cells conforming, %d dropped\n", policer.Conforming(), policer.Dropped())

	// The live schedule equals the offline one; analyze its decoder-side
	// demands.
	sched, err := mpegsmooth.Smooth(tr, mpegsmooth.Config{K: 1, H: gop.N, D: 0.2})
	if err != nil {
		log.Fatal(err)
	}
	for i, d := range decisions {
		if d.Rate != sched.Rates[i] {
			log.Fatalf("live decision %d diverges from offline schedule", i)
		}
	}
	a, err := mpegsmooth.AnalyzeVBV(sched)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMPEG model-decoder view of this schedule:\n")
	fmt.Printf("  minimum start-up delay %.4f s (Theorem 1 bounds it by D = 0.2)\n", a.StartupDelay)
	fmt.Printf("  peak decoder buffer    %.0f bits (%.1f KB), at picture %d\n",
		a.PeakBuffer, a.PeakBuffer/8/1024, a.PeakAtPicture)
	if err := mpegsmooth.CheckVBV(sched, a.StartupDelay, a.PeakBuffer); err != nil {
		log.Fatal(err)
	}
	fmt.Println("  decoding at exactly that start-up and buffer: no underflow, no overflow")
}
