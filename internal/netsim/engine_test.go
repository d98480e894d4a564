package netsim

import (
	"math/rand"
	"testing"
)

// TestEngineProperty schedules 10k events at random ticks spanning every
// wheel level plus the overflow list and checks the engine's ordering
// contract: events fire in nondecreasing tick order, and events sharing
// a tick fire in schedule (FIFO) order.
func TestEngineProperty(t *testing.T) {
	const n = 10_000
	rng := rand.New(rand.NewSource(7))
	e := NewEngine(1)
	type firing struct {
		tick Tick
		seq  int
	}
	var fired []firing
	for i := 0; i < n; i++ {
		var tick Tick
		switch rng.Intn(4) {
		case 0: // level 0: within the first block
			tick = Tick(rng.Intn(wheelSlots))
		case 1: // level 1–2 territory
			tick = Tick(rng.Int63n(int64(wheelSlots) * int64(wheelSlots) * 8))
		case 2: // level 3 territory
			tick = Tick(rng.Int63n(int64(1) << 47))
		default: // beyond the wheel span: overflow list
			tick = Tick(int64(1)<<48 + rng.Int63n(int64(1)<<50))
		}
		seq := i
		e.Schedule(tick, EventFunc(func(now Tick) {
			if now != tick {
				t.Fatalf("event scheduled for %d fired at %d", tick, now)
			}
			fired = append(fired, firing{tick, seq})
		}))
	}
	if got := e.Run(Tick(1) << 62); got != n {
		t.Fatalf("fired %d of %d events", got, n)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.tick < a.tick {
			t.Fatalf("tick order violated at %d: %d after %d", i, b.tick, a.tick)
		}
		if b.tick == a.tick && b.seq < a.seq {
			t.Fatalf("same-tick FIFO violated at tick %d: seq %d after %d", b.tick, b.seq, a.seq)
		}
	}
}

// TestEngineSameTickReschedule checks that an event scheduling another
// event for the current tick fires it within the same tick, after all
// previously scheduled same-tick events.
func TestEngineSameTickReschedule(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(5, EventFunc(func(now Tick) {
		got = append(got, 1)
		e.Schedule(now, EventFunc(func(Tick) { got = append(got, 3) }))
	}))
	e.Schedule(5, EventFunc(func(Tick) { got = append(got, 2) }))
	e.Schedule(6, EventFunc(func(Tick) { got = append(got, 4) }))
	if n := e.Run(10); n != 4 {
		t.Fatalf("fired %d events", n)
	}
	for i, want := range []int{1, 2, 3, 4} {
		if got[i] != want {
			t.Fatalf("order %v, want [1 2 3 4]", got)
		}
	}
}

// TestEngineCascade drives events across level boundaries: an event in a
// far slot must cascade down and still fire at its exact tick, with
// intervening events fired in between.
func TestEngineCascade(t *testing.T) {
	e := NewEngine(1)
	ticks := []Tick{
		1,
		wheelSlots - 1,
		wheelSlots,                               // level 1
		wheelSlots + 1,                           // same level-1 slot, later tick
		3 * wheelSlots * wheelSlots,              // level 2
		5 * wheelSlots * wheelSlots * wheelSlots, // level 3
		Tick(1)<<48 + 17,                         // overflow
		Tick(1)<<48 + 17 + wheelSlots*wheelSlots*11, // overflow, later
	}
	var got []Tick
	// Schedule in reverse to make insertion order disagree with fire order.
	for i := len(ticks) - 1; i >= 0; i-- {
		tk := ticks[i]
		e.Schedule(tk, EventFunc(func(now Tick) { got = append(got, now) }))
	}
	if n := e.Run(Tick(1) << 62); n != len(ticks) {
		t.Fatalf("fired %d of %d events", n, len(ticks))
	}
	for i, want := range ticks {
		if got[i] != want {
			t.Fatalf("fire sequence %v, want %v", got, ticks)
		}
	}
}

// TestEngineRecordsPooled verifies steady-state scheduling does not
// allocate: after warm-up, records come from the free list.
func TestEngineRecordsPooled(t *testing.T) {
	e := NewEngine(1)
	var next func(now Tick)
	count := 0
	next = func(now Tick) {
		count++
		if count < 1000 {
			e.Schedule(now+3, EventFunc(next))
		}
	}
	e.Schedule(0, EventFunc(next))
	allocs := testing.AllocsPerRun(1, func() {
		e.Run(Tick(1) << 40)
	})
	// One closure per event is allocated by the test itself (EventFunc
	// wrapping); the engine's own record churn must reuse the pool. Allow
	// the closure allocations but nothing superlinear.
	if allocs > 3000 {
		t.Fatalf("%v allocations for 1000 chained events", allocs)
	}
	if count < 1000 {
		t.Fatalf("chain stopped at %d", count)
	}
}

func TestEngineTickConversions(t *testing.T) {
	e := NewEngine(1e12)
	if tk := e.TickAt(1.5); tk != 1_500_000_000_000 {
		t.Fatalf("TickAt(1.5) = %d", tk)
	}
	if s := e.SecondsOf(2_000_000_000_000); s != 2 {
		t.Fatalf("SecondsOf = %v", s)
	}
	if e.NowSeconds() != 0 {
		t.Fatalf("NowSeconds at start = %v", e.NowSeconds())
	}
}

func TestEngineInvalidTickRate(t *testing.T) {
	for _, hz := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEngine(%v) should panic", hz)
				}
			}()
			NewEngine(hz)
		}()
	}
}
