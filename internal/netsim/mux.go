package netsim

import "fmt"

// CellBits is the payload-bearing size of one fixed-length cell in bits
// (ATM: 53 bytes on the wire).
const CellBits = 424

// MuxStats counts cells through a multiplexer.
type MuxStats struct {
	Arrived int64
	Served  int64
	Lost    int64
	// MaxQueue is the high-water mark of the waiting queue.
	MaxQueue int
}

// LossProbability returns Lost/Arrived (0 when nothing arrived).
func (s MuxStats) LossProbability() float64 {
	if s.Arrived == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Arrived)
}

// Mux is the cell-exact finite-buffer FIFO multiplexer: cells from all
// sources share one output link of LinkRate bits/s and a waiting buffer
// of BufferCells cells (excluding the cell in service). A cell arriving
// to a full buffer is lost — the loss the smoothing algorithm exists to
// minimize for a given multiplexing level.
//
// Service-completion times are tracked as exact float seconds (only
// event ordering is quantized to engine ticks), so the cell dynamics
// reproduce the original float-time simulator exactly.
type Mux struct {
	LinkRate    float64
	BufferCells int

	eng     *Engine
	queue   int
	serving bool
	svcEnd  float64 // exact completion time of the cell in service
	stats   MuxStats
	lost    []int64 // per-source lost cells (nil: no attribution)
}

// NewMux attaches a multiplexer to an engine.
func NewMux(eng *Engine, linkRate float64, bufferCells int) (*Mux, error) {
	if linkRate <= 0 {
		return nil, fmt.Errorf("netsim: non-positive link rate %v", linkRate)
	}
	if bufferCells < 0 {
		return nil, fmt.Errorf("netsim: negative buffer %d", bufferCells)
	}
	return &Mux{LinkRate: linkRate, BufferCells: bufferCells, eng: eng}, nil
}

// Attribute sizes the per-source loss counters; Arrive then records
// which source each lost cell belonged to.
func (m *Mux) Attribute(sources int) { m.lost = make([]int64, sources) }

// Arrive delivers one cell from source src at exact time t seconds (the
// emitting event's own time; the mux never re-derives it from ticks).
func (m *Mux) Arrive(src int, t float64) {
	m.stats.Arrived++
	if m.serving && m.queue >= m.BufferCells {
		m.stats.Lost++
		if m.lost != nil {
			m.lost[src]++
		}
		return
	}
	if !m.serving {
		m.startService(t)
		return
	}
	m.queue++
	if m.queue > m.stats.MaxQueue {
		m.stats.MaxQueue = m.queue
	}
}

func (m *Mux) startService(t float64) {
	m.serving = true
	m.svcEnd = t + CellBits/m.LinkRate
	m.eng.Schedule(m.eng.TickAt(m.svcEnd), m)
}

// Fire completes the cell in service (the Mux is its own
// service-completion event; at most one is outstanding).
func (m *Mux) Fire(Tick) {
	end := m.svcEnd
	m.stats.Served++
	if m.queue > 0 {
		m.queue--
		m.startService(end)
		return
	}
	m.serving = false
}

// Stats returns the current counters.
func (m *Mux) Stats() MuxStats { return m.stats }

// QueueLen returns the number of cells waiting (excluding in service).
func (m *Mux) QueueLen() int { return m.queue }

// InFlight returns the cells accepted but not yet served (waiting plus
// in service) — the conservation remainder.
func (m *Mux) InFlight() int64 {
	n := int64(m.queue)
	if m.serving {
		n++
	}
	return n
}
