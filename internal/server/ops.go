package server

import (
	"encoding/json"
	"expvar"
	"math"
	"net/http"
	"sort"

	"mpegsmooth/internal/journal"
	"mpegsmooth/internal/transport"
)

// StreamCounts are the admission and lifecycle counters. The server
// keeps all of them itself, bumped by lifecycle moves (DESIGN §8) and
// handshake verdicts; netsim.Admission holds only the reservation
// arithmetic behind Active.
type StreamCounts struct {
	// Admitted counts the admissions this server committed: reserved
	// and, with a journal, durable (quorum-held in a cluster) before the
	// verdict left. One rolled back at that step counts under
	// RejectedBusy instead, and a stream recovered from the journal
	// under Recovered, so summed across server generations each client
	// stream is admitted once.
	Admitted int64 `json:"admitted"`
	// Rejected sums the three reasons; each rejection is counted once,
	// by the answer that writes its verdict.
	Rejected          int64 `json:"rejected"`
	RejectedCapacity  int64 `json:"rejected_capacity"`
	RejectedMalformed int64 `json:"rejected_malformed"`
	RejectedBusy      int64 `json:"rejected_busy"`
	Active            int64 `json:"active"`
	// Parked counts the active streams in the parked or claimed state:
	// disconnected, or recovered from the journal and not yet resumed,
	// holding their reservation through the resume window.
	Parked    int64 `json:"parked"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// HelloDeduped counts hellos recognized by nonce as retransmissions
	// and reattached to their existing stream instead of re-admitted;
	// AlreadyComplete counts resumes answered from a completion
	// tombstone after the sender's completion ack was lost.
	HelloDeduped    int64 `json:"hello_deduped"`
	AlreadyComplete int64 `json:"already_complete"`
	// Redirected counts handshakes answered with the owning shard's
	// address because the session key hashed to another shard.
	Redirected int64 `json:"redirected"`
	// Recovered counts streams rebuilt from the journal at startup and
	// parked for their senders to redial; RecoveredTombstones the
	// completion tombstones restored the same way.
	Recovered           int64 `json:"recovered"`
	RecoveredTombstones int64 `json:"recovered_tombstones"`
}

// FaultCounts are the classified transport-fault counters (the keys
// match transport.FaultClass.String()), plus the recovery outcomes.
type FaultCounts struct {
	Corrupt int64 `json:"corrupt"`
	Timeout int64 `json:"timeout"`
	Reset   int64 `json:"reset"`
	// The datagram classes: reassembly-window overflows, exhausted
	// retransmission schedules, and stale-incarnation traffic from the
	// ARQ layer under a -datagram listener.
	ReorderOverflow     int64 `json:"reorder_overflow"`
	RetransmitExhausted int64 `json:"retransmit_exhausted"`
	StaleDuplicate      int64 `json:"stale_duplicate"`
	Other               int64 `json:"other"`
	// Resumed counts accepted reconnects; DuplicatesDropped the replayed
	// pictures deduplicated after them; ResumeExpired the parked streams
	// no sender came back for.
	Resumed           int64 `json:"resumed"`
	DuplicatesDropped int64 `json:"duplicates_dropped"`
	ResumeExpired     int64 `json:"resume_expired"`
}

// record counts one classified fault.
func (f *FaultCounts) record(class transport.FaultClass) {
	switch class {
	case transport.FaultCorrupt:
		f.Corrupt++
	case transport.FaultTimeout:
		f.Timeout++
	case transport.FaultReset:
		f.Reset++
	case transport.FaultReorderOverflow:
		f.ReorderOverflow++
	case transport.FaultRetransmitExhausted:
		f.RetransmitExhausted++
	case transport.FaultStaleDuplicate:
		f.StaleDuplicate++
	case transport.FaultOther:
		f.Other++
	}
}

// add accumulates another counter set into f.
func (f *FaultCounts) add(g FaultCounts) {
	f.Corrupt += g.Corrupt
	f.Timeout += g.Timeout
	f.Reset += g.Reset
	f.ReorderOverflow += g.ReorderOverflow
	f.RetransmitExhausted += g.RetransmitExhausted
	f.StaleDuplicate += g.StaleDuplicate
	f.Other += g.Other
	f.Resumed += g.Resumed
	f.DuplicatesDropped += g.DuplicatesDropped
	f.ResumeExpired += g.ResumeExpired
}

// Snapshot is the full ops view of the server at one instant.
type Snapshot struct {
	// CapacityBPS is the configured shared link capacity; ReservedPeak
	// the sum of admitted streams' declared peaks; AvailablePeak the
	// headroom admission still has to give out.
	CapacityBPS   float64 `json:"capacity_bps"`
	ReservedPeak  float64 `json:"reserved_peak_bps"`
	AvailablePeak float64 `json:"available_peak_bps"`
	// AggregateRate is the sum of active streams' current decided
	// egress rates — by the admission invariant, never above capacity.
	AggregateRate float64 `json:"aggregate_egress_bps"`
	// Utilization is AggregateRate / CapacityBPS.
	Utilization float64 `json:"utilization"`
	// EgressedBits counts bits actually written to the shared link.
	EgressedBits int64        `json:"egressed_bits"`
	Streams      StreamCounts `json:"streams"`
	// Faults aggregates classified transport faults over every stream,
	// finished and active.
	Faults FaultCounts `json:"faults"`
	// DelayViolations counts finished streams whose largest per-picture
	// delay exceeded their bound D. The delay is the kernel's nominal
	// Decision.Delay, not when the picture's last byte left egress, so a
	// stream that misses its deadline on the wall clock still reads 0
	// here. WorstDelayHeadroomS is the smallest D − maxDelay margin any
	// finished stream kept, on the same nominal delays (0 until a stream
	// finishes).
	DelayViolations     int64            `json:"delay_violations"`
	WorstDelayHeadroomS float64          `json:"worst_delay_headroom_s"`
	PerStream           []StreamSnapshot `json:"active_streams"`
	// Journal reports the session journal's append/flush/compaction
	// counters; nil when the server runs without one.
	Journal *journal.Stats `json:"journal,omitempty"`
}

// Snapshot collects the live counters: admission state, aggregate
// egress, classified fault totals, and one StreamSnapshot per active
// stream.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	streams := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	snap := Snapshot{
		CapacityBPS:     s.admission.Capacity(),
		ReservedPeak:    s.admission.Reserved(),
		AvailablePeak:   s.admission.Available(),
		Streams:         s.counts,
		Faults:          s.faultTotals,
		DelayViolations: s.delayViolations,
	}
	snap.Streams.Active = s.admission.Active()
	if !math.IsInf(s.worstHeadroom, 1) {
		snap.WorstDelayHeadroomS = s.worstHeadroom
	}
	s.mu.Unlock()
	snap.Streams.Rejected = snap.Streams.RejectedCapacity +
		snap.Streams.RejectedMalformed + snap.Streams.RejectedBusy
	snap.EgressedBits = s.egress.totalBits()
	snap.PerStream = make([]StreamSnapshot, 0, len(streams))
	for _, st := range streams {
		ss := st.snapshot()
		snap.AggregateRate += ss.CurrentRate
		snap.Faults.add(ss.Faults)
		if ss.Parked {
			snap.Streams.Parked++
		}
		snap.PerStream = append(snap.PerStream, ss)
	}
	sort.Slice(snap.PerStream, func(i, j int) bool { return snap.PerStream[i].ID < snap.PerStream[j].ID })
	if snap.CapacityBPS > 0 {
		snap.Utilization = snap.AggregateRate / snap.CapacityBPS
	}
	if s.journal != nil {
		js := s.journal.Stats()
		snap.Journal = &js
	}
	return snap
}

// Health is the readiness report /healthz serves. Liveness and
// readiness are different questions: a draining primary or a warm
// standby follower is alive (/livez says ok) but must not receive new
// hellos, so /healthz answers 503 with a JSON reason and load balancers
// stop routing to it.
type Health struct {
	// Status is "ok" (ready for new sessions) or "not-ready".
	Status string `json:"status"`
	// Reason says why the node is not ready ("draining", "follower");
	// empty when ready.
	Reason string `json:"reason,omitempty"`
	// Role is the node's cluster role when it runs in one ("primary",
	// "follower"); empty for a standalone server.
	Role string `json:"role,omitempty"`
}

// Ready reports whether the node should receive new sessions.
func (h Health) Ready() bool { return h.Status == "ok" }

// Health reports the server's own readiness: ok until Shutdown begins.
func (s *Server) Health() Health {
	if s.Draining() {
		return Health{Status: "not-ready", Reason: "draining"}
	}
	return Health{Status: "ok"}
}

// OpsHandler serves the operations endpoint:
//
//	GET /livez       liveness probe (always ok while the process runs)
//	GET /healthz     readiness probe: 503 not-ready while draining
//	GET /stats       full JSON Snapshot
//	GET /debug/vars  expvar (includes the "smoothd" snapshot)
func (s *Server) OpsHandler() http.Handler {
	return NewOpsHandler(s.Health, func() any { return s.Snapshot() })
}

// NewOpsHandler builds the operations mux every smoothd role serves:
// /livez answers ok while the process runs; /healthz encodes health()
// as JSON, with 503 when it is not ready; /stats encodes stats() as
// indented JSON; /debug/vars is expvar.
func NewOpsHandler(health func() Health, stats func() any) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := health()
		w.Header().Set("Content-Type", "application/json")
		if !h.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(stats()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}
