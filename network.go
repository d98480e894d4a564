package mpegsmooth

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"strings"

	"mpegsmooth/internal/core"
	"mpegsmooth/internal/netsim"
	"mpegsmooth/internal/server"
	"mpegsmooth/internal/trace"
	"mpegsmooth/internal/transport"
	"mpegsmooth/internal/vbv"
)

// Network-facing re-exports: the finite-buffer multiplexer simulator
// (the paper's statistical-multiplexing motivation) and the paced
// transport (the notify(i, rate) contract over a real connection).
type (
	// MuxRunConfig describes one multiplexing simulation.
	MuxRunConfig = netsim.RunConfig
	// MuxStats counts cells through the multiplexer.
	MuxStats = netsim.MuxStats
	// MuxRunResult is MuxStats plus per-source emission/loss counts.
	MuxRunResult = netsim.RunResult
	// MuxSourceStats counts one source's cells through the multiplexer.
	MuxSourceStats = netsim.SourceStats

	// FluidConfig describes one batched fluid multiplexing simulation:
	// the mode that scales to thousands of streams by accounting cells
	// analytically between rate-change events.
	FluidConfig = netsim.FluidConfig
	// FluidStream is one stream of a fluid simulation (rate function,
	// start offset, optional bandwidth-limiting shaper).
	FluidStream = netsim.FluidStream
	// FluidResult is the analytic outcome of a fluid simulation.
	FluidResult = netsim.FluidResult
	// FluidSourceStats is one stream's fluid cell accounting.
	FluidSourceStats = netsim.FluidSourceStats
	// ShaperConfig parameterizes a limited-bandwidth connection: a
	// dual-rate token-bucket shaper that delays (rather than drops)
	// traffic exceeding its sustained/peak contract.
	ShaperConfig = netsim.ShaperConfig

	// OnOffParetoConfig parameterizes a seeded long-range-dependent
	// on/off background traffic source.
	OnOffParetoConfig = trace.OnOffParetoConfig

	// Sender paces a smoothed schedule over a connection.
	Sender = transport.Sender
	// Report summarizes a transport receive session.
	Report = transport.Report
	// ReceivedPicture records one picture at the receiver.
	ReceivedPicture = transport.ReceivedPicture
	// RateNotification is the notify(i, rate) wire message.
	RateNotification = transport.RateNotification

	// Receiver is the configurable receive loop (read deadlines for
	// stalled senders); the zero value matches Receive.
	Receiver = transport.Receiver
	// FrameWriter frames outbound messages with CRC32 checksums and
	// per-connection sequence numbers; one per connection write side.
	FrameWriter = transport.FrameWriter
	// FrameReader unframes and verifies inbound messages; one per
	// connection read side.
	FrameReader = transport.FrameReader
	// StreamHello opens a stream session with a smoothd server: the
	// declared encoding parameters and peak smoothed rate.
	StreamHello = transport.StreamHello
	// StreamResume reopens a disconnected stream session by its token.
	StreamResume = transport.StreamResume
	// Verdict is the server's admission answer to a StreamHello or
	// StreamResume.
	Verdict = transport.Verdict
	// VerdictCode classifies an admission decision.
	VerdictCode = transport.VerdictCode

	// ResumableSender is smoothd's client: dial, handshake, upload each
	// picture at its encoder arrival, and on a transient fault redial
	// with jittered exponential backoff and replay from NextIndex.
	ResumableSender = transport.ResumableSender
	// Backoff shapes the reconnect delays.
	Backoff = transport.Backoff
	// ResumeEvent reports one reconnect-loop transition.
	ResumeEvent = transport.ResumeEvent
	// StreamResult summarizes a resumable stream session.
	StreamResult = transport.StreamResult
	// FaultClass buckets transport failures (corrupt, timeout, reset).
	FaultClass = transport.FaultClass
	// IntegrityMode selects the prefix-verification hash a stream
	// session negotiates in its hello (FNV-1a by default, or keyed
	// HMAC-SHA256 for senders that must not trust the path).
	IntegrityMode = transport.IntegrityMode

	// DatagramConfig tunes the selective-repeat ARQ layer that presents
	// a lossy packet channel as a reliable ordered connection.
	DatagramConfig = transport.DatagramConfig
	// DGConn is one ARQ flow: a net.Conn whose bytes ride sequenced,
	// CRC-framed, selectively-acknowledged datagrams.
	DGConn = transport.DGConn
	// DGStats counts one ARQ flow's packet-level events.
	DGStats = transport.DGStats
	// DatagramListener accepts ARQ flows demultiplexed from a single
	// packet socket, presented as a net.Listener.
	DatagramListener = transport.DatagramListener

	// Policer is a token-bucket usage-parameter-control element that
	// checks traffic against its declared rates.
	Policer = netsim.Policer
	// Admission is a peak-rate admission controller for a shared link:
	// the lossless analogue of the paper's multiplexing experiment.
	Admission = netsim.Admission

	// Smoothd is the multi-stream smoothing server: admission control,
	// one smoothing session per stream, shared paced egress, and an
	// operations endpoint.
	Smoothd = server.Server
	// SmoothdConfig parameterizes a Smoothd server.
	SmoothdConfig = server.Config
	// SmoothdSnapshot is the ops view of a running server.
	SmoothdSnapshot = server.Snapshot
	// SmoothdStreamCounts are the admission/lifecycle counters.
	SmoothdStreamCounts = server.StreamCounts
	// SmoothdStreamSnapshot is the ops view of one stream.
	SmoothdStreamSnapshot = server.StreamSnapshot

	// VBVAnalysis reports the decoder-side buffering a schedule demands:
	// minimum start-up delay (= the schedule's maximum picture delay,
	// which Theorem 1 bounds by D) and peak buffer occupancy.
	VBVAnalysis = vbv.Analysis
)

// CellBits is the fixed cell size of the multiplexer model (ATM: 53
// bytes).
const CellBits = netsim.CellBits

// Admission verdict codes.
const (
	// StreamAdmitted: the declared peak has been reserved; stream away.
	StreamAdmitted = transport.Admitted
	// StreamRejectedCapacity: the declared peak does not fit in the
	// link capacity still available.
	StreamRejectedCapacity = transport.RejectedCapacity
	// StreamRejectedMalformed: the hello was missing or invalid.
	StreamRejectedMalformed = transport.RejectedMalformed
	// StreamRejectedBusy: stream limit reached or server draining.
	StreamRejectedBusy = transport.RejectedBusy
	// StreamAlreadyComplete: the resumed stream had already been fully
	// accepted; the verdict carries the final watermark and prefix hash
	// so the sender can confirm byte-exact delivery despite a lost ack.
	StreamAlreadyComplete = transport.AlreadyComplete
)

// Prefix-integrity modes (see IntegrityMode).
const (
	// IntegrityFNV: FNV-1a chained over per-picture length and CRC
	// digests of the accepted prefix — fast corruption detection, the
	// wire-format default.
	IntegrityFNV = transport.IntegrityFNV
	// IntegrityHMAC: chained HMAC-SHA256 under a shared key — prefix
	// verification an on-path attacker cannot forge.
	IntegrityHMAC = transport.IntegrityHMAC
)

// Fault classes (see ClassifyFault).
const (
	// FaultNone: no fault (orderly close or nil error).
	FaultNone = transport.FaultNone
	// FaultCorrupt: CRC mismatch, sequence discontinuity, or nonsense
	// field values — the wire cannot be trusted.
	FaultCorrupt = transport.FaultCorrupt
	// FaultTimeout: a read or write deadline expired.
	FaultTimeout = transport.FaultTimeout
	// FaultReset: the connection dropped or was truncated mid-message.
	FaultReset = transport.FaultReset
	// FaultReorderOverflow: a datagram flow's reassembly window
	// overflowed — displacement beyond what the ARQ can absorb.
	FaultReorderOverflow = transport.FaultReorderOverflow
	// FaultRetransmitExhausted: a datagram went unacknowledged through
	// the whole retransmission schedule — the packet channel is dead.
	FaultRetransmitExhausted = transport.FaultRetransmitExhausted
	// FaultStaleDuplicate: traffic from a previous flow incarnation
	// contradicted the current one.
	FaultStaleDuplicate = transport.FaultStaleDuplicate
	// FaultOther: anything else; terminal, never retried.
	FaultOther = transport.FaultOther
)

// RunMux simulates rate-scheduled sources through a shared finite-buffer
// multiplexer and returns loss statistics.
func RunMux(cfg MuxRunConfig) (MuxStats, error) { return netsim.Run(cfg) }

// RunMuxDetailed is RunMux plus per-source emission and loss counts.
func RunMuxDetailed(cfg MuxRunConfig) (MuxRunResult, error) { return netsim.RunDetailed(cfg) }

// RunMuxFluid simulates streams through a shared finite-buffer
// multiplexer in batched fluid mode: event count scales with rate
// breakpoints rather than cells, so thousands of streams are practical.
func RunMuxFluid(cfg FluidConfig) (*FluidResult, error) { return netsim.RunFluid(cfg) }

// OnOffPareto generates the rate function of a seeded on/off background
// source with truncated-Pareto sojourn times; superpositions of such
// sources exhibit the long-range dependence of real network traffic.
func OnOffPareto(cfg OnOffParetoConfig) (*StepFunc, error) { return trace.OnOffPareto(cfg) }

// Receive drains a sender's stream until its end marker, recording
// per-picture arrival times, integrity hashes, and rate notifications.
func Receive(ctx context.Context, conn io.Reader) (*Report, error) {
	return transport.Receive(ctx, conn)
}

// PayloadSum64 is the integrity hash the receiver records per picture.
func PayloadSum64(payload []byte) uint64 { return transport.PayloadSum64(payload) }

// NewPolicer creates a token-bucket policer with the given burst
// tolerance in bits.
func NewPolicer(burstBits float64) (*Policer, error) { return netsim.NewPolicer(burstBits) }

// NewAdmission creates a peak-rate admission controller for a link of
// the given capacity in bits/second.
func NewAdmission(capacity float64) (*Admission, error) { return netsim.NewAdmission(capacity) }

// NewSmoothd validates the configuration and prepares a smoothd server;
// drive it with Serve and stop it with Shutdown.
func NewSmoothd(cfg SmoothdConfig) (*Smoothd, error) { return server.New(cfg) }

// NewFrameWriter wraps a connection's write side in the CRC-framed wire
// protocol; the same writer must carry the handshake and the stream.
func NewFrameWriter(w io.Writer) *FrameWriter { return transport.NewFrameWriter(w) }

// NewFrameReader wraps a connection's read side in the CRC-framed wire
// protocol.
func NewFrameReader(r io.Reader) *FrameReader { return transport.NewFrameReader(r) }

// ClassifyFault buckets a transport error into a FaultClass for
// accounting and retry policy.
func ClassifyFault(err error) FaultClass { return transport.ClassifyFault(err) }

// NewDatagramClientConn runs a selective-repeat ARQ flow over a
// connected packet conn (one datagram per Write), presenting it as a
// reliable ordered net.Conn with deadline support.
func NewDatagramClientConn(pc net.Conn, cfg DatagramConfig) *DGConn {
	return transport.NewDatagramClientConn(pc, cfg)
}

// DialDatagram opens a UDP socket to addr and starts an ARQ flow on it.
func DialDatagram(addr string, cfg DatagramConfig) (*DGConn, error) {
	return transport.DialDatagram(addr, cfg)
}

// ListenDatagram demultiplexes ARQ flows arriving on one packet socket
// into accepted connections: the datagram counterpart of a TCP
// listener, so a smoothd server can serve lossy packet channels with
// the stream protocol unchanged.
func ListenDatagram(pc net.PacketConn, cfg DatagramConfig) *DatagramListener {
	return transport.ListenDatagram(pc, cfg)
}

// ParseIntegrity parses an -integrity flag value: "fnv" (the default,
// no key) or "hmac-sha256:<keyfile>", reading the shared key from the
// named file with surrounding whitespace trimmed.
func ParseIntegrity(spec string) (IntegrityMode, []byte, error) {
	switch {
	case spec == "" || spec == "fnv":
		return IntegrityFNV, nil, nil
	case strings.HasPrefix(spec, "hmac-sha256:"):
		path := strings.TrimPrefix(spec, "hmac-sha256:")
		if path == "" {
			return 0, nil, fmt.Errorf("mpegsmooth: integrity mode hmac-sha256 needs a keyfile: hmac-sha256:<keyfile>")
		}
		key, err := os.ReadFile(path)
		if err != nil {
			return 0, nil, fmt.Errorf("mpegsmooth: reading integrity key: %w", err)
		}
		key = bytes.TrimSpace(key)
		if len(key) == 0 {
			return 0, nil, fmt.Errorf("mpegsmooth: integrity keyfile %s is empty", path)
		}
		return IntegrityHMAC, key, nil
	default:
		return 0, nil, fmt.Errorf("mpegsmooth: unknown integrity mode %q (want fnv or hmac-sha256:<keyfile>)", spec)
	}
}

// AnalyzeVBV computes the minimum decoder start-up delay and peak
// decoder buffer occupancy implied by a schedule (the MPEG "model
// decoder" view of smoothing).
func AnalyzeVBV(s *core.Schedule) (VBVAnalysis, error) { return vbv.Analyze(s) }

// CheckVBV verifies that decoding with the given start-up delay and
// buffer capacity (bits) neither underflows nor overflows.
func CheckVBV(s *core.Schedule, startup, bufferBits float64) error {
	return vbv.Check(s, startup, bufferBits)
}
