# Lossless smoothing of MPEG video — build and reproduction targets.

GO ?= go

# Every target below that selects tests by name checks first that each
# name (or prefix) in its pattern still lists a test in its packages, so
# a renamed test fails the target instead of silently running nothing.
REQUIRE_TESTS = GO=$(GO) bash scripts/require-tests.sh

.PHONY: all build test test-race vet bench benchpair muxbench chaos datagram dgfuzz fadingsweep crash cluster framefuzz journal protocol results examples loc clean

all: build vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The batch runner (SmoothAll) shards streams across a worker pool;
# the race detector guards the sharding and the shared Config values.
test-race:
	$(GO) test -race ./...

# The chaos suite: fault-injected soaks (corruption, resets, stalls)
# under the race detector — resumable streams must complete byte-exact.
chaos:
	$(REQUIRE_TESTS) 'Chaos|Resum|Stall|Fault|Malformed|Partition' ./internal/server/ ./internal/transport/ ./internal/faultnet/
	$(GO) test -race -v -run 'Chaos|Resum|Stall|Fault|Malformed|Partition' ./internal/server/ ./internal/transport/ ./internal/faultnet/

# The datagram acceptance soak: resumable streams over the selective-
# repeat ARQ transport, with packet drops, Gilbert–Elliott burst
# outages, duplication, and reordering injected in BOTH directions
# across fixed seeds — byte-exact completion, exactly-once admission,
# zero leaked reservations, race-mode.
datagram:
	$(REQUIRE_TESTS) 'TestDatagramChaosSoak' ./internal/server/
	$(GO) test -race -v -run 'TestDatagramChaosSoak' -count=1 ./internal/server/

# The datagram frame fuzzer: arbitrary bytes against the packet codec
# (decode must never panic, accepted packets re-encode byte-identically)
# and as hostile delivery scripts against a receiving ARQ flow (the
# stream layer must only ever see an in-order prefix).
dgfuzz:
	$(REQUIRE_TESTS) 'FuzzDatagramFrame' ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzDatagramFrame -fuzztime 10s ./internal/transport/

# Regenerate the fading-channel sweep: admissible load for raw vs
# smoothed schedules under block fading with deadline-bound ARQ.
fadingsweep:
	$(GO) run ./cmd/experiments -fig fading -out results

# The kill-and-restart chaos harness: the server is killed mid-stream
# (journal abandoned, connections dropped) and restarted from the
# journal on the same address, repeatedly, across fixed seeds. Byte-
# exact delivery, exactly one admission per client across generations,
# zero leaked reservations.
crash:
	$(REQUIRE_TESTS) 'TestCrash' ./internal/server/
	$(GO) test -race -v -run 'TestCrash' -count=1 ./internal/server/

# The multi-node failover harness: WAL replication to a warm-standby
# follower, promotion after the primary process is killed AND its
# journal dir deleted, sharded redirect placement, the quorum-2 chaos
# schedules (kill-primary with no catch-up gate, kill-follower,
# partition-then-heal with epoch fencing) and the node lifecycle's
# transition table — all race-mode — plus the OS-process failover and
# quorum smokes driving the real binary. The two stop-during-bring-up
# races repeat five times, so a change that reopens either window fails.
cluster:
	$(REQUIRE_TESTS) 'TestFailover|TestFollower|TestSharded|TestRing|TestQuorum|TestTwoFollower|TestNode' ./internal/cluster/
	$(REQUIRE_TESTS) 'TestNodeStopDuringPromotion|TestNodeShutdownDuringDemotion' ./internal/cluster/
	$(REQUIRE_TESTS) 'TestClusterFailoverSmoke|TestClusterQuorumSmoke' ./cmd/smoothd/
	$(GO) test -race -v -run 'TestFailover|TestFollower|TestSharded|TestRing|TestQuorum|TestTwoFollower|TestNode' -count=1 ./internal/cluster/
	$(GO) test -race -run 'TestNodeStopDuringPromotion|TestNodeShutdownDuringDemotion' -count=5 ./internal/cluster/
	$(GO) test -v -run 'TestClusterFailoverSmoke|TestClusterQuorumSmoke' -count=1 ./cmd/smoothd/

# The frame fuzzers: arbitrary bytes against the shared frame codec
# (truncations, CRC flips, oversized lengths must never panic or
# over-read; accepted frames re-encode byte for byte), against the
# stream wire's message decoder, and read as an MSRP stream.
framefuzz:
	$(REQUIRE_TESTS) 'FuzzFrame' ./internal/frame/
	$(REQUIRE_TESTS) 'FuzzFrameReader' ./internal/transport/
	$(REQUIRE_TESTS) 'FuzzReplFrame' ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzFrame -fuzztime 10s ./internal/frame/
	$(GO) test -run '^$$' -fuzz FuzzFrameReader -fuzztime 10s ./internal/transport/
	$(GO) test -run '^$$' -fuzz FuzzReplFrame -fuzztime 10s ./internal/cluster/

# The journal's own suite: CRC-framed WAL round-trips, torn-write and
# fsync-error fault injection, deterministic tail truncation, replay
# idempotence, segment rotation/compaction — plus a fuzz smoke over
# the replay path.
journal:
	$(GO) test -race -v -count=1 ./internal/journal/
	$(REQUIRE_TESTS) 'FuzzJournalReplay' ./internal/journal/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/journal/

# The exactly-once protocol property harness: every handshake message
# class dropped and corrupted, and each verdict's write reset, on both
# sides of the wire — single faults, curated compound schedules, and
# seeded random compound schedules — across 8 fixed seeds. No double
# reservation, no byte divergence, no spurious rejection. Then the
# handshake pins: one reservation per nonce (also for a hello repeated
# while its admission commits), a rolled-back admission counted once,
# resumes racing a finish, a cancel while a reattach holds its claim,
# Serve on a stopped server, a parked stream kept across Shutdown, and a
# rate frame mid-stream failing its stream. Last, the client's half:
# ResumableSender against a scripted server, one row per reply.
PROTOCOL_TESTS = TestProtocolExactlyOnce|TestProtocolRandomizedCompound|TestHelloNonceReservesOnce|TestDupHelloDuringAdmissionCommit|TestRolledBackAdmissionCountedOnce|TestResumeRacingFinish|TestCancelWhileClaimedClosesReattach|TestServeAfterStopReleasesListener|TestShutdownKeepsParkedStreamRecoverable|TestRateFrameMidStreamFailsStream
CLIENT_PROTOCOL_TESTS = TestResumableSenderAnswers
protocol:
	$(REQUIRE_TESTS) '$(PROTOCOL_TESTS)' ./internal/server/
	$(REQUIRE_TESTS) '$(CLIENT_PROTOCOL_TESTS)' ./internal/transport/
	$(GO) test -race -v -run '$(PROTOCOL_TESTS)' -count=1 ./internal/server/
	$(GO) test -race -v -run '$(CLIENT_PROTOCOL_TESTS)' -count=1 ./internal/transport/

# Regenerate every figure of the paper's evaluation (plus extensions)
# into results/ as CSV, with console summaries.
results:
	$(GO) run ./cmd/experiments -fig all -out results

# Time the regeneration of every figure and the core primitives,
# without re-running the unit tests.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# The benchmark (bench/) on two revisions in alternating pairs, with
# each side's medians and quartiles, the pair wins and the verdict
# against BENCHMARK.json's bounds (scripts/benchpair.sh), e.g.
#   make benchpair BASE=HEAD~1 WORKLOAD=ingest_journal PAIRS=10 SEED=1
BASE ?= HEAD~1
CHANGE ?= HEAD
WORKLOAD ?= ingest_journal
PAIRS ?= 10
SEED ?= 1
BENCH_SECONDS ?= 15
benchpair:
	bash scripts/benchpair.sh $(BASE) $(CHANGE) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED) --seconds $(BENCH_SECONDS)

# The event-engine scale benchmark: the seed heap scheduler vs the
# timing-wheel engine (per-cell and fluid) on the 1000-source
# multiplexing workload, recorded to BENCH_netsim.json. MUXBENCH_FLAGS
# can pass -short for the CI-sized workload.
muxbench:
	$(GO) test $(MUXBENCH_FLAGS) -run TestMuxBenchArtifact -count=1 \
		./internal/netsim/ -muxbench-out $(CURDIR)/BENCH_netsim.json
	@cat BENCH_netsim.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/livepipe
	$(GO) run ./examples/livesmoother
	$(GO) run ./examples/multiplex
	$(GO) run ./examples/encodepipeline

# Non-test Go lines per package outside bench/, then the total: the
# count a simplicity claim quotes.
loc:
	bash scripts/loc.sh

clean:
	rm -f test_output.txt bench_output.txt
