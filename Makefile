GO ?= go

.PHONY: all build vet test check soak soak-overload soak-crash soak-flight soak-reconfig soak-memory fuzz fuzz-smoke fuzz-reconfig bench bench-json bench-sched bench-smoke bench-open-loop bench-durability bench-trace bench-reconfig metrics-demo clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tier-1 gate: everything must build, vet clean, and pass the race
# detector. -short skips the live TCP soaks (see `soak`).
check: build vet
	$(GO) test -race -short ./...

test:
	$(GO) test ./...

# Live TCP soaks over the netchaos fault-injection layer, including
# the killed-and-rolled-back replica recovery scenario (both run with
# the admin/metrics endpoint enabled) and the admin scrape test.
soak:
	$(GO) test -race -run 'TestLiveRecoverySoak|TestLiveClusterCommits|TestReconnectAfterPeerRestart|TestLiveAdminEndpoints' ./internal/transport

# Open-loop overload soak: live n=3 cluster behind the netchaos
# WAN profile (40 ms RTT), offered ~2x its measured saturation by
# >10,000 client sessions over a bounded connection pool; asserts
# bounded p99, flat goroutines/heap (via a real /metrics scrape),
# request-accounting conservation and engaged admission control.
# Fixed seed, ~45 s wall clock including the saturation probe.
soak-overload:
	$(GO) test -run 'TestLiveOverloadSoak' -timeout 300s -count=1 -v ./internal/harness

# Crash-restart soak: live n=3 cluster where every node persists
# commits through the WAL-backed durable ledger; one node is killed
# and rebooted six times under the seeded storage-fault injector
# (abrupt kill, kill mid-append, torn final record, deleted index,
# clean shutdown, flipped bit -> detected corruption -> wipe ->
# snapshot-transfer rebuild past the pruning horizon). Asserts every
# incarnation restores a tip the cluster agrees on and commits again.
soak-crash:
	$(GO) test -run 'TestAchillesCrashRestartSoak' -timeout 300s -count=1 -v ./internal/harness

# Flight-recorder soak: live n=3 cluster with every trace sampled;
# every node drops its votes to stall quorum assembly, each node's
# view timeout must produce a bounded, parseable anomaly dump whose
# spans correlate across nodes by trace ID at the stalled height, and
# liveness must resume once the drop lifts. Race-enabled.
soak-flight:
	$(GO) test -race -run 'TestFlightRecorderLiveSoak' -timeout 120s -count=1 -v ./internal/harness

# Rolling-upgrade reconfiguration soak: live n=3 cluster grown to n=5
# through chain-committed Add reconfigs, every member's ring key
# rotated epoch by epoch (including a crash mid-epoch-change and a
# reboot that recovers with a stale boot key), then a member evicted —
# whose old-epoch credentials are refused by the survivors' transport.
# Clients keep committing throughout; one-block-per-height safety is
# cross-checked on every node.
soak-reconfig:
	$(GO) test -run 'TestReconfigRollingUpgradeSoak' -timeout 300s -count=1 -v ./internal/harness

# Bounded-memory soak: live n=3 durable cluster held flat (heap +
# goroutines, via runtime sampling after GC) across >=20 snapshot +
# WAL-truncation cycles with two key rotations interleaved, asserting
# the WAL segment population stays bounded.
soak-memory:
	$(GO) test -run 'TestBoundedMemorySnapshotCycles' -timeout 300s -count=1 -v ./internal/harness

# Adversarial invariant-checking fuzzer (internal/adversary): 500
# seeded scenarios mixing active Byzantine replicas, crash/reboot with
# sealed-storage rollback, and pre-GST network faults, plus a
# weakened-checker sweep where the invariants must catch the attack,
# plus coverage-guided fuzzing of the wire-frame decoder.
fuzz: build
	$(GO) run ./cmd/achilles-sim -fuzz -seeds 500
	$(GO) run ./cmd/achilles-sim -fuzz -seeds 50 -fuzz-weaken
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=60s -run '^$$' ./internal/transport
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=60s -run '^$$' ./internal/wal

# Quick CI variant of the above.
fuzz-smoke: build
	$(GO) run ./cmd/achilles-sim -fuzz -seeds 50
	$(GO) run ./cmd/achilles-sim -fuzz -seeds 10 -fuzz-weaken
	$(GO) test -fuzz=FuzzFrameDecode -fuzztime=30s -run '^$$' ./internal/transport
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=30s -run '^$$' ./internal/wal

# Seeded fuzz sweep with chain-driven reconfigs (add/remove/rotate)
# interleaved into every scenario alongside Byzantine replicas,
# rollback attacks and network faults; the epoch-aware invariant
# checker must find no safety violation.
fuzz-reconfig: build
	$(GO) run ./cmd/achilles-sim -fuzz -seeds 200 -reconfig

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Machine-readable benchmark artifact (quick windows): per-protocol
# throughput, mean/p50/p99 latency and message complexity, plus the
# live pipeline-depth ablation, the live open-loop
# overload rows (WAN profile, 1x/2x saturation), the durability
# table (WAL fsync policies + cold-restart cost) and the trace
# breakdown (per-stage attribution, critical-path coverage, sampling
# overhead).
bench-json:
	$(GO) run ./cmd/achilles-bench -quick -faults 1,2,4 -fig 3cd -sched-ablation -open-loop -durability -trace-breakdown -reconfig -json BENCH_achilles.json

# Live loopback TCP pipeline-depth ablation only (full windows):
# saturated n=5 throughput at chained-pipelining depths 1/2/4/8.
bench-sched:
	$(GO) run ./cmd/achilles-bench -sched-ablation

# CI pipelining gate (reduced windows): a live loopback n=3 cluster at
# depth 4 must commit at least as much as at depth 1.
bench-smoke:
	$(GO) test -run 'TestPipelineSpeedupSmoke' -timeout 120s -count=1 -v ./internal/harness

# Live open-loop overload rows only (full windows): n=3 cluster with
# mempool admission control behind the netchaos WAN profile,
# offered 1x and 2x its measured saturation.
bench-open-loop:
	$(GO) run ./cmd/achilles-bench -open-loop

# Durability rows only (full windows): committed throughput per WAL
# fsync policy (vs the in-memory baseline) and cold-restart cost from
# snapshot+suffix vs a full WAL replay, on a live loopback cluster.
bench-durability:
	$(GO) run ./cmd/achilles-bench -durability

# Trace-breakdown rows only (full windows): per-stage span latency
# attribution merged across a live n=3 cluster with every trace
# sampled, critical-path coverage of end-to-end commit latency, and
# the committed-throughput cost of default 1/64 sampling vs disabled.
bench-trace:
	$(GO) run ./cmd/achilles-bench -trace-breakdown -json BENCH_achilles.json

# Reconfiguration rows only (full windows): epoch-activation latency
# (submit -> cluster-wide activation at h+delta) and the committed-
# throughput dip across the window, per successive key rotation on a
# live n=3 cluster.
bench-reconfig:
	$(GO) run ./cmd/achilles-bench -reconfig -json BENCH_achilles.json

# Boot a local 3-node cluster with the admin endpoint on node 0,
# scrape /metrics and /status, then tear everything down.
metrics-demo: build
	./scripts/metrics-demo.sh

clean:
	$(GO) clean ./...
