GO ?= go

.PHONY: all ci fmt vet build test race bench bench-short bench-schema bench-json interference-short chaos-short fed-short smoke

all: ci

# Tier-1 gate (README "CI gate"): everything a change must keep green.
ci: fmt vet build test race bench-short bench-schema interference-short chaos-short fed-short smoke

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The GOARCH=386 pass type-checks the tree on a 32-bit target: the ring
# doorbell/sequence words are deliberately 32-bit atomics, and this
# catches any accidental 64-bit atomic that would trap unaligned there.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test coupling (shared
# sockets, leaked state) surfaces in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# Quick smoke of the data-plane hot-path benchmarks (executor, IPC
# framing, wire round trip, daemon cycle throughput, shm copies,
# simulator calendar) — catches perf regressions that break, not ones
# that merely slow down.
bench-short:
	$(GO) test -run '^$$' -bench 'IPCPipeRoundTrip|RingCycle|ShmPlaneCycle' -benchtime 20x -benchmem ./internal/transport/ ./internal/ipc/
	$(GO) test -run '^$$' -bench 'DaemonThroughput' -benchtime 20x -benchmem ./internal/ipc/
	$(GO) test -run '^$$' -bench 'FunctionalExec|IPCFrame|ShmCopy|Calendar' -benchtime 100ms -benchmem ./...

# The BENCHMARK.json harness is its own module (bench/); its tests pin
# the metric schema and the spec table against BENCHMARK.json.
bench-schema:
	cd bench && $(GO) test ./...

# CI-sized chaos run: fault injection under 8-client pipelined load on a
# 2-shard daemon — no session lost, outputs byte-identical to a
# fault-free serial reference, both shards drained after release — plus
# the byte-identical mid-job drain migration.
chaos-short:
	$(GO) test -race -run 'TestChaosFaultInjection8Clients|TestDrainMigratesMidJobByteIdentical' -count=1 ./internal/ipc/

# CI-sized federation run: the gvmfed router's policy matrix
# (byte-identical to direct single-node), the cross-node mid-job live
# migration, and the 8-client kill-one-backend chaos round — all under
# the race detector.
fed-short:
	$(GO) test -race -run 'TestFederationMatrixByteIdentical|TestCrossNodeMigrationMidJobByteIdentical|TestFederationChaosKillNodeMidRun' -count=1 ./internal/fed/

# CI-sized QoS interference run: asserts weighted-fair co-location keeps
# the latency tenant's p99 within 2x solo while the FIFO baseline blows
# past it, with <= 15% batch throughput cost and byte-identical outputs.
interference-short:
	$(GO) test -run TestInterferenceShort -count=1 ./internal/experiments/

# Full benchmark matrix: data-plane microbenchmarks plus daemon cycle
# throughput at 1/2/4/8 clients over inproc/unix/tcp/ring, pipelined vs
# serial, the shard-scaling sweep (1/2/4 GPUs x 1/4/8 clients), the
# federated throughput sweep (gvmfed fronting 1/2 nodes x 1/4/8
# clients, quantifying the proxy hop against the direct numbers), the
# memory-oversubscription sweep (sessions totaling 1x/2x/4x device
# memory: swap traffic and p99 turnaround), and the QoS interference
# co-location sweep (solo vs FIFO vs weighted-fair tail latency, batch
# throughput cost, 1:2:4 fairness races), written as this PR's JSON
# artifact: results/BENCH_pr$(PR).json. PR defaults to the commit count,
# which only grows, so a new run never overwrites an older artifact; name
# it after the PR with `make bench PR=15`.
PR ?= $(shell git rev-list --count HEAD)
bench:
	$(GO) run ./cmd/gvmbench -benchjson results/BENCH_pr$(PR).json

# Regenerate the machine-readable hot-path numbers (alias of bench;
# earlier PR artifacts are kept as historical records).
bench-json: bench

# End-to-end daemon smoke: gvmd on a TCP loopback port, a two-process
# multiprocess round against it, non-empty turnaround output, and a
# well-formed /metrics scrape with nonzero verb counters.
smoke:
	./scripts/smoke.sh
