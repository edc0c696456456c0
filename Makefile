GO ?= go

.PHONY: all ci fmt vet one-engine build test race flake fuzz-short bench-short bench-schema interference-short chaos-short fed-short smoke repro loc pairs

all: ci

# Tier-1 gate (README "CI gate"): everything a change must keep green.
ci: fmt vet one-engine build test race fuzz-short bench-short bench-schema interference-short chaos-short fed-short smoke repro

# Formatting gate: fails listing any file gofmt would rewrite.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The GOARCH=386 pass type-checks the tree on a 32-bit target: the ring
# doorbell/sequence words are deliberately 32-bit atomics, and this
# catches any accidental 64-bit atomic that would trap unaligned there.
# The GOOS passes type-check the files Linux never builds: darwin the
# !linux fallbacks (gpusim's backing_other.go, shm's futex_other.go and
# hugepage_other.go), windows shm's !unix mmap_other.go.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=windows $(GO) vet ./internal/shm/

# The root package's rule tests: the architecture rules (DESIGN.md §3: one
# mechanism per concern) are the rows of TestArchitecture
# (architecture_test.go), each with its reason and the mutations that must
# make it fire; TestArchitectureRowsMatchDesignDoc ties the rows to
# DESIGN.md; TestNoTestOnlyCode (deadcode_test.go) is the dead-code guard.
one-engine:
	$(GO) test -run '^(TestArchitecture|TestArchitectureRowsMatchDesignDoc|TestNoTestOnlyCode)$$' -count=1 .

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test coupling (shared
# sockets, leaked state) surfaces in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

# Merge gate for anything touching the daemon stack (ROADMAP item 1): the
# four packages whose tests run real goroutines against each other, plus
# gpusim — a swap hands an arena's backing store across the gpusim/gvm
# boundary, and a cross-shard migration from a turn on one device
# to a turn on another — and vgpu, which runs the engine's calendar from a second
# front-end, and sim, whose worker coroutines every one of those Envs
# shares through one free list, and cuda, whose kernels keep the block
# context a serial run reuses beside the parallel executor's per-worker
# ones — 20 times in shuffled order under the race detector. Zero flakes
# allowed.
flake:
	$(GO) test -race -shuffle=on -count=20 ./internal/ipc/ ./internal/fed/ ./internal/transport/ ./internal/gvm/ ./internal/gpusim/ ./internal/vgpu/ ./internal/sim/ ./internal/cuda/

# Every Fuzz* target for FUZZTIME under -fuzz, one at a time (a plain
# `go test` runs only their seeds). An input that fails a target stops the
# run and stays in that package's testdata/fuzz/<target>/, where every later
# `go test` runs it as a seed.
FUZZTIME ?= 3s
fuzz-short:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd); do \
		for fz in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-short: $$fz ./$$(dirname $$f)"; \
			out=$$($(GO) test -run '^$$' -fuzz "^$$fz$$" -fuzztime $(FUZZTIME) ./$$(dirname $$f) 2>&1) || \
				{ echo "$$out"; exit 1; }; \
			echo "$$out" | tail -n 1; \
		done; \
	done

# Quick smoke of the data-plane hot-path benchmarks (executor, IPC
# framing, wire round trip, daemon cycle throughput, the evict+restore
# cycle, shm copies, simulator calendar and process switch) — catches perf regressions that break, not ones
# that merely slow down. Numbers a claim rests on come from
# `bash bench/run.sh` (BENCHMARK.json), never from here.
bench-short:
	$(GO) test -run '^$$' -bench 'IPCPipeRoundTrip|RingCycle|ShmPlaneCycle' -benchtime 20x -benchmem ./internal/transport/ ./internal/ipc/
	$(GO) test -run '^$$' -bench 'DaemonThroughput|OversubCycle' -benchtime 20x -benchmem ./internal/ipc/
	$(GO) test -run '^$$' -bench 'FunctionalExec|IPCFrame|ShmCopy|Calendar|Proc' -benchtime 100ms -benchmem ./...

# The BENCHMARK.json harness is its own module (bench/); its tests pin
# the metric schema and the spec table against BENCHMARK.json.
bench-schema:
	cd bench && $(GO) test ./...

# CI-sized chaos run: fault injection under 8-client pipelined load on a
# 2-shard daemon — no session lost, outputs byte-identical to a
# fault-free serial reference, both shards drained after release — plus
# the byte-identical mid-job drain migration over inproc:// and ring://, and
# ring REQs racing a drain of their shard.
chaos-short:
	$(GO) test -race -run 'TestChaosFaultInjection8Clients|TestDrainMigratesMidJobByteIdentical|TestRingREQRacesDrain' -count=1 ./internal/ipc/

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

# End-to-end daemon smoke: gvmd on a TCP loopback port, a two-process
# multiprocess round against it, non-empty turnaround output, and a
# well-formed /metrics scrape with nonzero verb counters.
smoke:
	./scripts/smoke.sh

# gvmbench's full output is the evaluation EXPERIMENTS.md quotes, and it
# regenerates byte for byte: the simulation is deterministic.
repro:
	$(GO) run ./cmd/gvmbench -experiment all | cmp - results/gvmbench_full.txt

# Size of the code a PR has to carry: non-test Go lines outside bench/,
# exported identifiers per internal/ package, and the findings of the
# test-only-code guard (TestNoTestOnlyCode). CHANGES.md entries quote its
# deltas against the parent commit.
loc:
	./scripts/loc.sh

# The paired-run protocol a performance claim rests on: PARENT (default the
# last commit) against this working tree on every BENCHMARK.json workload,
# alternating order; medians, pairs won, parent IQR, bounds, failed
# operations, every run, exact counters. Redirect into results/pairs/prNN.txt.
# Takes about a minute per run — 10 pairs x 4 workloads is over an hour; pass
# PAIRS_ARGS='-workload bulk-shm -pairs 4 -seconds 10' for less.
PARENT ?= HEAD
pairs:
	./scripts/pairs.sh $(PARENT) $(PAIRS_ARGS)
