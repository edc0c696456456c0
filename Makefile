GO ?= go

.PHONY: all ci fmt vet one-engine build test race flake bench-short bench-schema interference-short chaos-short fed-short smoke repro loc pairs

all: ci

# Tier-1 gate (README "CI gate"): everything a change must keep green.
ci: fmt vet one-engine build test race bench-short bench-schema interference-short chaos-short fed-short smoke repro

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

# One verb engine (DESIGN.md §3): internal/transport reaches gvm's verbs only
# through frameRun — no vgpu handle, one DirectVerb call site — so a second
# execution path cannot quietly come back. And one frame rule: the socket
# dispatcher, the ring host and the fed router each call transport.FrameSteps
# (exec.go), and none of transport or fed keeps rank bookkeeping of its own
# (lastRank, batchVerbRank) beside it. And one data plane: a session's plane
# is one concrete type per side (transport.Plane, hostPlane), so no non-test
# file of transport or ipc asks a plane which implementation it is, and no
# interface with a StageIn or Regions method exists for a second one to
# implement. And one session kind: gvm holds no transport — no segment, no
# message queue, no engine function that sleeps on its caller's process —
# and the mqueue front-end (vgpu) reaches the engine's verbs through one
# DirectVerb call site, like transport. And one process switch: a sim process
# is a coroutine on a pooled worker (internal/sim/proc.go), so non-test
# internal/sim holds no channel and starts no goroutine of its own — the
# two-channel goroutine hand-off cannot come back beside iter.Pull. And one
# way onto a shard: its owner is whoever holds its lock for a turn
# (ipc.Server.turn), so non-test internal/ipc declares no work queue, calls
# Env.Run() in that one function only, and starts no goroutine but the ring
# daemon's sweep loop (which parks on its doorbell itself), the accept and
# connection loops and the background evacuation — a per-shard owner
# goroutine cannot come back; and
# one process name for cold owner work, started in one place
# (transport.Dispatcher.onShard), never per frame. And one read buffer: a
# transport.Conn reads a frame into its own buffer and decodes it there, so
# non-test internal/transport does not import bufio — a second buffer in
# front of it splits a frame over its size into two reads and copies bytes
# out of itself. And one session state: gvm's session holds its protocol
# state as one value (phase and residency) that the (state, verb) table
# reads, so it declares none of the retired running, done, evicted or
# rerunPending bool fields beside it. And one way to build a manager: node
# builds the daemon's and the experiments' shards, spmd the paper's
# single-GPU runs and examples/quickstart shows the bare calls, so no other
# non-test code calls gvm.New( or vgpu.Serve( — a hand-built copy beside
# them is how a manager once staged pageable unnoticed — and gvm.Config
# declares no PinnedStaging, whose zero value was that ablation. And one
# way a ring session changes shards: a shard's ring sweep list is owner state
# that only turns on that shard change (join, leave, the sweep after a
# retire), and a moved client rings the door its ring header names — so
# non-test internal/transport uses no node.Drain side channel, RingShard
# declares no mutex and no Register, Unregister or Forward method, and
# internal/node declares no Drain type for a queue to come back through.
# And one frame per carrier: a decoded frame is the carrier's one retained
# value, passed by pointer from decode to encode and valid until the
# carrier's next read, so no function (or func literal) in non-test
# internal/transport, internal/ipc or internal/fed takes a Request or
# Response by value or returns one with an error — a by-value hop copies
# the frame and a second copy outlives the rule. The exception is the
# contiguous Encode*Binary API that bench/ calls. And one wire codec: every
# verb travels as a binary frame, and a migrating session as the binary
# blob gvm.ExtractedSession.Encode writes (MIG's answer, ADP's Data), so no
# non-test file of internal/transport or internal/gvm imports encoding/json
# — base64 inside JSON inside a frame is how a migration once cost 8/3 of
# its footprint. node's STA advertisement keeps its JSON: it is
# operator-facing. And one landing path and one move fence: a session lands
# on a node one way, serveREQ — an ADP is a REQ whose Data is a MIG blob, and
# gvm's AdoptSession mints its id — so non-test internal/transport declares
# no serveADP or adoptOwner beside it and internal/gvm exports no
# MintSessionID for a second landing to re-id through; and a socket frame is
# fenced from a move by the session's migMu alone, held from SND's staging
# copy to RCV's, so hostSession declares no migrating latch and no settle
# method to lift it — a latch beside the lock is how a SND raced a move and
# bounced. And one launch: gpusim.Context.Launch dispatches, waits and
# returns the kernel's fault, so its launch record can be recycled the
# moment its launcher wakes — non-test internal/gpusim declares no other
# exported Launch... method or type (the retired LaunchAsync,
# LaunchAsyncOpts, LaunchOptions), and non-test internal/gvm reaches its
# kernels only through Context.Launch, naming no other Launch... identifier:
# an async launch beside it is how an aborted kernel once read as success.
# And one restore: a session keeps its device addresses across an eviction,
# so its kernels and flush ops are built once (REQ or adoption) and a restore
# only puts its buffers back — non-test internal/gvm declares no bufReplay,
# gvm's resumeSession calls neither .Build( nor prepareOps(, and
# gpusim.Context.SwapIn places an address the caller already holds, so it
# returns only an error, never a fresh pointer a rebuild would have to chase.
one-engine:
	@! $(GO) list -f '{{join .Imports "\n"}}' ./internal/transport | grep -q internal/vgpu && [ $$(ls internal/transport/*.go | grep -v _test.go | xargs cat | grep -c 'DirectVerb(') -le 1 ] || { echo "internal/transport: a second verb path (imports internal/vgpu, or calls DirectVerb( in more than one place)"; exit 1; }
	@! $(GO) list -f '{{join .Imports "\n"}}' ./internal/transport | grep -qx bufio || { echo "internal/transport imports bufio: a connection has one read buffer (transport.Conn.rbuf), decoded in place"; exit 1; }
	@bad=$$(grep -lE 'lastRank|[bB]atch(Verb|Step)Rank' internal/transport/*.go internal/fed/*.go | grep -v -e _test.go -e internal/transport/exec.go); \
	for f in internal/transport/dispatch.go internal/transport/ringhost.go internal/fed/proxy.go; do \
		grep -q 'FrameSteps(' $$f || bad="$$bad $$f:no-FrameSteps-call"; done; \
	[ -z "$$bad" ] || { echo "the frame rule has forked (rank bookkeeping outside transport.FrameSteps, or a front-end not calling it):$$bad"; exit 1; }
	@bad=$$(grep -nE '\.\(\*?([A-Za-z]+\.)?[A-Za-z]*Plane\)|^[[:space:]]+(StageIn|Regions)\(' internal/transport/*.go internal/ipc/*.go | grep -v '_test\.go:'); \
	[ -z "$$bad" ] || { echo "the data plane has forked (a type assertion on a plane, or an interface declaring StageIn/Regions, in non-test transport/ipc code):"; echo "$$bad"; exit 1; }
	@bad=$$(grep -nE 'reply|Queue\[|onProc|^func (\([^)]*\) )?(serve|dispatch|flushBatch)\([^)]*\*sim\.Proc' internal/gvm/*.go | grep -v '_test\.go:'); \
	! $(GO) list -f '{{join .Imports "\n"}}' ./internal/gvm | grep -q internal/shm || bad="$$bad internal/gvm:imports-internal/shm"; \
	[ $$(ls internal/vgpu/*.go | grep -v _test.go | xargs cat | grep -c 'DirectVerb(') -le 1 ] || bad="$$bad internal/vgpu:second-DirectVerb(-call-site"; \
	[ -z "$$bad" ] || { echo "gvm has a second session kind again (a transport inside internal/gvm — shm import, reply, Queue[, onProc, an engine func taking *sim.Proc — or a second DirectVerb( call site in internal/vgpu):"; echo "$$bad"; exit 1; }
	@bad=$$(grep -nE '^[^/]*(\bchan\b|\bgo (func|[a-zA-Z_.]+\())' internal/sim/*.go | grep -v '_test\.go:'); \
	[ -z "$$bad" ] || { echo "internal/sim has a second switch mechanism (a channel or a go statement in non-test code; a process switch is the worker coroutine's next/yield):"; echo "$$bad"; exit 1; }
	@src=$$(ls internal/ipc/*.go | grep -v _test.go); \
	bad=$$(grep -nE 'workItem|chan +(workItem|func)|\[\]chan ' $$src); \
	gos=$$(grep -hoE '^[^/]*\bgo [a-zA-Z0-9_.]+\(' $$src | sed -E 's/.*\bgo //' | sort -u | grep -vxE 's\.(ringOwner|accept|serveConn|disp\.EvacuateShard)\('); \
	[ -z "$$gos" ] || bad="$$bad goroutine-started:$$gos"; \
	[ $$(cat $$src | grep -cE '\.Run\(\)') -eq 1 ] || bad="$$bad internal/ipc:Env.Run()-outside-the-turn"; \
	[ $$(ls internal/ipc/*.go internal/transport/*.go | grep -v _test.go | xargs cat | grep -c '"ipc-request"') -le 1 ] || bad="$$bad a-second-ipc-request-process"; \
	[ -z "$$bad" ] || { echo "a second way onto a shard (a work queue, a goroutine outside the allowed four, Env.Run() outside Server.turn, or a second ipc-request process site):"; echo "$$bad"; exit 1; }
	@bad=$$(awk '/^type session struct/ { f = 1 } f && /^}/ { f = 0 } f' $$(ls internal/gvm/*.go | grep -v _test.go) | \
		grep -E '^[[:space:]]*([A-Za-z_]+[[:space:]]*,[[:space:]]*)*(running|done|evicted|rerunPending)([[:space:]]*,[[:space:]]*[A-Za-z_]+)*[[:space:]]+bool\b'); \
	[ -z "$$bad" ] || { echo "gvm's session keeps its protocol state in flags again (a running, done, evicted or rerunPending bool beside the state value the table reads):"; echo "$$bad"; exit 1; }
	@bad=$$(grep -rnE '\b(gvm\.New|vgpu\.Serve)\(' --include='*.go' cmd examples internal | \
		grep -v -e '_test\.go:' -e '^internal/node/' -e '^internal/spmd/' -e '^examples/quickstart/'); \
	awk '/^type Config struct/ { f = 1 } f && /^}/ { f = 0 } f' $$(ls internal/gvm/*.go | grep -v _test.go) | \
		grep -qE '^[[:space:]]*PinnedStaging\b' && bad="$$bad gvm.Config:declares-PinnedStaging"; \
	[ -z "$$bad" ] || { echo "a second way to build a manager (gvm.New( or vgpu.Serve( outside internal/node, internal/spmd and examples/quickstart), or gvm.Config.PinnedStaging is back (the zero Config must stage pinned):"; echo "$$bad"; exit 1; }
	@src=$$(ls internal/transport/*.go | grep -v _test.go); \
	bad=$$( { grep -nE '\bnode\.Drain\b|^func \([A-Za-z_]+ \*RingShard\) (Register|Unregister|Forward)\(' $$src; \
		awk '/^type RingShard struct/ { f = 1 } f && /^}/ { f = 0 } f && /sync\.(RW)?Mutex/ { print FILENAME ":" FNR ": RingShard declares a mutex" }' $$src; \
		grep -nE '^type Drain\b' $$(ls internal/node/*.go | grep -v _test.go); } ); \
	[ -z "$$bad" ] || { echo "a ring session changes shards outside a turn again (node.Drain in internal/transport, a mutex or a Register/Unregister/Forward method on RingShard, or a Drain type in internal/node):"; echo "$$bad"; exit 1; }
	@bad=$$(grep -nE '^[^/]*\bfunc\b.*[( ](transport\.)?(Request|Response)[,)]' $$(ls internal/transport/*.go internal/ipc/*.go internal/fed/*.go | grep -v _test.go) | \
		grep -vE '^internal/transport/frame\.go:[0-9]+:func Encode(Request|Response)Binary\('); \
	[ -z "$$bad" ] || { echo "a frame travels by value (a Request or Response value parameter, or a (Request, error) / (Response, error) result, in non-test transport/ipc/fed; pass the carrier's retained frame by pointer):"; echo "$$bad"; exit 1; }
	@src=$$(ls internal/transport/*.go | grep -v _test.go); \
	bad=$$( { grep -nE '^func (\([^)]*\) )?(serveADP|adoptOwner)\(|^func \([A-Za-z_]+ \*hostSession\) settle\(' $$src; \
		awk '/^type hostSession struct/ { f = 1 } f && /^}/ { f = 0 } f && /^[[:space:]]*([A-Za-z_]+[[:space:]]*,[[:space:]]*)*migrating([[:space:]]*,|[[:space:]])/ { print FILENAME ":" FNR ": hostSession declares migrating" }' $$src; \
		grep -nE '^func \([^)]*\) MintSessionID\(' $$(ls internal/gvm/*.go | grep -v _test.go); } ); \
	[ -z "$$bad" ] || { echo "a second landing path or a second move fence (serveADP or adoptOwner in internal/transport, a migrating field or settle method on hostSession, or an exported gvm MintSessionID):"; echo "$$bad"; exit 1; }
	@bad=$$( { grep -nE '^func \([^)]*\) Launch[A-Z][A-Za-z]*\(|^type Launch[A-Z][A-Za-z]*\b' $$(ls internal/gpusim/*.go | grep -v _test.go); \
		grep -nE '\bLaunch[A-Z][A-Za-z]*' $$(ls internal/gvm/*.go | grep -v _test.go); } ); \
	grep -q '\.Launch(' $$(ls internal/gvm/*.go | grep -v _test.go) || bad="$$bad internal/gvm:no-Context.Launch-call"; \
	[ -z "$$bad" ] || { echo "a second kernel launch (an exported Launch... method or type beside Context.Launch in non-test internal/gpusim, or non-test internal/gvm reaching kernels other than through Context.Launch):"; echo "$$bad"; exit 1; }
	@src=$$(ls internal/gvm/*.go | grep -v _test.go); \
	bad=$$( { grep -nE '\bbufReplay\b' $$src; \
		awk '/^func \(m \*Manager\) resumeSession\(/ { f = 1 } f && /^}/ { f = 0 } f && /\.Build\(|prepareOps\(/ { print FILENAME ":" FNR ": " $$0 }' $$src; } ); \
	grep -qE '^func \(c \*Context\) SwapIn\([^)]*\) error \{' $$(ls internal/gpusim/*.go | grep -v _test.go) || bad="$$bad internal/gpusim:Context.SwapIn-does-not-return-only-error"; \
	[ -z "$$bad" ] || { echo "a restore rebuilds again (bufReplay in non-test internal/gvm, a .Build( or prepareOps( call in resumeSession, or gpusim.Context.SwapIn returning more than an error):"; echo "$$bad"; exit 1; }
	@! $(GO) list -f '{{join .Imports "\n"}}' ./internal/transport ./internal/gvm | grep -qx encoding/json || { echo "a second wire codec (non-test internal/transport or internal/gvm imports encoding/json; a migrating session travels as gvm.ExtractedSession.Encode's binary blob)"; exit 1; }

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
