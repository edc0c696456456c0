#!/bin/sh
# End-to-end smoke test: a 2-shard gvmd daemon on a TCP loopback port,
# driven by the multiprocess example as four real client processes.
# Passes only if every worker verifies its results and reports a
# turnaround time, and the daemon's /metrics endpoint serves well-formed
# Prometheus text with nonzero verb counters and sessions placed on BOTH
# gpu labels after the round, and the same listener serves /debug/pprof/
# and answers 404 on any other path.
set -eu

# fetch URL: curl if present, wget fallback.
fetch() {
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$1"
    elif command -v wget >/dev/null 2>&1; then
        wget -qO- "$1"
    else
        echo "smoke: neither curl nor wget available" >&2
        return 1
    fi
}

# status URL: the HTTP status code a GET of URL answers.
status() {
    if command -v curl >/dev/null 2>&1; then
        curl -s -o /dev/null -w '%{http_code}' "$1"
    else
        wget -S -O /dev/null "$1" 2>&1 | awk '/HTTP\//{c=$2} END{print c}'
    fi
}

# check_pprof METRICS_URL WHO: the -metrics listener (metrics.Serve, the
# one debug listener) also serves /debug/pprof/. Its allocation profile in
# text form ends in the runtime.MemStats trailer the benchmark reads, its
# CPU profile is the gzip'd protobuf `go tool pprof` reads, and any path it
# does not serve answers 404.
check_pprof() {
    base=${1%/metrics}
    prof=$(fetch "$base/debug/pprof/allocs?debug=1")
    if ! echo "$prof" | grep -q '^# runtime.MemStats'; then
        echo "smoke: $2's metrics listener serves no /debug/pprof/allocs MemStats trailer" >&2
        exit 1
    fi
    magic=$(fetch "$base/debug/pprof/profile?seconds=1" | head -c 2 | od -An -tx1 | tr -d ' \n')
    if [ "$magic" != 1f8b ]; then
        echo "smoke: $2's /debug/pprof/profile is not gzip'd (starts '$magic')" >&2
        exit 1
    fi
    code=$(status "$base/nope")
    if [ "$code" != 404 ]; then
        echo "smoke: $2's metrics listener answers $code, not 404, on /nope" >&2
        exit 1
    fi
    echo "smoke: $2 pprof OK"
}

workdir=$(mktemp -d)
bindir="$workdir/bin"
addrfile="$workdir/gvmd.addr"
logfile="$workdir/gvmd.log"
gvmd_pid=""

cleanup() {
    if [ -n "$gvmd_pid" ] && kill -0 "$gvmd_pid" 2>/dev/null; then
        kill "$gvmd_pid" 2>/dev/null || true
        wait "$gvmd_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "smoke: building gvmd and the multiprocess example"
${GO:-go} build -o "$bindir/gvmd" ./cmd/gvmd
${GO:-go} build -o "$bindir/multiprocess" ./examples/multiprocess

echo "smoke: starting a 2-shard gvmd on a TCP loopback port"
# Two shards at -parties 2 each: the 4 workers split 2/2 under
# least-sessions placement and each shard's own STR barrier fills.
"$bindir/gvmd" -listen tcp://127.0.0.1:0 -gpus 2 -parties 2 \
    -placement least-sessions -addr-file "$addrfile" \
    -metrics 127.0.0.1:0 \
    >"$logfile" 2>&1 &
gvmd_pid=$!

# The daemon writes the addr file only once every listener is bound.
tries=0
while [ ! -s "$addrfile" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "smoke: gvmd never published its address" >&2
        cat "$logfile" >&2
        exit 1
    fi
    if ! kill -0 "$gvmd_pid" 2>/dev/null; then
        echo "smoke: gvmd exited early" >&2
        cat "$logfile" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(head -n1 "$addrfile")
metrics_url=$(grep '^http://' "$addrfile" | head -n1)
echo "smoke: gvmd is serving on $addr (metrics at $metrics_url)"
if [ -z "$metrics_url" ]; then
    echo "smoke: gvmd did not publish a metrics URL in its addr file" >&2
    exit 1
fi

out=$("$bindir/multiprocess" -workers 4 -connect "$addr")
echo "$out"

turnarounds=$(echo "$out" | grep -c "turnaround" || true)
if [ "$turnarounds" -ne 4 ]; then
    echo "smoke: expected 4 worker turnaround lines, got $turnarounds" >&2
    exit 1
fi

echo "smoke: scraping $metrics_url"
scrape=$(fetch "$metrics_url")
if [ -z "$scrape" ]; then
    echo "smoke: /metrics scrape returned nothing" >&2
    exit 1
fi
# Every non-comment line must be a valid Prometheus text sample:
# name{labels} value, where value is an optionally signed integer.
bad=$(echo "$scrape" | grep -v '^#' | grep -vE '^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? -?[0-9]+$' || true)
if [ -n "$bad" ]; then
    echo "smoke: malformed Prometheus sample line(s):" >&2
    echo "$bad" >&2
    exit 1
fi
# Four workers each sent one STR — the verb counter must be nonzero.
str_count=$(echo "$scrape" | grep -E '^gvmd_verb_requests_total\{verb="STR"\} [0-9]+$' | awk '{print $2}')
if [ -z "$str_count" ] || [ "$str_count" -eq 0 ]; then
    echo "smoke: gvmd_verb_requests_total{verb=\"STR\"} missing or zero after a four-process round" >&2
    echo "$scrape" | grep '^gvmd_verb' >&2 || true
    exit 1
fi
# The placement layer spread the sessions: both shards opened some.
for gpu in 0 1; do
    opened=$(echo "$scrape" | grep -E "^gvm_sessions_opened_total\{gpu=\"$gpu\"\} [0-9]+$" | awk '{print $2}')
    if [ -z "$opened" ] || [ "$opened" -eq 0 ]; then
        echo "smoke: gvm_sessions_opened_total{gpu=\"$gpu\"} missing or zero — sessions did not reach shard $gpu" >&2
        echo "$scrape" | grep '^gvm_sessions' >&2 || true
        exit 1
    fi
done
echo "smoke: metrics OK (STR count = $str_count, sessions on both shards)"
check_pprof "$metrics_url" gvmd

kill "$gvmd_pid"
wait "$gvmd_pid" 2>/dev/null || true
gvmd_pid=""
if [ -e "$addrfile" ]; then
    echo "smoke: gvmd left its addr file behind on shutdown" >&2
    exit 1
fi

# Second round: the zero-syscall ring transport. The daemon listens on
# ring://, clients negotiate shared-memory submission/completion rings,
# and the doorbell counter proves verbs actually travelled through the
# rings rather than falling back to the socket.
echo "smoke: starting gvmd on a ring:// listener"
shmdir="$workdir/shm"
mkdir -p "$shmdir"
addrfile="$workdir/gvmd-ring.addr"
logfile="$workdir/gvmd-ring.log"
"$bindir/gvmd" -listen "ring://$workdir/gvmd-ring.sock" -parties 2 \
    -shm "$shmdir" -addr-file "$addrfile" -metrics 127.0.0.1:0 \
    >"$logfile" 2>&1 &
gvmd_pid=$!
tries=0
while [ ! -s "$addrfile" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "smoke: ring gvmd never published its address" >&2
        cat "$logfile" >&2
        exit 1
    fi
    if ! kill -0 "$gvmd_pid" 2>/dev/null; then
        echo "smoke: ring gvmd exited early" >&2
        cat "$logfile" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(head -n1 "$addrfile")
metrics_url=$(grep '^http://' "$addrfile" | head -n1)
echo "smoke: ring gvmd is serving on $addr (metrics at $metrics_url)"

out=$(GVMD_SHM_DIR="$shmdir" "$bindir/multiprocess" -workers 2 -connect "$addr")
echo "$out"
turnarounds=$(echo "$out" | grep -c "turnaround" || true)
if [ "$turnarounds" -ne 2 ]; then
    echo "smoke: expected 2 worker turnaround lines over ring://, got $turnarounds" >&2
    exit 1
fi

scrape=$(fetch "$metrics_url")
doorbells=$(echo "$scrape" | grep -E '^gvmd_ring_doorbells_total\{gpu="0"\} [0-9]+$' | awk '{print $2}')
if [ -z "$doorbells" ] || [ "$doorbells" -eq 0 ]; then
    echo "smoke: gvmd_ring_doorbells_total{gpu=\"0\"} missing or zero after a ring:// round" >&2
    echo "$scrape" | grep '^gvmd_ring' >&2 || true
    exit 1
fi
echo "smoke: ring metrics OK (doorbells = $doorbells)"

kill "$gvmd_pid"
wait "$gvmd_pid" 2>/dev/null || true
gvmd_pid=""

# Third round: memory overcommit. The daemon's card is shrunk so it fits
# only two of the four workers' arenas (each worker stages 768 KiB on a
# 1.6 MiB device) and -overcommit 2.0 admits all four anyway; the
# residency engine must evict idle sessions to host snapshots and
# restore them transparently, and every worker still verifies its
# results byte-for-byte. The workers keep cycling for -duration so that
# all four sessions are certainly open at once: with a single cycle each
# (a few ms) whether three ever overlap, and so whether anything is
# evicted, was up to process start-up timing.
echo "smoke: starting gvmd with -overcommit 2.0 on a shrunken card"
addrfile="$workdir/gvmd-oc.addr"
logfile="$workdir/gvmd-oc.log"
"$bindir/gvmd" -listen tcp://127.0.0.1:0 -overcommit 2.0 \
    -mem $((1600 * 1024)) -addr-file "$addrfile" -metrics 127.0.0.1:0 \
    >"$logfile" 2>&1 &
gvmd_pid=$!
tries=0
while [ ! -s "$addrfile" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "smoke: overcommit gvmd never published its address" >&2
        cat "$logfile" >&2
        exit 1
    fi
    if ! kill -0 "$gvmd_pid" 2>/dev/null; then
        echo "smoke: overcommit gvmd exited early" >&2
        cat "$logfile" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(head -n1 "$addrfile")
metrics_url=$(grep '^http://' "$addrfile" | head -n1)
echo "smoke: overcommit gvmd is serving on $addr (metrics at $metrics_url)"

out=$("$bindir/multiprocess" -workers 4 -connect "$addr" -duration 300ms)
echo "$out"
turnarounds=$(echo "$out" | grep -c "turnaround" || true)
if [ "$turnarounds" -ne 4 ]; then
    echo "smoke: expected 4 worker turnaround lines under overcommit, got $turnarounds" >&2
    exit 1
fi

scrape=$(fetch "$metrics_url")
evictions=$(echo "$scrape" | grep -E '^gvm_evictions_total\{gpu="0"\} [0-9]+$' | awk '{print $2}')
swapout=$(echo "$scrape" | grep -E '^gvm_swap_bytes_total\{dir="out",gpu="0"\} [0-9]+$' | awk '{print $2}')
if [ -z "$evictions" ] || [ "$evictions" -eq 0 ]; then
    echo "smoke: gvm_evictions_total{gpu=\"0\"} missing or zero after over-packing a 1.6 MiB card" >&2
    echo "$scrape" | grep -E '^gvm_(evictions|restores|swap|resident|reserved)' >&2 || true
    exit 1
fi
# Whether a restore also fired depends on interleaving (an eviction can
# land on a session that is already done), so only the swap-out traffic
# is asserted alongside the eviction count.
if [ -z "$swapout" ] || [ "$swapout" -eq 0 ]; then
    echo "smoke: gvm_swap_bytes_total{dir=\"out\"} missing or zero despite $evictions evictions" >&2
    echo "$scrape" | grep -E '^gvm_(evictions|restores|swap|resident|reserved)' >&2 || true
    exit 1
fi
echo "smoke: overcommit metrics OK (evictions = $evictions, swapped out = $swapout bytes)"

kill "$gvmd_pid"
wait "$gvmd_pid" 2>/dev/null || true
gvmd_pid=""

# Fourth round: fault injection and failover. A 2-shard daemon hangs
# GPU 0 on its first kernel launch mid-run; the sessions placed there
# must live-migrate to GPU 1, every worker must still exit 0 with
# byte-verified results, and the failover counter must be nonzero.
echo "smoke: starting a 2-shard gvmd with a hang fault armed on gpu 0"
addrfile="$workdir/gvmd-fault.addr"
logfile="$workdir/gvmd-fault.log"
"$bindir/gvmd" -listen tcp://127.0.0.1:0 -gpus 2 \
    -fault-inject "gpu=0,after=1,kind=hang" \
    -addr-file "$addrfile" -metrics 127.0.0.1:0 \
    >"$logfile" 2>&1 &
gvmd_pid=$!
tries=0
while [ ! -s "$addrfile" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "smoke: fault gvmd never published its address" >&2
        cat "$logfile" >&2
        exit 1
    fi
    if ! kill -0 "$gvmd_pid" 2>/dev/null; then
        echo "smoke: fault gvmd exited early" >&2
        cat "$logfile" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(head -n1 "$addrfile")
metrics_url=$(grep '^http://' "$addrfile" | head -n1)
echo "smoke: fault gvmd is serving on $addr (metrics at $metrics_url)"

out=$("$bindir/multiprocess" -workers 4 -connect "$addr")
echo "$out"
turnarounds=$(echo "$out" | grep -c "turnaround" || true)
if [ "$turnarounds" -ne 4 ]; then
    echo "smoke: expected 4 worker turnaround lines through a faulted shard, got $turnarounds" >&2
    exit 1
fi

scrape=$(fetch "$metrics_url")
faults=$(echo "$scrape" | grep -E '^gpusim_faults_total\{gpu="0",kind="hang"\} [0-9]+$' | awk '{print $2}')
failovers=$(echo "$scrape" | grep -E '^node_failovers_total [0-9]+$' | awk '{print $2}')
health=$(echo "$scrape" | grep -E '^node_shard_health\{gpu="0"\} [0-9]+$' | awk '{print $2}')
if [ -z "$faults" ] || [ "$faults" -eq 0 ]; then
    echo "smoke: gpusim_faults_total{gpu=\"0\",kind=\"hang\"} missing or zero — the injector never fired" >&2
    echo "$scrape" | grep -E '^(gpusim_faults|node_)' >&2 || true
    exit 1
fi
if [ -z "$failovers" ] || [ "$failovers" -eq 0 ]; then
    echo "smoke: node_failovers_total missing or zero after a hang fault on gpu 0" >&2
    echo "$scrape" | grep -E '^(gpusim_faults|node_)' >&2 || true
    exit 1
fi
if [ -z "$health" ] || [ "$health" -ne 3 ]; then
    echo "smoke: node_shard_health{gpu=\"0\"} = '$health', want 3 (unhealthy) after a hang fault" >&2
    echo "$scrape" | grep '^node_shard_health' >&2 || true
    exit 1
fi
echo "smoke: failover metrics OK (faults = $faults, failovers = $failovers, gpu 0 unhealthy)"

kill "$gvmd_pid"
wait "$gvmd_pid" 2>/dev/null || true
gvmd_pid=""

# Fifth round: two-level federation. gvmfed fronts two single-shard gvmd
# nodes over TCP; eight workers run verified cycles through the router
# for two seconds while one backend is SIGTERM'd mid-run. Every worker
# must still exit 0 (the router re-creates the dead node's sessions on
# the survivor and the clients replay), and the router's
# fed_failovers_total must be nonzero.
echo "smoke: building gvmfed"
${GO:-go} build -o "$bindir/gvmfed" ./cmd/gvmfed

node_a_pid=""
node_b_pid=""
gvmfed_pid=""
fed_cleanup() {
    for pid in "$node_a_pid" "$node_b_pid" "$gvmfed_pid"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
}
trap 'fed_cleanup; cleanup' EXIT INT TERM

echo "smoke: starting two gvmd nodes and a gvmfed router"
for node in a b; do
    addrfile="$workdir/gvmd-$node.addr"
    "$bindir/gvmd" -listen tcp://127.0.0.1:0 \
        -addr-file "$addrfile" \
        >"$workdir/gvmd-$node.log" 2>&1 &
    eval "node_${node}_pid=$!"
done
for node in a b; do
    addrfile="$workdir/gvmd-$node.addr"
    tries=0
    while [ ! -s "$addrfile" ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "smoke: gvmd node $node never published its address" >&2
            cat "$workdir/gvmd-$node.log" >&2
            exit 1
        fi
        sleep 0.1
    done
done

fed_addrfile="$workdir/gvmfed.addr"
"$bindir/gvmfed" -listen tcp://127.0.0.1:0 \
    -backend-file "$workdir/gvmd-a.addr" -backend-file "$workdir/gvmd-b.addr" \
    -placement least-sessions -poll 50ms \
    -addr-file "$fed_addrfile" -metrics 127.0.0.1:0 \
    >"$workdir/gvmfed.log" 2>&1 &
gvmfed_pid=$!
tries=0
while [ ! -s "$fed_addrfile" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "smoke: gvmfed never published its address" >&2
        cat "$workdir/gvmfed.log" >&2
        exit 1
    fi
    if ! kill -0 "$gvmfed_pid" 2>/dev/null; then
        echo "smoke: gvmfed exited early" >&2
        cat "$workdir/gvmfed.log" >&2
        exit 1
    fi
    sleep 0.1
done
fed_addr=$(head -n1 "$fed_addrfile")
fed_metrics_url=$(grep '^http://' "$fed_addrfile" | head -n1)
echo "smoke: gvmfed is routing on $fed_addr (metrics at $fed_metrics_url)"

"$bindir/multiprocess" -workers 8 -connect "$fed_addr" -duration 2s \
    >"$workdir/fed-workers.log" 2>&1 &
mp_pid=$!
sleep 0.7
echo "smoke: SIGTERM'ing gvmd node a mid-run"
kill "$node_a_pid"
wait "$node_a_pid" 2>/dev/null || true
node_a_pid=""
if ! wait "$mp_pid"; then
    echo "smoke: a worker failed after the mid-run backend kill" >&2
    cat "$workdir/fed-workers.log" >&2
    cat "$workdir/gvmfed.log" >&2
    exit 1
fi
cat "$workdir/fed-workers.log"
turnarounds=$(grep -c "turnaround" "$workdir/fed-workers.log" || true)
if [ "$turnarounds" -ne 8 ]; then
    echo "smoke: expected 8 worker turnaround lines through gvmfed, got $turnarounds" >&2
    exit 1
fi

scrape=$(fetch "$fed_metrics_url")
failovers=$(echo "$scrape" | grep -E '^fed_failovers_total [0-9]+$' | awk '{print $2}')
dead=$(echo "$scrape" | grep -E '^fed_nodes\{state="dead"\} [0-9]+$' | awk '{print $2}')
if [ -z "$failovers" ] || [ "$failovers" -eq 0 ]; then
    echo "smoke: fed_failovers_total missing or zero after SIGTERM'ing a backend mid-run" >&2
    echo "$scrape" | grep '^fed_' >&2 || true
    exit 1
fi
if [ -z "$dead" ] || [ "$dead" -ne 1 ]; then
    echo "smoke: fed_nodes{state=\"dead\"} = '$dead', want 1 after killing one of two nodes" >&2
    echo "$scrape" | grep '^fed_nodes' >&2 || true
    exit 1
fi
echo "smoke: federation metrics OK (failovers = $failovers, one node dead, one alive)"
check_pprof "$fed_metrics_url" gvmfed

fed_cleanup
node_b_pid=""
gvmfed_pid=""
echo "smoke: OK"
