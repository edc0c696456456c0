#!/usr/bin/env bash
# Builds gvmd, gvmfed and the load generator into .bench_build/ at the
# root of the checkout, then runs gvmload with the arguments given:
#   bench/run.sh [-workload W] [-seed S] [-seconds N]   end-to-end metrics
#   bench/run.sh -trace 1 [-workload W]                 per-layer metrics
#   bench/run.sh -selfcheck                             noise self-check
set -euo pipefail
cd "$(dirname "$0")/.."
# A checkout without the program has nothing to measure: say so and fail
# before any tool is started.
for f in go.mod cmd/gvmd cmd/gvmfed bench/go.mod; do
	[ -e "$f" ] || { echo "bench/run.sh: $f not found in $PWD: not a checkout of the program" >&2; exit 2; }
done
out=.bench_build
mkdir -p "$out/config/go/telemetry" "$out/tmp"
# Everything the go tool writes stays inside the checkout.
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config"
export GOTMPDIR="$PWD/$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# With a fresh config dir the go command would start a detached telemetry
# child that outlives it; the mode file turns that off.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/bin/" ./cmd/gvmd ./cmd/gvmfed
(cd bench && go build -o "../$out/bin/gvmload" ./gvmload)
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/bin/gvmload" -bin "$out/bin" -work "$out" -commit "$commit" "$@"
