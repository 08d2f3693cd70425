#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --observe-limit-ms 250 --workload converge-hotspot --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the span files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# Keep everything the go command writes (build cache, module cache,
# temporary files, telemetry counters) inside the checkout.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out-dir "$out/perfbench-out" "$@"
