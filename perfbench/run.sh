#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload host-uniform --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, the durable
# workload's data directory and the trace file. The build is offline: the
# benchmark module has no dependency but the repository itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOMODCACHE="$out/gomodcache" GOENV=off GOFLAGS=-mod=mod GOPROXY=off \
  GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
