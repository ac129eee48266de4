#!/usr/bin/env bash
# Builds calibserved, calibgate and the benchmark from source into
# .bench_build/ under the repository root, then runs the benchmark with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload bulk-step --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file it writes, the Go build
# cache included, stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/calibserved ./cmd/calibgate
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" --work "$out" "$@"
