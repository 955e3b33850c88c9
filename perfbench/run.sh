#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig13-1k --seed 1 --seconds 30 --trace 0
#
# Build outputs stay under .bench_build/ in the checkout; the toolchain
# is the local one and no module is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
mkdir -p "$out"
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
