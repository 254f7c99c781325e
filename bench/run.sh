#!/usr/bin/env bash
# Builds the benchmark harness and the hpcmal daemon from the sources of
# the checkout it is run from, then runs the harness with the arguments
# given. Run it from the repository root:
#
#   bash bench/run.sh --workload collect --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# two binaries) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
  GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOMAXPROCS=2
go build -C bench -buildvcs=false -o "$out/hpcbench" .
go build -buildvcs=false -o "$out/hpcmal" ./cmd/hpcmal
exec "$out/hpcbench" -bin "$out/hpcmal" "$@"
