#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it with the given
# arguments. Run from the repository root, e.g.
#   bash perfbench/run.sh --workload tpch-warm --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and the run's scratch files stay under
# .bench_build in the repository root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# The module has no dependencies outside this repository, so nothing is
# ever fetched.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOSUMDB=off
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
mkdir -p "$TMPDIR"
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
