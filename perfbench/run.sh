#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload metro --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live in .bench_build/ under the
# working directory, so nothing is read or written outside it, and the
# Go toolchain never reaches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
