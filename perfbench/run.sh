#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write lands under .bench_build/perfbench
# in the checkout: the Go build cache, the binary, scratch stores, spans and
# profiles. The toolchain is pinned to the local install and never fetches.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
