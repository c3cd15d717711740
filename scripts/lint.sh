#!/bin/sh
# Runs the exact lint gate CI enforces, so contributors can check
# locally before pushing:
#
#   1. gofmt cleanliness (every tracked .go file, fixtures included)
#   2. go vet
#   3. greenlint — the determinism & energy-accounting suite
#      (see internal/greenlint and the "Determinism invariants" and
#      "Static analysis" sections of DESIGN.md)
#
# All three steps walk the whole module (./...), so new packages — the
# shard/merge/coordinator layer included — are covered without editing
# this script. Wall-clock timers are rejected by greenlint unless the
# site carries "//greenlint:allow wallclock <reason>"; the only
# sanctioned pattern is operator-facing liveness machinery whose verdict
# never reaches a measured quantity, e.g. the cell watchdog's probe
# ticker (internal/bench/scheduler.go), the coordinator's
# process-deadline timer over store growth
# (internal/bench/coordinator.go), and the serving daemon's
# batch-window timer (internal/serve/server.go) — the wall timer only
# decides *when* a queued batch flushes; latency, joules, and every
# other measured quantity stay on the virtual clock. The reason must
# say why the site cannot influence recorded results.
#
# Goroutine launches in internal/ml are likewise rejected unless they
# carry "//greenlint:allow reduceorder <reason>": the kernels are
# sequential, so their float reductions run in one fixed order (see the
# "Kernel execution" section of DESIGN.md); writes to captured
# variables from inside such goroutines need their own annotation.
#
# The CFG-backed analyzers (framerelease, meteredcost, hotalloc) enforce
# the pooled-frame ownership discipline, ml.Cost accounting, and
# allocation-free hot kernels; see DESIGN.md "Static analysis" for the
# //greenlint:owns and //greenlint:hotpath vocabulary.
#
# Usage: scripts/lint.sh [-checks name,name,...]
#
# With -checks, only the named greenlint analyzers run (gofmt and vet
# are skipped) — the fast inner loop while iterating on one contract,
# e.g. scripts/lint.sh -checks framerelease,hotalloc.
set -eu

cd "$(dirname "$0")/.."

checks=""
while [ $# -gt 0 ]; do
    case "$1" in
    -checks)
        [ $# -ge 2 ] || { echo "lint: -checks needs a comma-separated list" >&2; exit 2; }
        checks="$2"
        shift 2
        ;;
    -checks=*)
        checks="${1#-checks=}"
        shift
        ;;
    *)
        echo "lint: unknown argument $1 (usage: scripts/lint.sh [-checks name,...])" >&2
        exit 2
        ;;
    esac
done

if [ -n "$checks" ]; then
    echo "lint: greenlint -checks $checks" >&2
    go run ./cmd/greenlint -checks "$checks" ./...
    echo "lint: ok" >&2
    exit 0
fi

echo "lint: gofmt" >&2
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "lint: gofmt wants to reformat:" >&2
    echo "$unformatted" >&2
    echo "lint: run 'gofmt -w .'" >&2
    exit 1
fi

echo "lint: go vet" >&2
go vet ./...

echo "lint: greenlint" >&2
go run ./cmd/greenlint ./...

echo "lint: ok" >&2
