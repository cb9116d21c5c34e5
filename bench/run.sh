#!/usr/bin/env bash
# Builds cmd/jmbench from source and runs it with the given arguments.
# Run from the repository root; build outputs, the Go build cache and
# temporary files stay under .bench_build/ in the current directory.
#
#   bash bench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -seed 1 -o run.json
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
export GOMAXPROCS="$(nproc)"
(cd bench && go build -o "$build/jmbench" ./cmd/jmbench)
exec "$build/jmbench" "$@"
