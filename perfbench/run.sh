#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, scratch stores, span files and
# profiles all stay under .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$(dirname "$0")" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -out "$out/perfbench" "$@"
