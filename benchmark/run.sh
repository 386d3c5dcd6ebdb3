#!/usr/bin/env bash
# Builds the benchmark and runs it from the root of the checkout:
#
#   bash benchmark/run.sh --workload classify-warm --seed 1 --seconds 10 --trace 0
#
# The benchmark is a Go module of its own (benchmark/go.mod), so the
# repository's go.mod, `go build ./...` and `go test ./...` do not see it.
# Everything built or written lands in .bench_build/ or benchmark/out/,
# inside the checkout; the go tool is kept off the network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="$root/.bench_build/gocache" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$root/.bench_build/bin"
(cd "$here" && go build -o "$root/.bench_build/bin/benchmark" .)
cd "$root"
exec "$root/.bench_build/bin/benchmark" "$@"
