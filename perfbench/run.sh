#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary, results, specs,
# spans and the write-ahead log of the durable workload.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export GOWORK=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
