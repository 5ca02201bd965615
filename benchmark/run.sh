#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a module of
# its own nested in the repo, so it may import xqp/internal/...) and runs
# it. Every build output, the Go build cache included, stays inside the
# checkout under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -root "$root" "$@"
