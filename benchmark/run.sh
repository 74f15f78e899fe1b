#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload serve-twitter-mix --seed 42 --seconds 20 --trace 0
#
# The Go build cache, the binary and the WAL files all live under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" --root "$root" "$@"
