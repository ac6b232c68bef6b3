#!/usr/bin/env bash
# Builds the end-to-end FEI benchmark from source and runs it.
#
#   bash feibench/run.sh --workload tcp-q8 --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, span
# traces) stays under the build directory inside the checkout:
# $CARGO_TARGET_DIR when set, otherwise .bench_build at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config" "$build/trace"

# XDG_CONFIG_HOME keeps the go command's config and telemetry files in the
# build directory too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/feibench" && go build -o "$build/feibench" .)
exec "$build/feibench" --trace-dir "$build/trace" "$@"
