#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the build or the run writes stays under the checkout: the Go build
# cache and temp dir go to the build directory, the temp farm and traces to
# bench/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/adr-livebench" .
exec "$build/adr-livebench" "$@"
