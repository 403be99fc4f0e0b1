#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout:
# Go build cache, build scratch space and the toolchain's telemetry counters
# included) and runs it from the checkout root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
XDG_CONFIG_HOME="$build/config" go build -C "$root/bench" -o "$build/imsbench" .
exec "$build/imsbench" "$@"
