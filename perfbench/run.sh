#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload solve-batch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# inside the checkout: the Go build cache and binary under .bench_build/,
# generated inputs and span dumps under .bench_work/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
# The go command's caches, environment file and local telemetry all live
# under .bench_build: GOENV and the telemetry directory follow
# XDG_CONFIG_HOME.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
