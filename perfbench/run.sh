#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload wire-100k --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact (binary, Go
# build cache, Go's per-user config) goes under $CARGO_TARGET_DIR,
# default .bench_build, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
