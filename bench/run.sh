#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Everything the Go
# toolchain and the harness write stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload wide_sparse --seed 1 --seconds 22 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# bench/ is a module of its own (bench/go.mod) that replaces logdiver => ../:
# without the repository around it there is nothing to build or to measure.
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the logdiver module is not here" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# In its default mode the go command forks a detached telemetry child that
# outlives it. No process may be left behind a run, so switch telemetry off
# where this go command looks for its mode.
echo off >"$build/config/go/telemetry/mode"
go build -C bench -o "$build/logdiver-bench" .
exec "$build/logdiver-bench" "$@"
