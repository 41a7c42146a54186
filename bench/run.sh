#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload threshold-dlb2c-16k --seed 7 --seconds 15 --trace 0
#   bash bench/run.sh -all -out base.json
#   bash bench/run.sh -compare base.json change.json
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build/ in the current directory, so a run reads
# and writes nothing outside the checkout. The build fails, and the script
# exits non-zero, when the library sources next to bench/ are missing.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOWORK=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off

go -C "$root/bench" build -o "$build/hetlbbench" ./hetlbbench
exec "$build/hetlbbench" "$@"
