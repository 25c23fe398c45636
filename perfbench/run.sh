#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload headline --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under the build directory ($CARGO_TARGET_DIR when set, else
# .bench_build): the Go build and module caches, the Go tool's own config
# and telemetry, the benchmark binary, the on-disk repository of the repo
# workload and the span files of traced runs.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

(
	cd perfbench
	GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOPROXY=off \
		GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/perfbench-bin" .
)
exec "$build/perfbench-bin" --workdir "$build/perfbench" "$@"
