#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash mbbench/run.sh --workload cluster-sim --seed 1 --seconds 25 --trace 0
#
# Every build product (binary, Go build cache, temporary files) stays in
# .bench_build under the current directory, so the run reads and writes
# nothing outside the checkout. A failed build exits non-zero before the
# benchmark prints anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/mbbench" && go build -o "$out/mbbench" .)
exec "$out/mbbench" "$@"
