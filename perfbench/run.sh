#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout it sits in
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload mirror-write --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the go tool's
# configuration and telemetry, temporary files, the binary, WAL directories
# and span files all stay under .bench_build (or $CARGO_TARGET_DIR when
# set) in that checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$(dirname "$0")" -o "$out/perfbench" .
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
