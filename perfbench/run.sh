#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload mp3-minimize --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, the span dumps and the exact-count
# ledger all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/go-cache GOPATH=$out/go-path XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
