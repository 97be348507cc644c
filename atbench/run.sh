#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the checkout root:
#
#   bash atbench/run.sh --workload gups-4k --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and artifact stays under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOPATH=$out/gopath GOTOOLCHAIN=local GOWORK=off
export ATBENCH_OUT=$out/atbench
go -C "$root/atbench" build -buildvcs=false -o "$out/atbench.bin" .
exec "$out/atbench.bin" "$@"
