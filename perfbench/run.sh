#!/usr/bin/env bash
# Builds the perfbench runner from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload spec_grid --seed 1 --seconds 36 --trace 0
#
# Every build product, the Go build cache and the benchmark's scratch files
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp \
       XDG_CONFIG_HOME=$build/config GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
