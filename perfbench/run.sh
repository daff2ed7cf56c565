#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) inside the repository.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
# The benchmark needs nothing beyond this tree and the standard library:
# never reach for a module proxy or a toolchain download.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --work "$out/work" "$@"
