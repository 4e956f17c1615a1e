#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload count-road --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# benchmark's scratch files (store directories, span files) all live under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
work="$out/perfbench"
mkdir -p "$work/gotmp"

# Build offline and from local sources only.
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOMODCACHE="$work/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "$bench_dir" -o "$work/perfbench" .

exec "$work/perfbench" --workdir "$work" "$@"
