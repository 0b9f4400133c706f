#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload incast_mix --seed 1 --seconds 25 --trace 0
#
# Every build artifact, cache and toolchain setting stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
