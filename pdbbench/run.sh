#!/usr/bin/env bash
# Builds pdbbench from this checkout's source and runs it with the given
# arguments, e.g.
#
#   bash pdbbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the binary,
# WAL data directories and trace files.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/work"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/home/go" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go build -o "$out/pdbbench" ./pdbbench
exec "$out/pdbbench" --workdir "$out/work" "$@"
