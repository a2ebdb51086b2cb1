#!/usr/bin/env bash
# Bench smoke and allocation gate: runs each benchmark of the bench-smoke set
# once at the default benchtime with -benchmem (through scripts/bench.sh, into
# a scratch baseline), failing when any of them fails, and then fails when
# some benchmark's allocs/op rise more than 10% over the committed
# BENCH_BASELINE.json. Time per op is printed against the recorded spread but
# never fails the gate: CI machines differ too much for that.
#
# Usage:
#   scripts/allocs_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The bench-smoke set.
smoke='E1TIDScalingPrepared/evaluate/n=50|E1Update/attach/n=800|E1ShardedUpdate/shards=16|E13Service/query/clients=4|E15Mixed|PrepareCold|E1TIDScaling/engine/n=800|E5HardQuery/engine/chain200|PrepareLayers'
BENCH="$smoke" COUNT=1 scripts/bench.sh "$tmp/smoke.json" > "$tmp/log" || { cat "$tmp/log"; exit 1; }
go run ./cmd/benchtab -compare -allocs-gate 10 BENCH_BASELINE.json "$tmp/smoke.json"
