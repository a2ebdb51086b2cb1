#!/usr/bin/env bash
# Runs the pdblint analyzer suite over the full tree — exactly what the CI
# lint job runs, so a clean local run means a clean CI run.
#
# pdblint (cmd/pdblint, analyzers in internal/lint) machine-enforces the
# engine's contracts: no callbacks or blocking channel ops under the store
# lock (lockcallback), fixed-enum metric labels (obslabels), fmt-free
# allocation-lean hot paths with their bounds hints intact (hotpath), and
# slog-only logging in internal packages (slogonly). Plans need no analyzer:
# they have no mutating methods, and a -race test evaluates one while a view
# of it attaches facts.
#
# The vettool route runs the suite over every package *including test
# files*, with the go command doing package loading and caching.
#
# Usage: scripts/lint.sh [packages...]   (default ./...)
set -euo pipefail
cd "$(dirname "$0")/.."

go build -o bin/pdblint ./cmd/pdblint
go vet -vettool="$PWD/bin/pdblint" "${@:-./...}"
echo "pdblint: clean"
