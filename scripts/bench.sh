#!/usr/bin/env bash
# Runs the benchmark suite and records a machine-readable baseline in
# BENCH_BASELINE.json so future performance PRs have a trajectory to compare
# against.
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCH    benchmark regexp passed to -bench   (default: .)
#   COUNT    repetitions passed to -count        (default: 3)
#   GOAMD64  amd64 microarchitecture level, passed through to go test; v3
#            lets the compiler emit FMA/AVX forms of the lane kernels
#            (internal/core/kernel), which is how the recorded kernel
#            baselines should be read. Compare the BenchmarkE1Batched
#            lanes=8/64/256 entries (ns_per_assign) for the lane sweep.
#
# The output is MERGED with the existing baseline: a benchmark missing from
# this run (filtered out by BENCH, renamed, or temporarily failing) keeps its
# previously recorded entry instead of being overwritten with empty or NaN
# values — so a partial `BENCH=E13 scripts/bench.sh` refreshes one family
# without wiping the rest of the trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_BASELINE.json}"
bench="${BENCH:-.}"
count="${COUNT:-3}"
raw="$(mktemp)"
fresh="$(mktemp)"
trap 'rm -f "$raw" "$fresh"' EXIT

go test -run '^$' -bench "$bench" -benchmem -count "$count" | tee "$raw"

# Summarize the repetitions per benchmark and emit a JSON object keyed by
# benchmark name (GOMAXPROCS suffix stripped). ns_per_op, bytes_per_op,
# allocs_per_op and the extra metrics are means over the runs; ns_median,
# ns_min and ns_max give the spread of the time per op, so a comparison can
# tell a shift from noise. Metrics are located by their unit label rather than
# by column, so benchmarks that report extra metrics (e.g. the ns/assign of
# the multi-lane batch benchmarks, the req/s of the service load generator)
# parse correctly.
awk -v host="$(go env GOOS)/$(go env GOARCH)" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (f = 3; f <= NF; f++) {
        if ($f == "ns/op")          { ns[name] += $(f-1); nsrun[name, nsn[name]++] = $(f-1) }
        else if ($f == "B/op")      bytes[name] += $(f-1)
        else if ($f == "allocs/op") allocs[name] += $(f-1)
        else if ($f == "ns/assign") assign[name] += $(f-1)
        else if ($f == "ns/update") update[name] += $(f-1)
        else if ($f == "allocs/update") allocsupd[name] += $(f-1)
        else if ($f == "shards")    shards[name] += $(f-1)
        else if ($f == "req/s")     reqs[name] += $(f-1)
        else if ($f == "ns/durable_update") durable[name] += $(f-1)
        else if ($f == "appends/flush")     batching[name] += $(f-1)
        else if ($f == "recovery_ms")       recms[name] += $(f-1)
        else if ($f == "p50_us")            p50[name] += $(f-1)
        else if ($f == "p99_us")            p99[name] += $(f-1)
        else if ($f == "edges/fact")        edgesfact[name] += $(f-1)
    }
    runs[name]++
    if (!(name in seen)) { order[n++] = name; seen[name] = 1 }
}
END {
    printf "{\n  \"host\": \"%s\",\n  \"benchmarks\": {\n", host
    first = 1
    for (i = 0; i < n; i++) {
        name = order[i]
        # A benchmark line that carried no parsed ns/op metric (e.g. the
        # benchmark failed after printing its name) must not poison the
        # baseline with zero/NaN fields — skipping it here leaves the
        # previously recorded entry intact through the merge below.
        if (!(name in ns) || runs[name] == 0) continue
        # Sort this benchmark'"'"'s ns/op samples (insertion sort; a handful of
        # runs) for the median and the extremes.
        m = nsn[name]
        for (a = 0; a < m; a++) s[a] = nsrun[name, a]
        for (a = 1; a < m; a++)
            for (c = a; c > 0 && s[c] < s[c-1]; c--) { t = s[c]; s[c] = s[c-1]; s[c-1] = t }
        med = (m % 2) ? s[int(m/2)] : (s[m/2-1] + s[m/2]) / 2
        spread = sprintf(", \"ns_median\": %.1f, \"ns_min\": %.1f, \"ns_max\": %.1f", med, s[0], s[m-1])
        extra = ""
        if (name in assign)
            extra = sprintf(", \"ns_per_assign\": %.1f", assign[name]/runs[name])
        if (name in update)
            extra = extra sprintf(", \"ns_per_update\": %.1f", update[name]/runs[name])
        if (name in allocsupd)
            extra = extra sprintf(", \"allocs_per_update\": %.1f", allocsupd[name]/runs[name])
        if (name in shards)
            extra = extra sprintf(", \"shards\": %.0f", shards[name]/runs[name])
        if (name in reqs)
            extra = extra sprintf(", \"req_per_s\": %.0f", reqs[name]/runs[name])
        if (name in durable)
            extra = extra sprintf(", \"ns_per_durable_update\": %.1f", durable[name]/runs[name])
        if (name in batching)
            extra = extra sprintf(", \"appends_per_flush\": %.2f", batching[name]/runs[name])
        if (name in recms)
            extra = extra sprintf(", \"recovery_ms\": %.2f", recms[name]/runs[name])
        if (name in p50)
            extra = extra sprintf(", \"p50_us\": %.1f", p50[name]/runs[name])
        if (name in p99)
            extra = extra sprintf(", \"p99_us\": %.1f", p99[name]/runs[name])
        if (name in edgesfact)
            extra = extra sprintf(", \"edges_per_fact\": %.2f", edgesfact[name]/runs[name])
        if (!first) printf ",\n"
        first = 0
        printf "    \"%s\": {\"ns_per_op\": %.1f%s, \"bytes_per_op\": %.1f, \"allocs_per_op\": %.1f%s, \"runs\": %d}", \
            name, ns[name]/runs[name], spread, bytes[name]/runs[name], allocs[name]/runs[name], extra, runs[name]
    }
    printf "\n  }\n}\n"
}' "$raw" > "$fresh"

# Merge with the previous baseline: entries present in this run win, every
# other previously recorded benchmark survives untouched.
if [ -s "$out" ]; then
    python3 - "$out" "$fresh" <<'PYEOF' > "$out.tmp" && mv "$out.tmp" "$out"
import json, sys
old_path, fresh_path = sys.argv[1], sys.argv[2]
try:
    with open(old_path) as f:
        old = json.load(f)
except (OSError, ValueError):
    old = {}
with open(fresh_path) as f:
    fresh = json.load(f)
merged = dict(old.get("benchmarks", {}))
merged.update(fresh.get("benchmarks", {}))
fresh["benchmarks"] = merged
json.dump(fresh, sys.stdout, indent=2)
print()
PYEOF
else
    cp "$fresh" "$out"
fi

echo "wrote $out"
