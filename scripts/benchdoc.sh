#!/usr/bin/env bash
# Regenerates the benchmark tables of docs/ARCHITECTURE.md from
# BENCH_BASELINE.json, so the numbers in the docs are the recorded ones and
# never hand-copied. Each table sits between a "<!-- bench:NAME -->" marker
# and the next "<!-- /bench -->"; everything outside the markers is left
# alone. Refresh the baseline first (scripts/bench.sh), then run this.
#
# Usage: scripts/benchdoc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'PYEOF'
import json, re, sys

DOC, BASELINE = "docs/ARCHITECTURE.md", "BENCH_BASELINE.json"

# Table name -> benchmark names (without the "Benchmark" prefix), in row order.
TABLES = {
    "oneshot": [
        "E1TIDScaling/engine/n=50",
        "E1TIDScaling/engine/n=200",
        "E1TIDScaling/engine/n=800",
        "E5HardQuery/engine/chain200",
        "E5HardQuery/engine/bipartite5",
    ],
    "prepared": [
        "E1TIDScalingPrepared/evaluate/n=800",
        "E5HardQueryPrepared/evaluate/chain200",
        "E5HardQueryPrepared/evaluate/bipartite5",
    ],
    "cold": ["PrepareCold/%s/w=%d/n=%d" % (s, w, n)
             for s in ("RST", "RS", "ST") for w in (1, 2) for n in (16, 28, 40)],
    "layers": ["PrepareLayers/%s/w=%d/n=40" % (l, w)
               for w in (1, 2) for l in ("joint", "decompose", "nice", "prepare")],
    "pcc": ["E2PCC/n=%d" % n for n in (200, 800, 3200)],
}

def dur(ns):
    if ns >= 1e6:
        return "%.2fms" % (ns / 1e6)
    return "%.1fµs" % (ns / 1e3)

def size(b):
    if b >= 1 << 20:
        return "%.1fMB" % (b / (1 << 20))
    if b >= 1 << 10:
        return "%.1fKB" % (b / (1 << 10))
    return "%.0fB" % b

def table(names, benches):
    # Benchmarks that count program edges per fact get a column for them.
    edges = any("edges_per_fact" in benches.get("Benchmark" + n, {}) for n in names)
    rows = ["| benchmark | ns/op | min – max | B/op | allocs/op | runs |" + (" edges/fact |" if edges else ""),
            "|---|---|---|---|---|---|" + ("---|" if edges else "")]
    for name in names:
        e = benches.get("Benchmark" + name)
        if e is None:
            rows.append("| `%s` | not recorded | | | | |" % name + (" |" if edges else ""))
            continue
        if "ns_median" in e:
            t, spread = dur(e["ns_median"]), "%s – %s" % (dur(e["ns_min"]), dur(e["ns_max"]))
        else:  # recorded before bench.sh kept the spread: a mean only
            t, spread = dur(e["ns_per_op"]) + " (mean)", "not recorded"
        rows.append("| `%s` | %s | %s | %s | %s | %d |" % (
            name, t, spread, size(e["bytes_per_op"]), "{:,.0f}".format(e["allocs_per_op"]), e["runs"])
            + (" %.2f |" % e["edges_per_fact"] if edges else ""))
    return "\n".join(rows)

with open(BASELINE) as f:
    benches = json.load(f)["benchmarks"]
with open(DOC) as f:
    doc = f.read()

def fill(m):
    name = m.group(1)
    if name not in TABLES:
        sys.exit("benchdoc: unknown table %r in %s" % (name, DOC))
    return "<!-- bench:%s -->\n%s\n<!-- /bench -->" % (name, table(TABLES[name], benches))

out = re.sub(r"<!-- bench:(\w+) -->.*?<!-- /bench -->", fill, doc, flags=re.S)
with open(DOC, "w") as f:
    f.write(out)
print("benchdoc: wrote %s" % DOC)
PYEOF
