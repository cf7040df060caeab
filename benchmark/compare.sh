#!/usr/bin/env bash
# Compares two sets of benchmark results, A (base) against B (new).
#
#   benchmark/compare.sh [--same-code] A B
#
# A and B are result files written by run.sh (results.json, run1.json, ...)
# or directories of them; a set may hold any number of runs per workload,
# so ten alternating parent/change runs compare the same way as two.
# One row per workload x end-to-end metric: base and new median, their
# ratio, the bound from BENCHMARK.json, and a verdict:
#   ok          new is not worse than base by more than the bound
#   worse       it is
#   unresolved  either set's own spread is wider than the bound, so the
#               comparison shows nothing. The spread is the distance
#               between the quartiles of a set's run values over their
#               median; a set of one run falls back on the quartiles of
#               that run's job samples, narrowed by sqrt(n) as a median's
#               error is.
# Exits 1 on any `worse`. With --same-code (both sets are the same build
# and seed) `unresolved` also fails, and so does any exact counter that
# differs between the sets; what the issue's rule derives from the pair,
# max(2 x the largest gap, 0.03), is printed last beside each bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec python3 - "$here/../BENCHMARK.json" "$@" <<'EOF'
import glob, json, math, os, statistics, sys

args = sys.argv[1:]
manifest = json.load(open(args.pop(0)))
same_code = "--same-code" in args
paths = [a for a in args if a != "--same-code"]
if len(paths) != 2:
    sys.exit("usage: compare.sh [--same-code] A B")

EXACT = ["flow.elements", "flow.data_messages", "flow.bytes_on_wire", "flow.bytes_total",
         "flow.recv_skew_max", "sim.virtual_ms", "sim.messages", "mem.peak_resident_bytes",
         "template.hit_rate", "template.invalidations", "path.len"]

END_TO_END = {e["name"] for e in manifest["end_to_end"]}

def load(path):
    """workload -> metric -> list of metric objects, one per pass that owns it.

    The per-layer pass also times a few jobs; only the end-to-end pass
    (trace 0) speaks for the end-to-end metrics."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    found = {}
    for f in files:
        doc = json.load(open(f))
        for run in doc.get("runs", []):
            for name, m in run["metrics"].items():
                if name in END_TO_END and run["trace"] != 0:
                    continue
                found.setdefault(run["workload"], {}).setdefault(name, []).append(m)
    return found

def spread(runs):
    values = [m["value"] for m in runs]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)
    m = runs[0]
    if "q1" not in m:
        return 0.0
    return (m["q3"] - m["q1"]) / m["value"] / math.sqrt(m["n"])

a, b = load(paths[0]), load(paths[1])
failed = False
gaps = {}
print(f"{'workload':<14} {'metric':<15} {'base':>12} {'new':>12} {'ratio':>7} {'bound':>6} "
      f"{'spread A':>8} {'spread B':>8} {'2x gap':>7}  verdict")
for w in manifest["workloads"]:
    w = w["name"]
    if w not in a or w not in b:
        continue
    for e in manifest["end_to_end"]:
        name, bound = e["name"], e["bound"]
        if name not in a[w] or name not in b[w]:
            continue
        base = statistics.median(m["value"] for m in a[w][name])
        new = statistics.median(m["value"] for m in b[w][name])
        ratio = new / base
        worsening = ratio - 1 if e["better"] == "lower" else 1 - ratio
        sa, sb = spread(a[w][name]), spread(b[w][name])
        gaps[name] = max(gaps.get(name, 0.0), abs(ratio - 1))
        if max(sa, sb) > bound:
            verdict = "unresolved"
            failed |= same_code
        elif worsening > bound:
            verdict = "worse"
            failed = True
        else:
            verdict = "ok"
        print(f"{w:<14} {name:<15} {base:>12.6g} {new:>12.6g} {ratio:>7.3f} {bound:>6.2f} "
              f"{sa:>8.3f} {sb:>8.3f} {2 * abs(ratio - 1):>7.3f}  {verdict}")

if same_code:
    for e in manifest["end_to_end"]:
        gap = gaps.get(e["name"], 0.0)
        derived = max(2 * gap, 0.03)
        note = "" if derived <= e["bound"] else "  <- wider than the bound"
        print(f"{e['name']:<15} largest gap {gap:.3f}, max(2 x gap, 0.03) = {derived:.3f}; "
              f"BENCHMARK.json has {e['bound']:.2f}{note}")
    for w in sorted(set(a) & set(b)):
        for name in EXACT:
            va = {m["value"] for m in a[w].get(name, [])}
            vb = {m["value"] for m in b[w].get(name, [])}
            if va != vb or len(va) > 1:
                print(f"{w:<14} {name}: exact counter differs: {sorted(va)} vs {sorted(vb)}")
                failed = True
    print("exact counters identical" if not failed else "FAILED")
sys.exit(1 if failed else 0)
EOF
