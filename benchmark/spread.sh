#!/usr/bin/env bash
# The repeatability check the benchmark's driver makes: one end-to-end pass
# per workload for each of ten seeds, then for each workload x end-to-end
# metric the distance between the first and third quartile of the ten
# values over their median. Every spread must stay within the metric's
# bound in BENCHMARK.json; a third of it is the target.
#
#   benchmark/spread.sh [--write-baseline] [SEED...]     (default 101..110)
#
# Results land in benchmark/out/spread/<workload>.<seed>.json (the printed
# result object); --write-baseline gathers them into
# baseline/seeds_<first>-<last>.json.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
write_baseline=0
if [ "${1:-}" = "--write-baseline" ]; then write_baseline=1; shift; fi
seeds="${*:-101 102 103 104 105 106 107 108 109 110}"
out="$here/out/spread"
rm -rf "$out"
mkdir -p "$out"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")"
for seed in $seeds; do
    for w in visit_data visit_lossy step_control branch_nested cc_iterative; do
        bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            | tail -n 1 > "$out/$w.$seed.json"
    done
done
python3 - "$here/../BENCHMARK.json" "$out" "$write_baseline" \
    "$here/baseline/seeds_${seeds%% *}-${seeds##* }.json" <<'PY'
import glob, json, os, statistics, sys
manifest, out, write, dest = json.load(open(sys.argv[1])), sys.argv[2], sys.argv[3] == "1", sys.argv[4]
runs, status = {}, 0
for f in sorted(glob.glob(os.path.join(out, "*.json"))):
    w, seed, _ = os.path.basename(f).rsplit(".", 2)
    runs.setdefault(w, {})[int(seed)] = json.load(open(f))
print(f"{'workload':<14} {'metric':<15} {'median':>12} {'spread':>7} {'bound':>6}")
for w, by_seed in runs.items():
    assert all(r["correct"] for r in by_seed.values()), w
    for e in manifest["end_to_end"]:
        values = [r["metrics"][e["name"]]["value"] for r in by_seed.values()]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        wide = spread > e["bound"] and e["name"] != "setup_s"
        status |= wide
        print(f"{w:<14} {e['name']:<15} {median:>12.6g} {spread:>7.3f} {e['bound']:>6.2f}"
              + ("  WIDER THAN THE BOUND" if wide else ""))
if write:
    json.dump(runs, open(dest, "w"), indent=1, sort_keys=True)
    print("wrote", dest)
sys.exit(status)
PY
