#!/usr/bin/env bash
# Quick end-to-end check of the benchmark itself, for CI: runs the suite at
# tiny sizes for one second per pass, then asserts that every metric
# BENCHMARK.json names is present and well-formed for every workload, that
# nothing unnamed is reported, and that the one-pass form prints the result
# object the manifest promises.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

bash "$here/run.sh" --tiny --seconds 1 > /dev/null
last_line() { bash "$here/run.sh" --workload step_control --seed 2 --seconds 1 --trace "$1" --tiny | tail -n 1; }
e2e_line="$(last_line 0)"
layers_line="$(last_line 1)"

python3 - "$here/../BENCHMARK.json" "$here/out/results.json" "$e2e_line" "$layers_line" <<'EOF'
import json, math, re, sys

manifest = json.load(open(sys.argv[1]))
results = json.load(open(sys.argv[2]))
name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
assert "setup_s" in e2e and not set(e2e) & set(layers)
for name, unit in {**e2e, **layers}.items():
    assert name_re.match(name) and unit_re.match(unit), (name, unit)

def check(metrics, want, where):
    assert set(metrics) == set(want), (where, sorted(set(metrics) ^ set(want)))
    for name, m in metrics.items():
        assert m["unit"] == want[name], (where, name, m["unit"])
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (where, name)

passes = {(r["workload"], r["trace"]): r for r in results["runs"]}
for w in manifest["workloads"]:
    assert name_re.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    for trace, want in ((0, e2e), (1, layers)):
        run = passes[(w["name"], trace)]
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run["workload"]
        # A result file carries every metric its pass measured; the printed
        # object carries exactly the manifest's.
        missing = set(want) - set(run["metrics"])
        assert not missing, (w["name"], trace, sorted(missing))
    unnamed = set(passes[(w["name"], 1)]["metrics"]) - set(e2e) - set(layers)
    assert not unnamed, (w["name"], sorted(unnamed))

for line, want in ((sys.argv[3], e2e), (sys.argv[4], layers)):
    obj = json.loads(line)
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}, sorted(obj)
    assert obj["correct"] is True and obj["failed"] == 0 and obj["attempted"] >= 1
    for m in obj["metrics"].values():
        assert set(m) == {"value", "unit"}
    check(obj["metrics"], want, "printed object")
print(f"selftest ok: {len(e2e)} end-to-end and {len(layers)} per-layer metrics "
      f"on {len(manifest['workloads'])} workloads")
EOF
