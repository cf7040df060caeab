#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One pass of one workload in one process; the last line of standard
#       output is the result object BENCHMARK.json describes.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--tiny]
#       The suite: for each workload (or the named one) an end-to-end pass
#       of S seconds (default 20, as in BENCHMARK.json) and a per-layer pass
#       of S/2, each in its own process. Prints every metric with its unit
#       and sample count and writes benchmark/out/results.json and one
#       benchmark/out/<workload>.trace.json.
#
#   benchmark/run.sh --check-repeat [--seed N] [--write-baseline]
#       The suite twice on one build (the two sets alternating workload by
#       workload), compared with compare.sh --same-code;
#       --write-baseline keeps the two result files in benchmark/baseline/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Each of the engine's kill switches silently measures a different program.
kill_switches="$(env | grep '^MITOS_' || true)"
if [ -n "$kill_switches" ]; then
    echo "run.sh: refusing to run with MITOS_* variables set:" >&2
    echo "$kill_switches" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/mitos-benchmark"
out="$here/out"

for arg in "$@"; do
    if [ "$arg" = "--trace" ]; then
        exec "$bin" "$@" --out-dir "$out"
    fi
done

seed=1
seconds=20
only=""
tiny=()
check_repeat=0
write_baseline=0
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) only="$2"; shift 2 ;;
        --tiny) tiny=(--tiny); shift ;;
        --check-repeat) check_repeat=1; shift ;;
        --write-baseline) write_baseline=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
workloads="${only:-visit_data visit_lossy step_control branch_nested cc_iterative}"

# Runs both passes of workload $2 and appends their result files to the
# set being gathered in $1.tmp.
passes() {
    local results="$1" w="$2" trace pass secs
    for trace in 0 1; do
        # Per-layer numbers carry no bound; half the time is plenty.
        if [ "$trace" = 0 ]; then pass=e2e; secs="$seconds"; else pass=layers; secs="$((seconds / 2))"; fi
        [ "$secs" -ge 1 ] || secs=1
        echo "== $w  seed=$seed  trace=$trace  seconds=$secs"
        "$bin" --workload "$w" --seed "$seed" --seconds "$secs" --trace "$trace" \
            --out-dir "$out" "${tiny[@]}" | sed '$d'
        if ! grep -q '"correct":true' "$out/$w.$pass.json"; then
            echo "run.sh: $w (trace $trace) is not correct" >&2
            exit 1
        fi
        [ ! -s "$results.tmp" ] || printf ',\n' >> "$results.tmp"
        tr -d '\n' < "$out/$w.$pass.json" >> "$results.tmp"
    done
}

# With --check-repeat the two sets alternate workload by workload, so that a
# slow minute of the box falls on both.
sets="$out/results.json"
[ "$check_repeat" = 0 ] || sets="$out/run1.json $out/run2.json"
mkdir -p "$out"
for results in $sets; do : > "$results.tmp"; done
for w in $workloads; do
    for results in $sets; do passes "$results" "$w"; done
done
for results in $sets; do
    {
        printf '{"seed":%s,"seconds":%s,"runs":[\n' "$seed" "$seconds"
        cat "$results.tmp"
        printf '\n]}\n'
    } > "$results"
    rm "$results.tmp"
    echo "wrote $results"
done
[ "$check_repeat" = 1 ] || exit 0

status=0
bash "$here/compare.sh" --same-code "$out/run1.json" "$out/run2.json" || status=$?
if [ "$write_baseline" = 1 ]; then
    cp "$out/run1.json" "$out/run2.json" "$here/baseline/"
    {
        echo "nproc: $(nproc)"
        echo "cpu: $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -1)"
        echo "commit: $(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
        echo "seed: $seed"
    } > "$here/baseline/MACHINE.txt"
    echo "wrote $here/baseline/run1.json, run2.json, MACHINE.txt"
fi
exit "$status"
