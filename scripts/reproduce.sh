#!/usr/bin/env bash
# One-shot reproduction: tests, examples, and every figure of the paper.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> Test suite"
cargo test --workspace --release

echo "==> Examples"
for e in quickstart visit_count pagerank kmeans connected_components transitive_closure; do
    echo "--- example: $e"
    cargo run --release --example "$e"
done

echo "==> Figures (set MITOS_BENCH_FULL=1 for larger sweeps)"
for f in fig1_imperative_vs_functional fig5_strong_scaling fig6_input_size \
         fig7_step_overhead fig8_loop_invariant fig9_loop_pipelining ablations; do
    cargo bench -p mitos-bench --bench "$f"
done
