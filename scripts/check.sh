#!/usr/bin/env bash
# Full local gate: formatting, release build, the whole workspace test
# suite (debug and release), clippy with warnings denied (the crates opt into
# #![warn(missing_docs)], so undocumented public items fail here too), and
# a smoke test of the profiler CLI. Everything runs --offline; the repo
# has no crates.io dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --offline --workspace
test_out="$(cargo test -q --offline --workspace 2>&1)" || {
    echo "$test_out"
    exit 1
}
echo "$test_out"
# Skipped tests fail loudly: the workspace carries exactly two deliberate
# #[ignore]s (the paper-scale visit_count_365_days stress test and the
# baselines shape probe). Anything beyond that is a silently-disabled
# test hiding in the suite.
ignored_total="$(echo "$test_out" |
    sed -n 's/.*test result: ok\. [0-9]* passed; [0-9]* failed; \([0-9]*\) ignored.*/\1/p' |
    awk '{ s += $1 } END { print s + 0 }')"
if [ "$ignored_total" -ne 2 ]; then
    echo "check.sh: expected exactly 2 deliberately ignored tests" \
        "(visit_count_365_days, probe_visit_count), found $ignored_total —" \
        "run 'cargo test --workspace -- --list --ignored' and account for the rest" >&2
    exit 1
fi
# Every benchmark number comes from a release build, and rustc has
# miscompiled this workspace at -O twice (see builder.rs): the whole suite
# must pass optimized too. (The ignored count above reads the debug run
# only.)
cargo test -q --release --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

# One path per mechanism: no process-wide behaviour switch may come back.
# Neither the library nor the CLI reads an environment variable (only
# crates/bench does: MITOS_BENCH_DIR / MITOS_BENCH_FULL / MITOS_GIT_SHA),
# and no MITOS_*_OFF name appears anywhere. (Patterns are spelled so this
# file does not match itself.)
env_reads="$(grep -rnE 'env::var(_os)?\(' \
    src crates/{lang,ir,core,sim,fs,workloads,baselines}/src || true)"
switches="$(grep -rnE 'MITOS_[A-Z]*_OF[F]' \
    crates src tests scripts examples .github .claude || true)"
if [ -n "$env_reads$switches" ]; then
    echo "check.sh: environment switch found:" >&2
    echo "$env_reads$switches" >&2
    exit 1
fi

# One implementation per keyed operator: join / cross / reduceByKey / reduce /
# distinct state lives in crates/ir/src/kernel.rs; the host coordinates
# around it and may not grow a second copy of a table, a seen-set or a
# joined-row builder.
host_copies="$(grep -nE 'HashMap<Value|HashSet<Value|join_row' \
    crates/core/src/host.rs || true)"
if [ -n "$host_copies" ]; then
    echo "check.sh: host.rs implements operator state that belongs in kernel.rs:" >&2
    echo "$host_copies" >&2
    exit 1
fi

# Batches from the wire to the wire: the host keeps a bag as a columnar
# Batch from Msg::Data to Msg::Data. Only its one row boundary,
# fn through_rows (the keyed kernels, sinks and the partition reader
# still take rows), may turn a batch into values or values into a batch;
# anywhere else in host.rs into_values / from_values / from_slice or an
# element-wise Batch::iter is a per-element detour the data plane left.
row_detours="$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^fn through_rows\(/ { in_helper = 1 }
    !in_helper && /into_values|from_values|from_slice|Batch::iter|(elems|batch|buffer|buffered|chunk|part|rest|produced)\.iter\(\)/ {
        print FILENAME ":" FNR ": " $0
    }
    in_helper && /^}/ { in_helper = 0 }' crates/core/src/host.rs)"
if [ -n "$row_detours" ]; then
    echo "check.sh: host.rs converts rows outside through_rows:" >&2
    echo "$row_detours" >&2
    exit 1
fi

# One writer per exposition format: JSON string escaping and Prometheus
# HELP/TYPE header lines live in crates/core/src/obs/expo.rs; no other
# non-test source under crates/ or src/ may write either by hand or carry
# its own JSON escaper. (Integration-test directories and top-level
# #[cfg(test)] modules are skipped; the patterns are spelled so this file
# does not match itself.)
expo_copies="$(find crates src -name '*.rs' -not -path '*/tests/*' \
    -not -path crates/core/src/obs/expo.rs -print0 |
    xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && /"# (HEL[P]|TYP[E]) |^[[:space:]]*# (HEL[P]|TYP[E]) |fn (json_st[r]|es[c])/ {
            print FILENAME ":" FNR ": " $0
        }
        in_test && /^}/ { in_test = 0 }')"
if [ -n "$expo_copies" ]; then
    echo "check.sh: exposition written outside obs/expo.rs:" >&2
    echo "$expo_copies" >&2
    exit 1
fi

# One job lifecycle: the state every worker shares is built in exactly one
# place, Job::new in crates/core/src/engine.rs; both drivers and the
# integration tests obtain it from there. (The struct definition in rt.rs
# is exempt; the pattern is spelled so this file does not match itself.)
shared_literals="$(grep -rnE --include='*.rs' 'EngineShare[d] *\{' crates src tests |
    grep -v '^crates/core/src/engine\.rs:' | grep -vE 'pub struct EngineShare[d] ' || true)"
if [ -n "$shared_literals" ]; then
    echo "check.sh: EngineShared built outside Job::new (crates/core/src/engine.rs):" >&2
    echo "$shared_literals" >&2
    exit 1
fi

# The profiler must run end-to-end on the nested-loops example and print
# its per-iteration table and critical path.
profile_out="$(./target/release/mitos profile examples/nested_loops.mt --machines 3)"
echo "$profile_out" | grep -q "critical path" || {
    echo "check.sh: mitos profile smoke test failed" >&2
    exit 1
}
echo "$profile_out" | grep -q "warmup:" || {
    echo "check.sh: mitos profile missing warmup/steady split" >&2
    exit 1
}

# Live telemetry: --progress must stream status lines on a .mt example
# (1 virtual-ms sampling: the example's makespan is a few virtual ms)
# and print its completion summary.
progress_out="$(./target/release/mitos run examples/nested_loops.mt \
    --machines 3 --progress --interval 1 2>&1)"
echo "$progress_out" | grep -q "^\[progress " || {
    echo "check.sh: mitos run --progress smoke test failed" >&2
    exit 1
}
echo "$progress_out" | grep -q "\[progress\] done:" || {
    echo "check.sh: mitos run --progress missing completion summary" >&2
    exit 1
}

# Overhead guard: the always-on telemetry hub must not switch event
# recording on at ObsLevel::Off, and simulator sampling must charge zero
# virtual time (bit-identical SimReport with and without snapshots).
cargo test -q --offline -p mitos-core --test live \
    hub_counts_at_obs_off_without_recording_events || {
    echo "check.sh: ObsLevel::Off overhead guard failed" >&2
    exit 1
}

# Operator chain fusion: fused and unfused plans must produce identical
# outputs on the same program and inputs (CLI-level equivalence smoke);
# the planner-level guarantees live in the fusion unit/property tests.
fusion_log="$(mktemp)"
seq 0 199 > "$fusion_log"
fused_out="$(./target/release/mitos run examples/log_pipeline.mt \
    --machines 3 --input log="$fusion_log")"
unfused_out="$(./target/release/mitos run examples/log_pipeline.mt \
    --machines 3 --input log="$fusion_log" --no-fuse)"
rm -f "$fusion_log"
[ "$fused_out" = "$unfused_out" ] || {
    echo "check.sh: fusion on/off outputs differ on log_pipeline.mt" >&2
    exit 1
}
fusion_log="$(mktemp)"
seq 0 199 > "$fusion_log"
# Captured to a variable rather than piped straight into grep -q: the
# quiet grep exits on first match and the closed pipe would SIGPIPE the
# binary mid-report under pipefail.
fusion_explain="$(./target/release/mitos explain examples/log_pipeline.mt \
    --machines 3 --input log="$fusion_log")"
echo "$fusion_explain" | grep -q "map+filter" || {
    echo "check.sh: explain does not show a fused chain on log_pipeline.mt" >&2
    exit 1
}
rm -f "$fusion_log"

# Loop pipelining and loop-invariant hoisting change when work happens,
# never what it computes: stdout must match the default run without either.
ablation_default="$(./target/release/mitos run examples/nested_loops.mt --machines 3)"
for flag in --no-pipeline --no-hoist; do
    [ "$ablation_default" = "$(./target/release/mitos run examples/nested_loops.mt \
        --machines 3 "$flag")" ] || {
        echo "check.sh: $flag changed run output on nested_loops.mt" >&2
        exit 1
    }
done

# The fusion ablation (message-count and simulated-time reduction on the
# fig5/fig6/fig7 workloads) must run end to end. (Captured to a variable:
# grep -q would close the pipe early and pipefail would flag the SIGPIPE.)
ablations_out="$(cargo bench -q --offline -p mitos-bench --bench ablations 2>/dev/null)"
echo "$ablations_out" | grep -q "Ablation: operator chain fusion" || {
    echo "check.sh: fusion ablation section missing from bench output" >&2
    exit 1
}

# Chaos smoke gate: a fixed-seed fault plan with moderate drop, duplication
# and reordering must be fully absorbed by the at-least-once recovery
# protocol — stdout bit-identical to the fault-free run.
chaos_clean="$(./target/release/mitos run examples/nested_loops.mt --machines 3)"
chaos_faulted="$(./target/release/mitos run examples/nested_loops.mt --machines 3 \
    --fault-drop 0.2 --fault-dup 0.1 --fault-reorder 0.2 --fault-seed 7)"
[ "$chaos_clean" = "$chaos_faulted" ] || {
    echo "check.sh: chaos smoke gate failed — faulted output differs on nested_loops.mt" >&2
    exit 1
}

# Fault matrix: the Sec. 5.2.3 / 5.2.4 coordination invariants under
# duplicated and reordered decision broadcasts, on both drivers.
cargo test -q --offline -p mitos-core --test coordination fault_ || {
    echo "check.sh: fault-matrix coordination tests failed" >&2
    exit 1
}

# Causal tracing: trace-tree must reconstruct complete span trees (no
# orphans) on both drivers, and reject non-Mitos engines with exit 2.
for drv in sim threads; do
    tree_out="$(./target/release/mitos trace-tree examples/nested_loops.mt \
        --machines 3 --driver "$drv")"
    echo "$tree_out" | grep -q "0 orphan" || {
        echo "check.sh: trace-tree smoke failed on driver $drv" >&2
        exit 1
    }
done
if ./target/release/mitos trace-tree examples/nested_loops.mt \
    --machines 3 --engine spark >/dev/null 2>&1; then
    echo "check.sh: trace-tree must refuse non-Mitos engines" >&2
    exit 1
elif [ $? -ne 2 ]; then
    echo "check.sh: trace-tree on spark must exit 2" >&2
    exit 1
fi

# Data-plane flow telemetry: the per-edge report must run end-to-end on
# both drivers, refuse non-Mitos engines with exit 2, and the JSON
# explain report must carry a reconciling flow block.
for drv in sim threads; do
    flow_out="$(./target/release/mitos flow examples/nested_loops.mt \
        --machines 3 --driver "$drv")"
    echo "$flow_out" | grep -q "top edges by bytes" || {
        echo "check.sh: mitos flow smoke failed on driver $drv" >&2
        exit 1
    }
    echo "$flow_out" | grep -q "per-machine" || {
        echo "check.sh: mitos flow missing per-machine skew on driver $drv" >&2
        exit 1
    }
done
if ./target/release/mitos flow examples/nested_loops.mt \
    --machines 3 --engine spark >/dev/null 2>&1; then
    echo "check.sh: mitos flow must refuse non-Mitos engines" >&2
    exit 1
elif [ $? -ne 2 ]; then
    echo "check.sh: mitos flow on spark must exit 2" >&2
    exit 1
fi
explain_json="$(./target/release/mitos explain examples/nested_loops.mt \
    --machines 3 --json)"
echo "$explain_json" | grep -q '"flow":{"messages":' || {
    echo "check.sh: explain --json missing the flow block" >&2
    exit 1
}
data_msgs="$(echo "$explain_json" | sed -n 's/.*"data_messages":\([0-9]*\).*/\1/p')"
flow_msgs="$(echo "$explain_json" | sed -n 's/.*"flow":{"messages":\([0-9]*\).*/\1/p')"
[ -n "$data_msgs" ] && [ "$data_msgs" = "$flow_msgs" ] || {
    echo "check.sh: flow messages ($flow_msgs) != data_messages ($data_msgs)" >&2
    exit 1
}

# State/memory telemetry: the residency report must run end-to-end on
# both drivers, report leak-freedom after a fault-free run (the leak
# detector: nothing retained outside deliberate caches once the exit
# sweep has run), and refuse non-Mitos engines with exit 2.
for drv in sim threads; do
    mem_out="$(./target/release/mitos mem examples/nested_loops.mt \
        --machines 3 --driver "$drv")"
    echo "$mem_out" | grep -q "state residency by class" || {
        echo "check.sh: mitos mem smoke failed on driver $drv" >&2
        exit 1
    }
    echo "$mem_out" | grep -q "leak-free" || {
        echo "check.sh: mitos mem leak gate failed on driver $drv" >&2
        exit 1
    }
done
if ./target/release/mitos mem examples/nested_loops.mt \
    --machines 3 --engine spark >/dev/null 2>&1; then
    echo "check.sh: mitos mem must refuse non-Mitos engines" >&2
    exit 1
elif [ $? -ne 2 ]; then
    echo "check.sh: mitos mem on spark must exit 2" >&2
    exit 1
fi
echo "$explain_json" | grep -q '"mem":{"resident_bytes":' || {
    echo "check.sh: explain --json missing the mem block" >&2
    exit 1
}
mem_json="$(./target/release/mitos mem examples/nested_loops.mt --machines 3 --json)"
echo "$mem_json" | grep -q '"leak_free":true' || {
    echo "check.sh: fault-free run not leak-free: $mem_json" >&2
    exit 1
}

# Chaos drain gate: under a seeded fault plan the relay's retransmit
# buffer must fully ack and the dedup tables must compact to their
# watermarks by quiescence — every transient class at zero residency.
chaos_mem="$(./target/release/mitos mem examples/nested_loops.mt --machines 3 \
    --fault-drop 0.2 --fault-dup 0.1 --fault-reorder 0.2 --fault-seed 7 --json)"
echo "$chaos_mem" | grep -q '"leak_free":true' || {
    echo "check.sh: chaos drain gate failed — state retained at quiescence: $chaos_mem" >&2
    exit 1
}
for class in relay-buf dedup-table awaiting-inputs awaiting-barrier; do
    echo "$chaos_mem" | grep -q "\"class\":\"$class\",\"live\":0,\"elems\":0,\"bytes\":0" || {
        echo "check.sh: chaos drain gate — $class did not drain to zero: $chaos_mem" >&2
        exit 1
    }
done

# Execution-template cache: on a steady-state loop (long enough that the
# path outgrows the suffix window and warmup misses stop dominating) the
# cache must (a) leave results bit-identical — stdout equal with the
# cache on and off via --no-templates — (b) finish in strictly less
# virtual time than the slow path (a replay charges one flat validation
# cost instead of per-block backward scans), and (c) sustain a
# steady-state hit rate above 0.9.
tmpl_mt="$(mktemp --suffix=.mt)"
printf 's = 0;\nfor i = 1 to 200 {\n  b = bag((1, i));\n  s = s + b.count();\n}\noutput(s, "s");\n' > "$tmpl_mt"
tmpl_on_out="$(./target/release/mitos run "$tmpl_mt" --machines 5 2>/tmp/tmpl_on.err)"
tmpl_off_out="$(./target/release/mitos run "$tmpl_mt" --machines 5 --no-templates 2>/tmp/tmpl_off.err)"
[ "$tmpl_on_out" = "$tmpl_off_out" ] || {
    echo "check.sh: template cache changed run output" >&2
    exit 1
}
vms_on="$(sed -n 's/.* machines, \([0-9.]*\) virtual ms.*/\1/p' /tmp/tmpl_on.err)"
vms_off="$(sed -n 's/.* machines, \([0-9.]*\) virtual ms.*/\1/p' /tmp/tmpl_off.err)"
awk -v on="$vms_on" -v off="$vms_off" 'BEGIN {
    if (on == "" || off == "") exit 1
    exit (on + 0 < off + 0) ? 0 : 1
}' || {
    echo "check.sh: templates must cut steady-state virtual time (on=${vms_on}ms off=${vms_off}ms)" >&2
    exit 1
}
tmpl_json="$(./target/release/mitos explain "$tmpl_mt" --machines 5 --json)"
tmpl_rate="$(echo "$tmpl_json" | sed -n 's/.*"template_hit_rate":\([0-9.]*\).*/\1/p')"
awk -v r="$tmpl_rate" 'BEGIN { if (r == "") exit 1; exit (r + 0 > 0.9) ? 0 : 1 }' || {
    echo "check.sh: steady-state template hit rate ${tmpl_rate:-?} not > 0.9" >&2
    exit 1
}
rm -f "$tmpl_mt" /tmp/tmpl_on.err /tmp/tmpl_off.err

# fig7 ablation gate: the committed baseline must show templates-on
# beating templates-off per step, at a steady-state hit rate above 0.9.
fig7_base="bench_out/baseline/BENCH_fig7.json"
fig7_field() { grep -o "\"$1\":[0-9.]*" "$fig7_base" | head -1 | cut -d: -f2; }
awk -v on="$(fig7_field templates_on_step_ms)" \
    -v off="$(fig7_field templates_off_step_ms)" \
    -v rate="$(fig7_field template_hit_rate)" 'BEGIN {
    if (on == "" || off == "" || rate == "") exit 1
    if (on + 0 >= off + 0) exit 1
    if (rate + 0 <= 0.9) exit 1
    exit 0
}' || {
    echo "check.sh: fig7 baseline template ablation gate failed (on=$(fig7_field templates_on_step_ms) off=$(fig7_field templates_off_step_ms) rate=$(fig7_field template_hit_rate))" >&2
    exit 1
}

# Bench trajectory: when fresh bench reports exist (scripts/bench.sh),
# compare them against the committed baseline with config-digest
# mismatches escalated to hard failures (--strict); skipped when no
# fresh reports are present so the gate stays fast by default.
if ls "${MITOS_BENCH_DIR:-bench_out}"/BENCH_*.json >/dev/null 2>&1; then
    scripts/bench_compare.sh --strict || {
        echo "check.sh: bench trajectory drifted (see above)" >&2
        exit 1
    }
fi

# The wall-clock benchmark's own check: tiny sizes, one second per pass;
# every metric BENCHMARK.json names is reported, every job matches the
# oracle.
bash benchmark/selftest.sh

echo "check.sh: all green"
