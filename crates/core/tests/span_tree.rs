//! End-to-end checks of the causal tracing subsystem: span-tree
//! completeness (no orphans) on a fig7-style step-overhead loop on both
//! drivers, deterministic (bit-identical) trees under the simulator,
//! phase-histogram consistency with the profiler's per-step latency, the
//! flight-recorder dump in stall reports, and the fault-free `explain`
//! output hiding the recovery line.

use mitos_core::obs::span::SpanKind;
use mitos_core::rt::FaultPlan;
use mitos_core::{
    build_profile, build_step_trees, run_sim, run_threads, EngineConfig, ObsLevel, PhaseHistograms,
    StepTree,
};
use mitos_fs::InMemoryFs;
use mitos_sim::SimConfig;

/// The Fig. 7 per-step-overhead microbenchmark shape: a loop with minimal
/// data processing per step, so the control plane dominates.
fn fig7_src(steps: u32) -> String {
    format!(
        r#"s = 0;
for i = 1 to {steps} {{
    b = bag((1, i));
    s = s + b.count();
}}
output(s, "s");
"#
    )
}

fn trace_cfg() -> EngineConfig {
    EngineConfig::new().with_obs(ObsLevel::Trace)
}

/// Every span tree must be complete: zero orphans, and on decided steps
/// every remote machine shows the receipt → append chain.
fn assert_complete(trees: &[StepTree], machines: u16) {
    assert!(!trees.is_empty(), "no step trees built");
    for tree in trees {
        assert!(
            tree.orphans.is_empty(),
            "step {} has {} orphan span(s): {:?}",
            tree.step,
            tree.orphans.len(),
            tree.orphans
        );
        assert!(!tree.spans.is_empty(), "step {} has no spans", tree.step);
        if tree.decided {
            let recvs = tree
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Recv)
                .count();
            assert_eq!(
                recvs,
                machines as usize - 1,
                "step {}: every remote machine must have a receipt span",
                tree.step
            );
        }
    }
}

#[test]
fn fig7_span_trees_complete_and_deterministic_on_sim() {
    let func = mitos_ir::compile_str(&fig7_src(20)).unwrap();
    let machines = 3u16;
    let run = || {
        let fs = InMemoryFs::new();
        run_sim(&func, &fs, trace_cfg(), SimConfig::with_machines(machines)).unwrap()
    };
    let r1 = run();
    let trees1 = build_step_trees(r1.obs.as_ref().unwrap());
    assert_complete(&trees1, machines);
    // Deterministic span ids and virtual-time spans: a repeated run's
    // trees are bit-identical, timestamps included.
    let r2 = run();
    let trees2 = build_step_trees(r2.obs.as_ref().unwrap());
    assert_eq!(trees1, trees2, "simulated span trees must be bit-identical");
}

#[test]
fn fig7_span_trees_complete_on_threads() {
    let func = mitos_ir::compile_str(&fig7_src(20)).unwrap();
    let machines = 3u16;
    let fs = InMemoryFs::new();
    let r = run_threads(&func, &fs, trace_cfg(), machines).unwrap();
    let trees = build_step_trees(r.obs.as_ref().unwrap());
    assert_complete(&trees, machines);
}

#[test]
fn execute_phase_sum_matches_profiler_busy_time() {
    let func = mitos_ir::compile_str(&fig7_src(20)).unwrap();
    let fs = InMemoryFs::new();
    let r = run_sim(&func, &fs, trace_cfg(), SimConfig::with_machines(3)).unwrap();
    let obs = r.obs.as_ref().unwrap();
    let trees = build_step_trees(obs);
    let histos = PhaseHistograms::from_trees(&trees);
    // The profiler's per-iteration busy time sums the same
    // BagOpened..BagFinalized intervals the execute phase measures, so
    // the two totals must agree within 1% (acceptance criterion).
    let profile = build_profile(obs, &r.path, r.sim.end_time);
    let busy: u64 = profile.machines.iter().map(|m| m.busy_ns).sum();
    let exec_sum = histos.execute.sum_ns;
    assert!(busy > 0, "profiler saw no busy time");
    let drift = (exec_sum as f64 - busy as f64).abs() / busy as f64;
    assert!(
        drift <= 0.01,
        "execute-phase histogram sum {exec_sum} vs profiler busy {busy} ({:.2}% drift)",
        drift * 100.0
    );
    // The export itself must carry the same totals.
    let text = histos.prometheus();
    assert!(text.contains(&format!(
        "mitos_phase_latency_ns_sum{{phase=\"execute\"}} {exec_sum}"
    )));
    assert!(text.contains(&format!("mitos_steps_total {}", trees.len())));
}

#[test]
fn stall_report_carries_flight_recorder_dump() {
    // Withheld decision broadcasts wedge every remote worker: the sim
    // diagnoses the quiescent-but-unfinished state, and the stall report
    // must include the always-on flight recorder's last events — even
    // though the run recorded at ObsLevel::Off.
    let func = mitos_ir::compile_str(&fig7_src(5)).unwrap();
    let fs = InMemoryFs::new();
    let cfg = EngineConfig::new().with_faults(FaultPlan::new().with_withhold_decisions(true));
    let err = run_sim(&func, &fs, cfg, SimConfig::with_machines(3)).unwrap_err();
    let report = err.stall.expect("withheld decisions must stall");
    assert!(
        !report.flight.is_empty(),
        "stall report must carry the flight dump"
    );
    assert!(
        report.flight.iter().any(|l| l.contains("start")),
        "machine lanes should at least show the Start message: {:?}",
        report.flight
    );
    assert!(report.render().contains("flight recorder"));
}

#[test]
fn fault_free_explain_hides_recovery_line() {
    let func = mitos_ir::compile_str(&fig7_src(5)).unwrap();
    let fs = InMemoryFs::new();
    let cfg = EngineConfig::new().with_obs(ObsLevel::Metrics);
    let r = run_sim(&func, &fs, cfg, SimConfig::with_machines(3)).unwrap();
    let out = mitos_core::obs::explain_report(&r);
    assert!(
        !out.contains("recovery:"),
        "fault-free explain output must not mention the recovery protocol:\n{out}"
    );
    // Sanity: a run with actual retransmissions does show it.
    let fs2 = InMemoryFs::new();
    let cfg2 = EngineConfig::new()
        .with_obs(ObsLevel::Metrics)
        .with_faults(FaultPlan::new().with_drop(0.2).with_seed(7));
    let r2 = run_sim(&func, &fs2, cfg2, SimConfig::with_machines(3)).unwrap();
    if r2.obs.as_ref().unwrap().metrics.retransmits > 0 {
        assert!(mitos_core::obs::explain_report(&r2).contains("recovery:"));
    }
}

#[test]
fn decision_receipts_are_counted_and_annotated() {
    let func = mitos_ir::compile_str(&fig7_src(10)).unwrap();
    let fs = InMemoryFs::new();
    let machines = 3u16;
    let r = run_sim(&func, &fs, trace_cfg(), SimConfig::with_machines(machines)).unwrap();
    let obs = r.obs.as_ref().unwrap();
    // Every broadcast decision is received exactly once per remote
    // machine (fault-free run, no dedup in play).
    assert_eq!(
        obs.metrics.decisions_received,
        obs.metrics.decisions_broadcast * (machines as u64 - 1),
    );
    // And the wire-carried parents all verified: receipt spans exist in
    // the trees (an unverifiable parent would orphan them).
    let trees = build_step_trees(obs);
    let recvs: usize = trees
        .iter()
        .map(|t| t.spans.iter().filter(|s| s.kind == SpanKind::Recv).count())
        .sum();
    assert_eq!(recvs as u64, obs.metrics.decisions_received);
}
