//! **Figure 7**: per-iteration-step overhead (log-log vs machine count),
//! isolated by a loop with minimal data processing. The paper reports the
//! job-per-step systems (Spark, Flink separate jobs) ~two orders of
//! magnitude above the native-iteration systems (Mitos, Flink, TensorFlow,
//! Naiad), with the job-launch overhead growing linearly in machines.

use mitos_baselines::{run_naiad_loop, run_tf_loop, NaiadConfig, TfConfig};
use mitos_bench::{full_scale, trivial_loop_program, BenchReport, System, Table};
use mitos_core::{build_step_trees, EngineConfig, ObsLevel, PhaseHistograms};
use mitos_fs::InMemoryFs;
use mitos_sim::SimConfig;

fn main() {
    let steps: u32 = if full_scale() { 200 } else { 50 };
    let func = mitos_ir::compile_str(&trivial_loop_program(steps)).unwrap();

    println!("\n=== Figure 7: per-step overhead microbenchmark ===");
    println!("{steps}-step loop, minimal data processing; time PER STEP (ms)\n");
    let mut table = Table::new(&[
        "machines",
        "Spark",
        "Flink (sep. jobs)",
        "Flink (native)",
        "Mitos",
        "Naiad",
        "TensorFlow",
        "Mitos peak res (B)",
    ]);
    let mut report = BenchReport::new("fig7", "per-step overhead microbenchmark");
    let mut max_spark = 0.0f64;
    let mut max_peak_resident = 0u64;
    for machines in [1u16, 3, 5, 9, 13, 19, 25] {
        let cluster = SimConfig::with_machines(machines);
        let per_step = |total_ms: f64| total_ms / steps as f64;
        let run = |s: System| {
            let fs = InMemoryFs::new();
            per_step(s.run(&func, &fs, cluster))
        };
        let naiad = per_step(
            run_naiad_loop(
                NaiadConfig {
                    steps,
                    ..NaiadConfig::default()
                },
                cluster,
            )
            .end_time as f64
                / 1e6,
        );
        let (tf_report, _) = run_tf_loop(
            TfConfig {
                steps,
                ..TfConfig::default()
            },
            cluster,
        );
        let tf = per_step(tf_report.end_time as f64 / 1e6);
        let spark = run(System::Spark);
        let flink_sep = run(System::FlinkSeparateJobs);
        let flink = run(System::FlinkNative);
        // Run Mitos directly so the sweep can also record the state
        // registry's peak residency at each cluster size — the control
        // plane should hold O(1) bags per machine regardless of scale.
        let fs = InMemoryFs::new();
        let mitos_result =
            mitos_core::run_sim(&func, &fs, EngineConfig::new(), cluster).expect("mitos run");
        let mitos = per_step(mitos_result.sim.end_time as f64 / 1e6);
        let peak_resident = mitos_result.mem.peak_resident();
        max_peak_resident = max_peak_resident.max(peak_resident);
        let cell = |ms: f64| format!("{ms:.2}");
        table.row(vec![
            machines.to_string(),
            cell(spark),
            cell(flink_sep),
            cell(flink),
            cell(mitos),
            cell(naiad),
            cell(tf),
            peak_resident.to_string(),
        ]);
        report.row(vec![
            ("machines", machines.into()),
            ("spark_step_ms", spark.into()),
            ("flink_sep_step_ms", flink_sep.into()),
            ("flink_step_ms", flink.into()),
            ("mitos_step_ms", mitos.into()),
            ("naiad_step_ms", naiad.into()),
            ("tf_step_ms", tf.into()),
            ("mitos_peak_resident_bytes", peak_resident.into()),
            // Wire volume of the whole loop: the control plane's batches
            // are tiny, so this tracks per-message framing, not payload —
            // the overhead the columnar encoding shrinks.
            ("mitos_wire_bytes", mitos_result.flow.bytes_on_wire().into()),
        ]);
        max_spark = max_spark.max(spark / mitos);
    }
    table.print();
    report.factor("spark_vs_mitos_step_max", max_spark);
    // Deterministic under the simulator.
    report.factor("mitos_peak_resident_bytes_max", max_peak_resident as f64);

    // Where does the per-step overhead go? One traced Mitos run at a
    // mid-sweep cluster size, decomposed into the control-plane phases
    // (see `mitos_core::obs::histo`) and recorded as extra rows.
    let cluster = SimConfig::with_machines(5);
    let traced_cfg = EngineConfig::new().with_obs(ObsLevel::Trace);
    let fs = InMemoryFs::new();
    let traced = mitos_core::run_sim(&func, &fs, traced_cfg.clone(), cluster).expect("traced run");
    let histos = PhaseHistograms::from_trees(&build_step_trees(traced.obs.as_ref().unwrap()));
    println!("\nMitos control-plane phase latencies (5 machines, ns):");
    for (phase, h) in histos.phases() {
        println!(
            "  {phase:<13} p50={:>8} p99={:>8} max={:>8} (n={})",
            h.quantile(0.5),
            h.quantile(0.99),
            h.max_ns,
            h.count
        );
        report.row(vec![
            ("phase", phase.into()),
            ("p50_ns", h.quantile(0.5).into()),
            ("p99_ns", h.quantile(0.99).into()),
            ("max_ns", h.max_ns.into()),
            ("count", h.count.into()),
        ]);
    }
    // Ablation: the execution-template cache (control-plane memoization).
    // The slow path re-derives every input-bag selection by backward
    // scans over the ever-growing execution path (charged per block
    // examined); a template hit replays the recorded decisions for one
    // flat validation cost. Always run at steady state (200 steps)
    // regardless of MITOS_BENCH_FULL: the 50-step quick loop is
    // warmup-dominated and would understate both the hit rate and the
    // win. Fully deterministic under the simulator.
    let abl_steps: u32 = 200;
    let abl_func = mitos_ir::compile_str(&trivial_loop_program(abl_steps)).unwrap();
    let abl_cluster = SimConfig::with_machines(25);
    let virt_step_ms = |templates: bool| -> (f64, f64) {
        let cfg = EngineConfig::new().with_templates(templates);
        let fs = InMemoryFs::new();
        let r =
            mitos_core::run_sim(&abl_func, &fs, cfg, abl_cluster).expect("template ablation run");
        (
            r.sim.end_time as f64 / 1e6 / f64::from(abl_steps),
            r.template_hit_rate(),
        )
    };
    let (on_ms, on_rate) = virt_step_ms(true);
    let (off_ms, off_rate) = virt_step_ms(false);
    println!("\nAblation: execution templates ({abl_steps}-step loop, 25 machines):");
    println!("  templates on : {on_ms:.4} ms/step (hit rate {on_rate:.2})");
    println!("  templates off: {off_ms:.4} ms/step");
    assert_eq!(
        off_rate, 0.0,
        "templates-off run must not consult the cache"
    );
    assert!(
        on_ms < off_ms,
        "templates must cut steady-state per-step overhead: on={on_ms} off={off_ms}"
    );
    report.row(vec![
        ("ablation", "templates".into()),
        ("machines", 25u16.into()),
        ("steps", abl_steps.into()),
        ("templates_on_step_ms", on_ms.into()),
        ("templates_off_step_ms", off_ms.into()),
        ("template_hit_rate", on_rate.into()),
    ]);
    report.factor("templates_off_on_step_factor", off_ms / on_ms);
    report.factor("template_hit_rate_steady", on_rate);
    report.provenance(cluster.seed, traced_cfg.digest());
    report.write();
    println!("\npaper: job-per-step systems grow linearly with machines and sit");
    println!("~100x above the native-iteration systems, which stay flat.");
}
