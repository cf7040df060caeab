//! **Figure 6**: Visit Count *with* the loop-invariant pageTypes join,
//! sweeping the total input size. The paper reports Mitos 23x -> >100x
//! faster than Spark as data grows, and 3.1x-10.5x faster than Flink
//! (separate jobs), with the largest Flink factors at SMALL inputs where
//! Flink's per-step overhead dominates.
//!
//! The Mitos leg runs through the engine directly (not the [`System`]
//! wrapper) so the report can also record the data-plane flow telemetry:
//! total bytes on the wire per sweep point, plus a per-edge breakdown at
//! the largest input — the observed communication volume behind the
//! virtual-time speedups.

use mitos_bench::{fmt_factor, fmt_ms, full_scale, visit_cost, BenchReport, System, Table};
use mitos_core::rt::EngineConfig;
use mitos_core::{run_sim, FlowReport};
use mitos_fs::InMemoryFs;
use mitos_sim::SimConfig;
use mitos_workloads::{
    generate_page_types, generate_visit_logs, visit_count_program, VisitCountSpec,
};

fn main() {
    let days = if full_scale() { 60 } else { 30 };
    let machines = 8;
    let sizes: &[usize] = if full_scale() {
        &[500, 2_000, 10_000, 40_000]
    } else {
        &[300, 1_500, 6_000]
    };
    let func = mitos_ir::compile_str(&visit_count_program(days, true)).unwrap();
    let baselines = [System::Spark, System::FlinkSeparateJobs];
    // Larger network batches than the 1024-element default: with the
    // columnar wire encoding the per-message framing is what batching
    // amortizes, so the data-heavy sweep ships 4096 elements per
    // `Msg::Data`.
    let mitos_cfg = EngineConfig::new()
        .with_cost(visit_cost())
        .with_batch_elems(4096);

    println!("\n=== Figure 6: input-size sweep (Visit Count + pageTypes) ===");
    println!("{days} days, {machines} machines\n");
    let mut table = Table::new(&[
        "visits/day",
        "Spark",
        "Flink (separate jobs)",
        "Mitos",
        "Spark/Mitos",
        "Flink/Mitos",
        "wire bytes",
    ]);
    let mut report = BenchReport::new("fig6", "input-size sweep (Visit Count + pageTypes)");
    report.provenance(6, mitos_cfg.digest());
    let mut max_spark = 0.0f64;
    let mut max_flink = 0.0f64;
    let mut largest_flow: Option<FlowReport> = None;
    for &visits in sizes {
        // The paper scales the WHOLE input, pageTypes included; the
        // loop-invariant dataset grows with the visits, which is what
        // makes Spark's per-step hash-table rebuild dominate at scale.
        let pages = (visits * 10) as u64;
        let spec = VisitCountSpec {
            days,
            visits_per_day: visits,
            pages,
            seed: 6,
        };
        let mut cells = vec![visits.to_string()];
        let mut times = Vec::new();
        for system in baselines {
            let fs = InMemoryFs::new();
            generate_visit_logs(&fs, &spec);
            generate_page_types(&fs, pages, 4, 2);
            let ms = system.run_with(&func, &fs, SimConfig::with_machines(machines), visit_cost());
            times.push(ms);
            cells.push(fmt_ms(ms));
        }
        let fs = InMemoryFs::new();
        generate_visit_logs(&fs, &spec);
        generate_page_types(&fs, pages, 4, 2);
        let r = run_sim(
            &func,
            &fs,
            mitos_cfg.clone(),
            SimConfig::with_machines(machines),
        )
        .expect("mitos run");
        let mitos_ms = r.sim.end_time as f64 / 1e6;
        times.push(mitos_ms);
        cells.push(fmt_ms(mitos_ms));
        cells.push(fmt_factor(times[0] / times[2]));
        cells.push(fmt_factor(times[1] / times[2]));
        cells.push(mitos_core::obs::flow::fmt_bytes(r.flow.bytes_on_wire()));
        table.row(cells);
        report.row(vec![
            ("visits_per_day", visits.into()),
            ("spark_ms", times[0].into()),
            ("flink_sep_ms", times[1].into()),
            ("mitos_ms", times[2].into()),
            ("bytes_on_wire", r.flow.bytes_on_wire().into()),
            ("bytes_total", r.flow.bytes_total().into()),
            ("elements", r.flow.elements_in_total().into()),
            ("data_messages", r.flow.messages_in_total().into()),
        ]);
        max_spark = max_spark.max(times[0] / times[2]);
        max_flink = max_flink.max(times[1] / times[2]);
        largest_flow = Some(r.flow);
    }
    table.print();
    report.factor("spark_vs_mitos_max", max_spark);
    report.factor("flink_sep_vs_mitos_max", max_flink);
    // Per-edge breakdown at the largest sweep point: which edges carry
    // the communication volume (hottest first).
    if let Some(flow) = &largest_flow {
        for ef in flow.edges_by_bytes() {
            report.row(vec![
                ("edge", ef.edge.into()),
                ("edge_msgs", ef.msgs_out().into()),
                ("edge_elements", ef.elems_out().into()),
                ("edge_bytes", ef.bytes().into()),
                ("edge_remote_bytes", ef.remote_bytes().into()),
            ]);
        }
    }
    report.write();
    println!("\npaper: Mitos 23x -> >100x vs Spark (growing with size, due to");
    println!("hoisting); 3.1x-10.5x vs Flink separate jobs (largest at small");
    println!("inputs, where the per-step overhead dominates).");
}
