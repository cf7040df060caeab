//! **Figure 8**: the loop-invariant hoisting experiment — Visit Count with
//! the pageTypes join, sweeping the size of the loop-invariant pageTypes
//! dataset while the rest of the input stays fixed. The paper reports
//! Spark (no hoisting) growing linearly, up to 45x slower than Mitos;
//! Mitos-without-hoisting also linear, up to 11x slower than Mitos; Mitos
//! and Flink flat (they build the join hash table once).

use mitos::{Engine, EngineConfig};
use mitos_bench::{fmt_factor, fmt_ms, full_scale, invariant_cost, virtual_ms, BenchReport, Table};
use mitos_fs::InMemoryFs;
use mitos_workloads::{
    generate_page_types, generate_visit_logs, visit_count_program, VisitCountSpec,
};

fn main() {
    let days = if full_scale() { 60 } else { 30 };
    let machines = 8;
    let visits = if full_scale() { 2_000 } else { 1_000 };
    let page_sizes: &[u64] = if full_scale() {
        &[5_000, 40_000, 160_000, 640_000]
    } else {
        &[2_000, 20_000, 120_000]
    };
    let config = EngineConfig::new().with_cost(invariant_cost());
    let systems = [
        (Engine::Spark, config.clone()),
        (Engine::Mitos, config.clone().with_hoisting(false)),
        (Engine::FlinkNative, config.clone()),
        (Engine::Mitos, config),
    ];

    println!("\n=== Figure 8: loop-invariant dataset size sweep ===");
    println!("{days} days x {visits} visits/day (fixed), {machines} machines\n");
    let mut table = Table::new(&[
        "pageTypes rows",
        "Spark",
        "Mitos (wo. hoisting)",
        "Flink",
        "Mitos",
        "Spark/Mitos",
        "NoHoist/Mitos",
    ]);
    let mut report = BenchReport::new("fig8", "loop-invariant dataset size sweep");
    let mut max_spark = 0.0f64;
    let mut max_nohoist = 0.0f64;
    for &pages in page_sizes {
        let spec = VisitCountSpec {
            days,
            visits_per_day: visits,
            pages,
            seed: 8,
        };
        let func = mitos_ir::compile_str(&visit_count_program(days, true)).unwrap();
        let mut cells = vec![pages.to_string()];
        let mut times = Vec::new();
        for (engine, config) in &systems {
            let fs = InMemoryFs::new();
            generate_visit_logs(&fs, &spec);
            generate_page_types(&fs, pages, 4, 3);
            let ms = virtual_ms(&func, &fs, *engine, config.clone(), machines);
            times.push(ms);
            cells.push(fmt_ms(ms));
        }
        cells.push(fmt_factor(times[0] / times[3]));
        cells.push(fmt_factor(times[1] / times[3]));
        table.row(cells);
        report.row(vec![
            ("pages", pages.into()),
            ("spark_ms", times[0].into()),
            ("nohoist_ms", times[1].into()),
            ("flink_ms", times[2].into()),
            ("mitos_ms", times[3].into()),
        ]);
        max_spark = max_spark.max(times[0] / times[3]);
        max_nohoist = max_nohoist.max(times[1] / times[3]);
    }
    table.print();
    report.factor("spark_vs_mitos_max", max_spark);
    report.factor("nohoist_vs_mitos_max", max_nohoist);
    report.write();
    println!("\npaper: Spark and Mitos-without-hoisting grow linearly with the");
    println!("invariant dataset (hash table rebuilt per step; up to 45x and");
    println!("11x slower); Mitos and Flink stay flat (built once, probed).");
}
