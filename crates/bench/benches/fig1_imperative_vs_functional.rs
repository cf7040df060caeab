//! **Figure 1**: imperative vs. functional control flow handling — Spark
//! (imperative driver loop, easy to use) vs. Flink (functional native
//! iterations, fast) on the Visit Count task at a fixed cluster size.
//! The paper reports Spark ~11x slower than Flink on 24 machines.

use mitos::{Engine, EngineConfig};
use mitos_bench::{fmt_factor, fmt_ms, full_scale, virtual_ms, visit_cost, BenchReport, Table};
use mitos_fs::InMemoryFs;
use mitos_workloads::{generate_visit_logs, visit_count_program, VisitCountSpec};

fn main() {
    let (days, visits) = if full_scale() {
        (120, 20_000)
    } else {
        (40, 5_000)
    };
    let machines = 24;
    let spec = VisitCountSpec {
        days,
        visits_per_day: visits,
        pages: 2_000,
        seed: 1,
    };
    let func = mitos_ir::compile_str(&visit_count_program(days, false)).unwrap();

    println!("\n=== Figure 1: imperative vs functional control flow ===");
    println!("Visit Count, {days} days x {visits} visits, {machines} machines\n");
    let mut table = Table::new(&["system", "time", "vs Flink"]);
    let mut report = BenchReport::new("fig1", "imperative vs functional control flow");
    let mut flink_ms = 0.0;
    let mut spark_ms = 0.0;
    // Flink here plays the paper's "functional control flow" role (native
    // iterations); Spark is the imperative driver loop.
    let config = EngineConfig::new().with_cost(visit_cost());
    for (label, engine) in [("Flink", Engine::FlinkNative), ("Spark", Engine::Spark)] {
        let fs = InMemoryFs::new();
        generate_visit_logs(&fs, &spec);
        let ms = virtual_ms(&func, &fs, engine, config.clone(), machines);
        if engine == Engine::FlinkNative {
            flink_ms = ms;
        } else {
            spark_ms = ms;
        }
        table.row(vec![
            label.to_string(),
            fmt_ms(ms),
            fmt_factor(ms / flink_ms),
        ]);
        report.row(vec![
            ("system", label.into()),
            ("machines", machines.into()),
            ("days", days.into()),
            ("ms", ms.into()),
        ]);
    }
    table.print();
    report.factor("spark_vs_flink", spark_ms / flink_ms);
    report.write();
    println!("\npaper: Spark ~11x slower than Flink (imperative control flow");
    println!("costs a job launch per iteration step; functional control flow");
    println!("runs as one job but is hard to use).");
}
