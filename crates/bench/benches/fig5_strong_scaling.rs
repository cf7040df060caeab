//! **Figure 5**: strong scaling of Visit Count. The paper reports Mitos
//! scaling gracefully while Spark and Flink *increase* with machine count
//! (their per-step overhead grows with the cluster); at 25 machines Mitos
//! is ~10x faster than Spark and ~3x faster than Flink.

use mitos::{Engine, EngineConfig};
use mitos_bench::{fmt_ms, full_scale, virtual_ms, visit_cost, BenchReport, Table};
use mitos_fs::InMemoryFs;
use mitos_workloads::{generate_visit_logs, visit_count_program, VisitCountSpec};

fn main() {
    let (days, visits) = if full_scale() {
        (120, 20_000)
    } else {
        (40, 5_000)
    };
    let spec = VisitCountSpec {
        days,
        visits_per_day: visits,
        pages: 2_000,
        seed: 5,
    };
    let func = mitos_ir::compile_str(&visit_count_program(days, false)).unwrap();
    let engines = [Engine::Spark, Engine::FlinkNative, Engine::Mitos];
    let config = EngineConfig::new().with_cost(visit_cost());

    println!("\n=== Figure 5: strong scaling (Visit Count) ===");
    println!("{days} days x {visits} visits/day\n");
    let mut table = Table::new(&[
        "machines",
        "Spark",
        "Flink",
        "Mitos",
        "Mitos speedup vs Spark",
    ]);
    let mut report = BenchReport::new("fig5", "strong scaling (Visit Count)");
    let mut max_spark = 0.0f64;
    let mut max_flink = 0.0f64;
    for machines in [2u16, 4, 8, 16, 25] {
        let mut cells = vec![machines.to_string()];
        let mut times = Vec::new();
        for engine in engines {
            let fs = InMemoryFs::new();
            generate_visit_logs(&fs, &spec);
            let ms = virtual_ms(&func, &fs, engine, config.clone(), machines);
            times.push(ms);
            cells.push(fmt_ms(ms));
        }
        cells.push(format!("{:.1}x", times[0] / times[2]));
        table.row(cells);
        report.row(vec![
            ("machines", machines.into()),
            ("spark_ms", times[0].into()),
            ("flink_ms", times[1].into()),
            ("mitos_ms", times[2].into()),
        ]);
        max_spark = max_spark.max(times[0] / times[2]);
        max_flink = max_flink.max(times[1] / times[2]);
    }
    table.print();
    report.factor("spark_vs_mitos_max", max_spark);
    report.factor("flink_vs_mitos_max", max_flink);
    report.write();
    println!("\npaper: Spark and Flink grow with machines (per-step overhead),");
    println!("Mitos scales down; Mitos ~10x vs Spark, ~3x vs Flink at 25.");
}
