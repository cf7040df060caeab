//! The paper's running example (Sec. 2): per-day page-visit counts with
//! day-over-day diffs, executed on Mitos and on the Spark- and Flink-style
//! baselines — a miniature of the strong-scaling experiment (Fig. 5).
//!
//! ```sh
//! cargo run --release --example visit_count
//! ```

use mitos::fs::InMemoryFs;
use mitos::workloads::{generate_visit_logs, visit_count_program, VisitCountSpec};
use mitos::{compile, Engine, EngineConfig, Run};

fn main() {
    let days = 15;
    let spec = VisitCountSpec {
        days,
        visits_per_day: 5_000,
        pages: 1_000,
        seed: 2021,
    };
    let program = visit_count_program(days, false);
    println!("=== Program (imperative control flow) ===\n{program}");
    let func = compile(&program).expect("compiles");

    // Flink cannot express this natively (file I/O + if inside the loop):
    let mode = mitos::baselines::flink_mode(&func);
    println!("Flink native-iteration support: {mode:?}\n");

    println!("{:<28} {:>14} {:>12}", "engine", "time (vms)", "vs Mitos");
    let machines = 8;
    let mut mitos_ms = 0.0;
    for (label, engine, pipelined) in [
        ("Mitos", Engine::Mitos, true),
        ("Mitos (not pipelined)", Engine::Mitos, false),
        ("Flink (separate jobs)", Engine::FlinkSeparateJobs, true),
        ("Spark", Engine::Spark, true),
    ] {
        let fs = InMemoryFs::new();
        generate_visit_logs(&fs, &spec);
        let outcome = Run::new(&func)
            .engine(engine)
            .machines(machines)
            .config(EngineConfig::new().with_pipelining(pipelined))
            .execute(&fs)
            .expect("runs");
        if engine == Engine::Mitos && pipelined {
            mitos_ms = outcome.millis();
        }
        println!(
            "{:<28} {:>14.1} {:>11.1}x",
            label,
            outcome.millis(),
            outcome.millis() / mitos_ms
        );
        // All engines write identical diff files.
        let diff2 = fs.read("diff2").expect("diff2 written");
        assert_eq!(diff2.len(), 1);
    }
    println!(
        "\n(simulated {machines}-machine cluster, {days} days x {} visits)",
        spec.visits_per_day
    );
}
