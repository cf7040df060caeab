//! **Figure 9**: the loop-pipelining ablation — Visit Count (without the
//! pageTypes join) on Mitos with and without pipelining, sweeping machine
//! count. The paper reports pipelining winning by 1.1x up to ~4.2x.

use mitos::{Engine, EngineConfig};
use mitos_bench::{fmt_factor, fmt_ms, full_scale, virtual_ms, visit_cost, BenchReport, Table};
use mitos_fs::InMemoryFs;
use mitos_workloads::{generate_visit_logs, visit_count_program, VisitCountSpec};

fn main() {
    let (days, visits) = if full_scale() {
        (120, 20_000)
    } else {
        (40, 8_000)
    };
    let spec = VisitCountSpec {
        days,
        visits_per_day: visits,
        pages: 2_000,
        seed: 9,
    };
    let func = mitos_ir::compile_str(&visit_count_program(days, false)).unwrap();

    println!("\n=== Figure 9: loop pipelining ablation ===");
    println!("{days} days x {visits} visits/day\n");
    let mut table = Table::new(&["machines", "Mitos (not pipelined)", "Mitos", "speedup"]);
    let mut report = BenchReport::new("fig9", "loop pipelining ablation");
    let mut max_speedup = 0.0f64;
    let config = EngineConfig::new().with_cost(visit_cost());
    let run = |config: EngineConfig, machines: u16| {
        let fs = InMemoryFs::new();
        generate_visit_logs(&fs, &spec);
        virtual_ms(&func, &fs, Engine::Mitos, config, machines)
    };
    for machines in [2u16, 4, 8, 16, 25] {
        let no_pipe = run(config.clone().with_pipelining(false), machines);
        let pipe = run(config.clone(), machines);
        table.row(vec![
            machines.to_string(),
            fmt_ms(no_pipe),
            fmt_ms(pipe),
            fmt_factor(no_pipe / pipe),
        ]);
        report.row(vec![
            ("machines", machines.into()),
            ("nopipe_ms", no_pipe.into()),
            ("mitos_ms", pipe.into()),
        ]);
        max_speedup = max_speedup.max(no_pipe / pipe);
    }
    table.print();
    report.factor("pipelining_speedup_max", max_speedup);
    report.write();
    println!("\npaper: pipelining 1.1x-4.2x faster (overlapping iteration");
    println!("steps hides per-step latency and file-read time).");
}
