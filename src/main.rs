//! `mitos` — command-line runner for Mitos programs.
//!
//! ```sh
//! mitos run program.mt --machines 8 --engine mitos --driver threads \
//!       --input numbers=data.txt --output-dir out/
//! mitos ssa program.mt          # print the SSA intermediate representation
//! mitos check program.mt       # compile + report Flink expressibility
//! ```
//!
//! Input files are loaded into the in-memory DFS: each line becomes one bag
//! element — an integer, a float, a quoted string, or a comma-separated
//! tuple of those.

use mitos::core::obs::expo::{self, Kind};
use mitos::core::obs::span::Span;
use mitos::core::{DotOverlay, LogicalGraph, StepTree};
use mitos::fs::InMemoryFs;
use mitos::lang::Value;
use mitos::sim::SimConfig;
use mitos::{baselines, compile, ir, Driver, Engine, EngineConfig, ObsLevel, Run};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  mitos run <program> [--machines N] [--engine mitos|flink|flink-jobs|spark|reference]\n             \
         [--driver sim|threads] [--input name=path]... [--output-dir dir]\n             \
         [--explain] [--trace out.json] [--metrics-out out.prom] [--no-fuse]\n             \
         [--no-templates] [--no-pipeline] [--no-hoist]\n             \
         [--progress] [--watch] [--interval MS] [--deadline MS]\n             \
         [--fault-drop P] [--fault-dup P] [--fault-reorder P]\n             \
         [--fault-partition A:B:FROM_MS:UNTIL_MS]... [--fault-seed N] [--fault-no-retransmit]\n             \
         [--fault-withhold-decisions]\n          \
         # --driver: Mitos on the simulator (virtual time, default) or on one\n          \
         #   OS thread per machine (wall-clock time); Mitos only\n          \
         # --progress: one live status line per interval (stderr)\n          \
         # --watch: live per-operator table per interval (stderr)\n          \
         # --deadline: stall watchdog; no progress for MS ms aborts with exit 2\n          \
         # --no-fuse: disable operator chain fusion in the physical planner\n          \
         # --no-templates / --no-pipeline / --no-hoist: disable the control-plane\n          \
         #   template cache, loop pipelining (Fig. 9) or loop-invariant hoisting\n          \
         #   (Fig. 8); results are identical either way; Mitos only\n          \
         # --fault-*: seeded deterministic fault injection (Mitos only);\n          \
         #   drop/dup/reorder are per-message probabilities in [0,1]; recovery runs\n          \
         #   an at-least-once retransmission protocol unless --fault-no-retransmit,\n          \
         #   in which case an unrecoverable stall exits 2 naming the faults;\n          \
         #   --fault-withhold-decisions never broadcasts a loop decision\n          \
         #   (with --deadline: exercises the stall watchdog)\n  \
         # --metrics-out: per-step control-plane phase latency histograms\n          \
         #   (broadcast/assembly/execute/send-resolve) in Prometheus text format\n  \
         mitos explain <program> [run options] [--json] [--dot out.dot]\n          \
         # per-operator runtime report (Mitos engines only;\n          \
         #   --dot writes a metrics-count overlay)\n  \
         mitos flow <program> [run options] [--json] [--dot out.dot]\n          \
         # per-edge data-plane flow report: top edges by bytes/elements,\n          \
         #   wire totals, per-machine skew, observed selectivity, backpressure\n          \
         #   (Mitos engines only; --dot writes an edge heat overlay)\n  \
         mitos mem <program> [run options] [--json] [--dot out.dot]\n          \
         # per-machine state-residency report: live bags/elements/bytes by\n          \
         #   retention class, high-water marks, leak attribution\n          \
         #   (Mitos engines only; --dot writes a node heat overlay)\n  \
         mitos profile <program> [run options] [--json] [--dot out.dot]\n          \
         # per-iteration attribution + critical path (Mitos engines only)\n  \
         mitos trace-tree <program> [run options] [--step N] [--json] [--dot out.dot]\n          \
         # per-step causal span tree: decision broadcast -> receipt -> input\n          \
         #   assembly -> execute -> send-resolve (Mitos engines only)\n  \
         mitos ssa <program>\n  \
         mitos graph <program> [--no-fuse]   # DOT dataflow (Figure 3b style)\n  \
         mitos check <program>"
    );
    std::process::exit(2);
}

fn parse_line(line: &str) -> Result<Value, String> {
    let line = line.trim();
    let parse_atom = |s: &str| -> Result<Value, String> {
        let s = s.trim();
        if let Ok(v) = s.parse::<i64>() {
            return Ok(Value::I64(v));
        }
        if let Ok(v) = s.parse::<f64>() {
            return Ok(Value::F64(v));
        }
        if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
            return Ok(Value::str(&s[1..s.len() - 1]));
        }
        Ok(Value::str(s))
    };
    if line.contains(',') {
        let fields: Result<Vec<Value>, String> = line.split(',').map(parse_atom).collect();
        Ok(Value::tuple(fields?))
    } else {
        parse_atom(line)
    }
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Tuple(fields) => fields
            .iter()
            .map(render_value)
            .collect::<Vec<_>>()
            .join(","),
        Value::Str(s) => s.to_string(),
        other => format!("{other:?}"),
    }
}

/// The explain report as text: the per-operator table, then the per-edge
/// flow and state-residency rows when the run kept those registries (Mitos
/// engines) and the plan is at hand.
fn explain_text(outcome: &mitos::Outcome, graph: Option<&LogicalGraph>) -> String {
    let flow_rows = match (outcome.flow(), graph) {
        (Some(f), Some(g)) => f.explain_rows(g),
        _ => String::new(),
    };
    let mem_rows = outcome.mem().map(|m| m.explain_rows()).unwrap_or_default();
    format!("{}{flow_rows}{mem_rows}", outcome.explain())
}

/// `mitos explain --json`: run totals, per-operator counters, the
/// observability counters when the run recorded them, and the per-edge
/// flow and state-residency reports (`null` on engines without a Mitos
/// data plane).
fn explain_json(
    outcome: &mitos::Outcome,
    label: &str,
    machines: u16,
    graph: &LogicalGraph,
) -> String {
    expo::object(|j| {
        j.field_str("engine", label)
            .field("machines", machines)
            .field("millis", format_args!("{:.6}", outcome.millis()))
            .field("path_blocks", outcome.path.len())
            .field("decisions", outcome.decisions)
            .field(
                "hoist_hits",
                outcome.op_stats.iter().map(|s| s.hoist_hits).sum::<u64>(),
            )
            .field("data_messages", outcome.data_messages)
            .field("template_hits", outcome.template_hits)
            .field("template_misses", outcome.template_misses)
            .field("template_invalidations", outcome.template_invalidations)
            .field(
                "template_hit_rate",
                format_args!("{:.6}", outcome.template_hit_rate()),
            );
        j.key("ops").arr(|j| {
            for s in &outcome.op_stats {
                j.obj(|j| {
                    j.field("op", s.op)
                        .field_str("name", &s.name)
                        .field_str("kind", &s.kind)
                        .field("instances", s.instances)
                        .field("emitted", s.emitted)
                        .field("hoist_hits", s.hoist_hits);
                });
            }
        });
        if let Some(obs) = &outcome.obs {
            let m = &obs.metrics;
            j.key("metrics").obj(|j| {
                j.field("decisions_broadcast", m.decisions_broadcast)
                    .field("path_appends", m.path_appends)
                    .field("steps_released", m.steps_released)
                    .field(
                        "bags_opened",
                        m.ops.iter().map(|o| o.bags_opened).sum::<u64>(),
                    )
                    .field("elements_emitted", m.total_emitted())
                    .field(
                        "elements_discarded",
                        m.ops.iter().map(|o| o.elements_discarded).sum::<u64>(),
                    )
                    .field("conditional_dropped", m.total_cond_dropped())
                    .field("sink_written", m.total_sink_written())
                    .field("retransmissions", m.retransmits)
                    .field("duplicates_dropped", m.dup_msgs_dropped);
            });
        }
        let flow = outcome.flow().map(|f| f.to_json(graph));
        let mem = outcome.mem().map(|m| m.to_json(graph));
        j.field("flow", flow.as_deref().unwrap_or("null"))
            .field("mem", mem.as_deref().unwrap_or("null"));
    })
}

/// `mitos trace-tree`: the causal span trees of the traced steps (only
/// step `step` when given), as text or as JSON. Span ids are
/// deterministic (see [`mitos::core::obs::span`]) and under the simulator
/// so are the timestamps, so both forms are bit-stable across runs.
fn trace_tree_report(
    outcome: &mitos::Outcome,
    step: Option<u32>,
    json: bool,
) -> Result<String, String> {
    let trees = outcome
        .trace_trees()
        .ok_or("run produced no trace for trace-tree")?;
    // Operator display names, indexed by operator id.
    let max_op = outcome.op_stats.iter().map(|s| s.op).max().unwrap_or(0);
    let mut op_names = vec![String::new(); max_op as usize + 1];
    for s in &outcome.op_stats {
        op_names[s.op as usize] = format!("{} ({})", s.name, s.kind);
    }
    let all: Vec<&StepTree> = trees.iter().collect();
    let selected: Vec<&StepTree> = all
        .iter()
        .copied()
        .filter(|t| step.is_none_or(|s| s == t.step))
        .collect();
    if let (Some(s), true) = (step, selected.is_empty()) {
        return Err(format!(
            "no step {s} in this run ({} steps traced)",
            trees.len()
        ));
    }
    let counts = |trees: &[&StepTree]| {
        (
            trees.len(),
            trees.iter().map(|t| t.spans.len()).sum::<usize>(),
            trees.iter().map(|t| t.orphans.len()).sum::<usize>(),
        )
    };
    if !json {
        let mut out: String = selected
            .iter()
            .map(|t| mitos::core::render_tree(t, &op_names))
            .collect();
        let (steps, spans, orphans) = counts(&all);
        out.push_str(&format!(
            "{steps} step(s), {spans} span(s), {orphans} orphan(s)\n"
        ));
        return Ok(out);
    }
    let span_json = |j: &mut expo::Json, s: &Span| {
        j.obj(|j| {
            j.field("id", s.id)
                .field("parent", s.parent)
                .field_str("kind", s.kind.label())
                .field("machine", s.machine);
            match s.op {
                u32::MAX => j.field("op", "null"),
                op => j.field("op", op),
            };
            j.field_str(
                "op_name",
                op_names.get(s.op as usize).map_or("", |n| n.as_str()),
            )
            .field("start_ns", s.start_ns)
            .field("end_ns", s.end_ns)
            .field("attempts", s.attempts)
            .field_str("label", &s.label)
            .field_str("detail", &s.detail);
        });
    };
    let (steps, spans, orphans) = counts(&selected);
    Ok(expo::object(|j| {
        j.key("steps").arr(|j| {
            for tree in &selected {
                j.obj(|j| {
                    j.field("step", tree.step)
                        .field("block", tree.block)
                        .field("decided", tree.decided);
                    j.key("spans")
                        .arr(|j| tree.spans.iter().for_each(|s| span_json(j, s)));
                    j.key("orphans")
                        .arr(|j| tree.orphans.iter().for_each(|s| span_json(j, s)));
                });
            }
        });
        j.field("step_count", steps)
            .field("span_count", spans)
            .field("orphan_count", orphans);
    }))
}

/// The operand of the flag at `args[*i]`, parsed; advances `*i` past it
/// and exits with usage when it is missing or malformed.
fn operand<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T {
    *i += 1;
    args.get(*i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage())
}

/// A `--fault-*` probability operand, which must lie in `[0, 1]`.
fn probability(args: &[String], i: &mut usize) -> f64 {
    let p: f64 = operand(args, i);
    if !(0.0..=1.0).contains(&p) {
        usage();
    }
    p
}

/// Writes a report subcommand's DOT overlay to `path`; `what` names the
/// overlay in the confirmation line on stderr.
fn write_dot(path: &str, dot: String, what: &str) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::write(path, dot) {
        eprintln!("error: cannot write DOT {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    eprintln!("wrote {what} DOT {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let command = args[0].as_str();
    let program_path = &args[1];
    let src = match std::fs::read_to_string(program_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {program_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let func = match compile(&src) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "{}",
                mitos::lang::Diagnostic::new(e.message.clone(), Default::default()).render(&src)
            );
            return ExitCode::FAILURE;
        }
    };

    match command {
        "ssa" => {
            print!("{}", ir::pretty(&func));
            ExitCode::SUCCESS
        }
        "check" => {
            println!(
                "compiles: yes ({} basic blocks, {} operators)",
                func.blocks.len(),
                func.blocks.iter().map(|b| b.stmts.len()).sum::<usize>()
            );
            match baselines::flink_mode(&func) {
                baselines::FlinkMode::Native => {
                    println!("Flink native iterations: expressible")
                }
                baselines::FlinkMode::SeparateJobs => println!(
                    "Flink native iterations: NOT expressible (needs one job per step); \
                     Mitos runs it as a single dataflow job"
                ),
            }
            ExitCode::SUCCESS
        }
        "run" | "graph" | "explain" | "flow" | "mem" | "profile" | "trace-tree" => {
            let explain_cmd = command == "explain";
            let tracetree_cmd = command == "trace-tree";
            let report_cmd = matches!(
                command,
                "explain" | "flow" | "mem" | "profile" | "trace-tree"
            );
            let mut machines: u16 = 4;
            let mut engine = Engine::Mitos;
            let mut driver = Driver::Sim;
            let mut inputs: Vec<(String, String)> = Vec::new();
            let mut output_dir: Option<String> = None;
            let mut explain = explain_cmd;
            let mut trace_path: Option<String> = None;
            let mut metrics_out: Option<String> = None;
            let mut step_filter: Option<u32> = None;
            let mut json = false;
            let mut dot: Option<String> = None;
            let mut combiners = false;
            let mut no_fuse = false;
            let mut no_templates = false;
            let mut no_pipeline = false;
            let mut no_hoist = false;
            let mut progress = false;
            let mut watch = false;
            let mut interval_ms: u64 = 200;
            let mut deadline_ms: Option<u64> = None;
            let mut faults = mitos::FaultPlan::new();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--machines" => machines = operand(&args, &mut i),
                    "--engine" => {
                        engine = match operand::<String>(&args, &mut i).as_str() {
                            "mitos" => Engine::Mitos,
                            "flink" => Engine::FlinkNative,
                            "flink-jobs" => Engine::FlinkSeparateJobs,
                            "spark" => Engine::Spark,
                            "reference" => Engine::Reference,
                            _ => usage(),
                        };
                    }
                    "--driver" => {
                        driver = match operand::<String>(&args, &mut i).as_str() {
                            "sim" => Driver::Sim,
                            "threads" => Driver::Threads,
                            _ => usage(),
                        };
                    }
                    "--input" => {
                        let spec: String = operand(&args, &mut i);
                        let (name, path) = spec.split_once('=').unwrap_or_else(|| usage());
                        inputs.push((name.to_string(), path.to_string()));
                    }
                    "--output-dir" => output_dir = Some(operand(&args, &mut i)),
                    "--explain" => explain = true,
                    "--trace" => trace_path = Some(operand(&args, &mut i)),
                    "--metrics-out" => metrics_out = Some(operand(&args, &mut i)),
                    // Restricting the tree rendering to one path position
                    // only makes sense under `mitos trace-tree`.
                    "--step" if tracetree_cmd => step_filter = Some(operand(&args, &mut i)),
                    // Shared report options: every report subcommand takes
                    // --json (deterministic JSON on stdout) and --dot (that
                    // subcommand's overlay: observed counts under
                    // explain/trace-tree, edge heat under flow, node
                    // residency heat under mem, the critical path under
                    // profile).
                    "--json" if report_cmd => json = true,
                    "--dot" if report_cmd => dot = Some(operand(&args, &mut i)),
                    "--combiners" => combiners = true,
                    "--no-fuse" => no_fuse = true,
                    "--no-templates" => no_templates = true,
                    "--no-pipeline" => no_pipeline = true,
                    "--no-hoist" => no_hoist = true,
                    "--progress" => progress = true,
                    "--watch" => watch = true,
                    "--interval" => interval_ms = operand(&args, &mut i),
                    "--deadline" => deadline_ms = Some(operand(&args, &mut i)),
                    "--fault-drop" => faults.drop = probability(&args, &mut i),
                    "--fault-dup" => faults.duplicate = probability(&args, &mut i),
                    "--fault-reorder" => faults.reorder = probability(&args, &mut i),
                    "--fault-partition" => {
                        let spec: String = operand(&args, &mut i);
                        let parts: Vec<&str> = spec.split(':').collect();
                        let machine = |j: usize| parts.get(j).and_then(|s| s.parse::<u16>().ok());
                        let millis = |j: usize| {
                            parts
                                .get(j)
                                .and_then(|s| s.parse::<u64>().ok())
                                .map(|ms| ms.saturating_mul(1_000_000))
                        };
                        match (machine(0), machine(1), millis(2), millis(3)) {
                            (Some(a), Some(b), Some(from), Some(until)) if parts.len() == 4 => {
                                faults = faults.with_partition(a, b, from, until);
                            }
                            _ => usage(),
                        }
                    }
                    "--fault-seed" => faults.seed = operand(&args, &mut i),
                    "--fault-no-retransmit" => faults.retransmit = false,
                    "--fault-withhold-decisions" => faults.withhold_decisions = true,
                    _ => usage(),
                }
                i += 1;
            }
            // Tracing, profiling, span trees and the phase-histogram
            // export need timestamps; a bare --explain only needs the
            // counters.
            let obs = if trace_path.is_some()
                || matches!(command, "profile" | "trace-tree")
                || metrics_out.is_some()
            {
                ObsLevel::Trace
            } else if explain {
                ObsLevel::Metrics
            } else {
                ObsLevel::Off
            };
            // Reports, traces, live telemetry, Mitos knobs, the thread
            // driver and fault injection all exist only on Mitos; asking for
            // one elsewhere is a contradiction, not a warning.
            let report_what = format!("`mitos {command}`");
            let mitos_only = [
                (report_cmd, report_what.as_str()),
                (trace_path.is_some(), "--trace"),
                (metrics_out.is_some(), "--metrics-out"),
                (
                    progress || watch || deadline_ms.is_some(),
                    "--progress/--watch/--deadline",
                ),
                (no_templates, "--no-templates"),
                (no_pipeline, "--no-pipeline"),
                (no_hoist, "--no-hoist"),
                (driver == Driver::Threads, "--driver threads"),
                (args.iter().any(|a| a.starts_with("--fault-")), "--fault-*"),
            ];
            if let Some(&(_, what)) = mitos_only.iter().find(|(on, _)| *on) {
                if let Err(e) = engine.require_mitos(what) {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
            let fs = InMemoryFs::new();
            for (name, path) in &inputs {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("error: cannot read input {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let elems: Result<Vec<Value>, String> = text
                    .lines()
                    .filter(|l| !l.trim().is_empty())
                    .map(parse_line)
                    .collect();
                match elems {
                    Ok(elems) => fs.put(name.clone(), elems),
                    Err(e) => {
                        eprintln!("error: bad input line in {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let input_names: std::collections::BTreeSet<String> =
                inputs.iter().map(|(n, _)| n.clone()).collect();
            let func = if combiners {
                ir::passes::insert_combiners(&func)
            } else {
                func
            };
            let sample_ms = if progress || watch { interval_ms } else { 0 };
            let engine_cfg = EngineConfig::new()
                .with_fusion(!no_fuse)
                .with_templates(!no_templates)
                .with_pipelining(!no_pipeline)
                .with_hoisting(!no_hoist)
                .with_obs(obs)
                .with_sample_interval_ns(sample_ms.saturating_mul(1_000_000))
                .with_stall_deadline_ns(deadline_ms.map_or(0, |ms| ms.saturating_mul(1_000_000)))
                .with_faults(faults);
            // The plan the engine runs (post-fusion): the watch table, the
            // reports and their DOT overlays all index operators by its ids.
            let graph = mitos::core::planned_graph(&func, &engine_cfg);
            if command == "graph" {
                // Figure-3b-style DOT rendering of the single dataflow job.
                return match &graph {
                    Ok(g) => {
                        print!("{}", mitos::core::to_dot(g, &DotOverlay::default()));
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            let mut on_snapshot = |s: &mitos::Snapshot| match &graph {
                // Clear + home: a live-updating table like `top`.
                Ok(g) if watch => eprint!("\x1b[2J\x1b[H{}", mitos::core::watch_table(s, g)),
                _ if progress => eprintln!("{}", mitos::core::progress_line(s)),
                _ => {}
            };
            let label = match driver {
                Driver::Sim => engine.to_string(),
                Driver::Threads => "Mitos (threads)".to_string(),
            };
            let start = std::time::Instant::now();
            match Run::new(&func)
                .engine(engine)
                .driver(driver)
                .cluster(SimConfig::with_machines(machines))
                .on_snapshot(&mut on_snapshot)
                .config(engine_cfg.clone())
                .execute(&fs)
            {
                Ok(outcome) => {
                    if progress || watch {
                        eprintln!(
                            "[progress] done: {} snapshots, {} elements emitted",
                            outcome.snapshots.len(),
                            outcome.op_stats.iter().map(|s| s.emitted).sum::<u64>(),
                        );
                    }
                    // Side outputs come first, so every subcommand writes
                    // them before its report.
                    if let Some(path) = &trace_path {
                        // The engine gate above makes a trace an invariant
                        // here, not a user error.
                        let trace = outcome
                            .chrome_trace()
                            .expect("Mitos runs at Trace record events");
                        if let Err(e) = std::fs::write(path, trace) {
                            eprintln!("error: cannot write trace {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!(
                            "wrote Chrome trace {path} ({} events) — open in \
                             chrome://tracing or https://ui.perfetto.dev",
                            outcome.obs.as_ref().map_or(0, |o| o.events.len())
                        );
                    }
                    if let Some(path) = &metrics_out {
                        let Some(histos) = outcome.phase_histograms() else {
                            eprintln!("error: run produced no trace for --metrics-out");
                            return ExitCode::FAILURE;
                        };
                        let mut prom = histos.prometheus();
                        expo::family(
                            &mut prom,
                            "mitos_template_lookups_total",
                            "Template-cache lookup outcomes by bag starts.",
                            Kind::Counter,
                            [
                                ("hit", outcome.template_hits),
                                ("miss", outcome.template_misses),
                                ("invalidation", outcome.template_invalidations),
                            ]
                            .map(|(o, n)| (expo::labels(&[("outcome", &o)]), n)),
                        );
                        expo::family(
                            &mut prom,
                            "mitos_template_hit_rate",
                            "Fraction of bag starts served by template replay.",
                            Kind::Gauge,
                            [("", format!("{:.6}", outcome.template_hit_rate()))],
                        );
                        // Per-edge flow and per-class residency series ride
                        // along in the same exposition file.
                        if let Ok(g) = &graph {
                            if let Some(f) = outcome.flow() {
                                prom.push_str(&f.prometheus(g));
                            }
                            if let Some(m) = outcome.mem() {
                                prom.push_str(&m.prometheus(g));
                            }
                        }
                        if let Err(e) = std::fs::write(path, prom) {
                            eprintln!("error: cannot write metrics {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                        eprintln!(
                            "wrote Prometheus metrics {path} \
                             ({} steps, 4 phases, per-edge flow, residency)",
                            histos.steps
                        );
                    }
                    // As a flag on `run` (or beside another report) the
                    // explain table is diagnostics: stderr.
                    if explain && !explain_cmd {
                        eprint!("{}", explain_text(&outcome, graph.as_ref().ok()));
                    }
                    if report_cmd {
                        let graph = match &graph {
                            Ok(g) => g,
                            Err(e) => {
                                eprintln!("error: {e}");
                                return ExitCode::FAILURE;
                            }
                        };
                        // The subcommand's report is the product: stdout,
                        // as text or JSON, plus its DOT overlay on the plan
                        // that ran. The engine gate above makes flow and
                        // residency accounting invariants here.
                        let metrics = outcome.obs.as_ref().map(|o| &o.metrics);
                        let profile;
                        let (body, overlay, what) = match command {
                            "explain" => (
                                if json {
                                    explain_json(&outcome, &label, machines, graph)
                                } else {
                                    explain_text(&outcome, Some(graph))
                                },
                                DotOverlay {
                                    metrics,
                                    ..Default::default()
                                },
                                "metrics overlay",
                            ),
                            "flow" => {
                                let flow = outcome.flow().expect("Mitos engines account flow");
                                (
                                    if json {
                                        flow.to_json(graph)
                                    } else {
                                        flow.render(graph)
                                    },
                                    DotOverlay {
                                        flow: Some(flow),
                                        ..Default::default()
                                    },
                                    "flow heat-overlay",
                                )
                            }
                            "mem" => {
                                let mem = outcome.mem().expect("Mitos engines account residency");
                                (
                                    if json {
                                        mem.to_json(graph)
                                    } else {
                                        mem.render(graph)
                                    },
                                    DotOverlay {
                                        mem: Some(mem),
                                        ..Default::default()
                                    },
                                    "mem residency",
                                )
                            }
                            "profile" => {
                                let Some(p) = outcome.profile() else {
                                    eprintln!("error: run produced no trace to profile");
                                    return ExitCode::FAILURE;
                                };
                                profile = p;
                                let ops = &outcome.op_stats;
                                (
                                    if json {
                                        profile.to_json(ops)
                                    } else {
                                        profile.render(ops)
                                    },
                                    DotOverlay {
                                        metrics,
                                        critical: Some(&profile.critical),
                                        ..Default::default()
                                    },
                                    "critical-path",
                                )
                            }
                            // The span trees have no graph rendering of their
                            // own; the overlay carries the observed counts.
                            _ => match trace_tree_report(&outcome, step_filter, json) {
                                Ok(body) => (
                                    body,
                                    DotOverlay {
                                        metrics,
                                        ..Default::default()
                                    },
                                    "metrics overlay",
                                ),
                                Err(e) => {
                                    eprintln!("error: {e}");
                                    return ExitCode::FAILURE;
                                }
                            },
                        };
                        if json {
                            println!("{body}");
                        } else {
                            print!("{body}");
                        }
                        if let Some(path) = &dot {
                            let dot = mitos::core::to_dot(graph, &overlay);
                            if let Err(code) = write_dot(path, dot, what) {
                                return code;
                            }
                        }
                        return ExitCode::SUCCESS;
                    }
                    for (tag, values) in &outcome.outputs {
                        println!("== output {tag} ({} values) ==", values.len());
                        for v in values {
                            println!("{}", render_value(v));
                        }
                    }
                    if let Some(dir) = output_dir {
                        std::fs::create_dir_all(&dir).ok();
                        for name in fs.list() {
                            if input_names.contains(&name) {
                                continue;
                            }
                            let rows = fs.read(&name).expect("listed");
                            let text: String =
                                rows.iter().map(|v| render_value(v) + "\n").collect();
                            let path = format!("{dir}/{name}");
                            if let Err(e) = std::fs::write(&path, text) {
                                eprintln!("warning: cannot write {path}: {e}");
                            } else {
                                println!("wrote {path} ({} rows)", rows.len());
                            }
                        }
                    }
                    let clock = if driver == Driver::Threads {
                        "measured"
                    } else {
                        "virtual"
                    };
                    eprintln!(
                        "[{label}] {} machines, {:.2} {clock} ms, {:.0} ms wall",
                        machines,
                        outcome.millis(),
                        start.elapsed().as_secs_f64() * 1000.0
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("runtime error: {e}");
                    if e.stall.is_some() {
                        // Stall watchdog / deadlock diagnosis: exit 2,
                        // like the other usage-level contradictions.
                        return ExitCode::from(2);
                    }
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
