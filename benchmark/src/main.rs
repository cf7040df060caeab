//! Wall-clock benchmark of Mitos, measured strictly from outside: it times
//! calls into public functions and reads counters the engine already
//! returns. One process measures one workload:
//!
//! ```text
//! mitos-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                 [--out-dir DIR] [--tiny]
//! ```
//!
//! `--trace 0` is the end-to-end pass (`ObsLevel::Off`, no spans): set-up
//! time and job time on both drivers. `--trace 1` is the per-layer pass:
//! spans around every call into a layer, a thread-driver job at
//! `ObsLevel::Trace`, and the layer replays. The last line of standard
//! output is one JSON object; see `README.md`.

mod layers;
mod oracle;
mod report;
mod stats;
mod trace;
mod workloads;

use layers::Artifacts;
use mitos::core::{
    build_step_trees, planned_graph, run_sim, run_threads, EngineConfig, EngineResult,
    LogicalGraph, ObsLevel, PathRules, PhaseHistograms,
};
use mitos::ir::FuncIr;
use mitos::sim::SimConfig;
use oracle::{Expected, Tally};
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Inputs, Plane, Workload, THREAD_MACHINES};

/// The end-to-end metrics, printed by the `--trace 0` pass. Everything
/// else a run measures is a per-layer metric.
const END_TO_END: [&str; 3] = ["setup_s", "threads_job_ms", "sim_job_ms"];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: Option<PathBuf>,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, None, None);
    let (mut out_dir, mut tiny) = (None, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workloads::find(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
        tiny,
    })
}

/// What the user pays before the first worker message: source text to a
/// planned graph and its coordination rules.
struct Plan {
    func: FuncIr,
    graph: LogicalGraph,
    rules: PathRules,
}

fn set_up(src: &str, config: &EngineConfig, tr: &mut Tracer) -> Result<Plan, String> {
    let program = tr
        .span("lang.parse", || (mitos::lang::parse(src), src.len() as u64))
        .map_err(|e| e.to_string())?;
    let func = tr.span("ir.compile", || {
        let func = mitos::ir::compile(&program);
        let blocks = func.as_ref().map_or(0, |f| f.blocks.len());
        (func, blocks as u64)
    });
    let func = func.map_err(|e| e.to_string())?;
    let graph = tr.span("fuse.plan", || {
        let graph = planned_graph(&func, config);
        let nodes = graph.as_ref().map_or(0, |g| g.nodes.len());
        (graph, nodes as u64)
    });
    let graph = graph.map_err(|e| e.to_string())?;
    let rules = tr.span("path.rules_build", || {
        let rules = PathRules::build(&graph);
        let edges = rules.edges.len() as u64;
        (rules, edges)
    });
    Ok(Plan { func, graph, rules })
}

/// Set-ups timed before each job of the end-to-end pass, and the fewest a
/// pass times in all. The first eight or so after a job run on caches the
/// job emptied (up to twice as slow); forty put the median on the plateau
/// behind them.
const SETUPS_PER_JOB: usize = 40;
const MIN_SETUPS: usize = 200;

/// One cycle of the end-to-end pass. The thread driver's job time swings
/// more from job to job than the simulator's, so it gets two samples to the
/// simulator's one.
const CYCLE: [Driver; 3] = [Driver::Threads, Driver::Sim, Driver::Threads];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Driver {
    Threads,
    Sim,
}

struct Bench<'a> {
    workload: &'a Workload,
    inputs: &'a Inputs,
    func: &'a FuncIr,
    config: EngineConfig,
    /// `None` when the oracle itself is unusable: every job then fails.
    expected: Option<&'a Expected>,
    /// [`Workload::time_scale`] of this run's inputs.
    time_scale: f64,
    tally: Tally,
    /// Defects beyond job failures (sanity assertions), for `correct`.
    defects: Vec<String>,
}

impl Bench<'_> {
    /// Runs one job on a fresh file system, checks it against the oracle,
    /// and returns its (scaled) wall time in ms with the engine's result;
    /// `None` for a failed job, which is counted and leaves no sample.
    fn job(
        &mut self,
        driver: Driver,
        obs: ObsLevel,
        tr: &mut Tracer,
    ) -> Option<(f64, EngineResult)> {
        let fs = tr.span("fs.load", || {
            (self.inputs.fresh_fs(), self.inputs.files.len() as u64)
        });
        let config = self.config.clone().with_obs(obs);
        let span = tr.begin(match (driver, obs) {
            (Driver::Sim, _) => "engine.run_sim",
            (Driver::Threads, ObsLevel::Off) => "engine.run_threads.obs_off",
            (Driver::Threads, _) => "engine.run_threads",
        });
        let start = Instant::now();
        let result = match driver {
            Driver::Threads => run_threads(self.func, &fs, config, THREAD_MACHINES),
            Driver::Sim => run_sim(
                self.func,
                &fs,
                config,
                SimConfig::with_machines(self.workload.sim_machines),
            ),
        };
        let ms = start.elapsed().as_secs_f64() * 1e3 * self.time_scale;
        tr.end(
            span,
            result.as_ref().map_or(0, |r| r.flow.elements_in_total()),
        );

        let verify = tr.begin("verify");
        let wrong = match (&result, self.expected) {
            (Err(e), _) => vec![e.to_string()],
            (Ok(_), None) => vec!["the reference interpreter's result is unusable".to_string()],
            (Ok(r), Some(expected)) => {
                let mut wrong = expected.check(self.inputs, &r.outputs, &fs);
                if r.path.len() != expected.path_len {
                    wrong.push(format!(
                        "execution path has {} blocks, the reference {}",
                        r.path.len(),
                        expected.path_len
                    ));
                }
                // A mis-wired fault plan must not pass as a workload.
                let retransmits = retransmitted(r);
                if self.workload.lossy != (retransmits > 0) {
                    wrong.push(format!(
                        "{retransmits} data-plane retransmissions on a {} workload",
                        if self.workload.lossy {
                            "lossy"
                        } else {
                            "fault-free"
                        }
                    ));
                }
                wrong
            }
        };
        tr.end(verify, wrong.len() as u64);
        if self.tally.record(&wrong) {
            return result.ok().map(|r| (ms, r));
        }
        if self.tally.failed <= 3 {
            eprintln!(
                "FAILED {driver:?} job of {}: {}",
                self.workload.name,
                wrong.join("; ")
            );
        }
        None
    }

    fn sanity(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("SANITY {}: {what}", self.workload.name);
            self.defects.push(what);
        }
    }
}

/// Data-plane envelopes the relay retransmitted during a job.
fn retransmitted(r: &EngineResult) -> u64 {
    r.flow.edges.iter().map(|e| e.retrans_msgs()).sum()
}

/// Median and the highest percentile with at least ten samples beyond it
/// (the maximum when there are under twenty samples).
fn put_job_times(out: &mut Report, median: &'static str, hi: &'static str, samples: &[f64]) {
    out.put_timing(median, samples, "ms");
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    let (_, value) = stats::tail(samples).unwrap_or((100.0, max));
    out.put(hi, value, "ms", samples.len());
}

/// Counters both passes read off the last job of each driver. The
/// simulator's are exact: they repeat bit for bit on the same seed.
fn put_counters(
    b: &mut Bench,
    out: &mut Report,
    threads: &EngineResult,
    sim: &EngineResult,
    tiny: bool,
) {
    // Rates divide this job's own counts by its own (unscaled) wall time.
    let threads_ms = out.value("threads_job_ms") / b.time_scale;
    let sim_ms = out.value("sim_job_ms") / b.time_scale;
    let path_len = sim.path.len() as f64;
    let elements = sim.flow.elements_in_total() as f64;

    out.put_exact(
        "thread_driver.step_us",
        threads_ms * 1e3 / threads.decisions.max(1) as f64,
        "us",
    );
    out.put_exact(
        "thread_driver.melems_s",
        threads.flow.elements_in_total() as f64 / threads_ms / 1e3,
        "Melem/s",
    );
    out.put_exact(
        "sim.run_mmsgs_s",
        sim.sim.messages as f64 / sim_ms / 1e3,
        "Mmsg/s",
    );
    out.put_exact("sim.virtual_ms", sim.millis(), "virtual_ms");
    out.put_exact("sim.messages", sim.sim.messages as f64, "count");
    out.put_exact("path.len", path_len, "count");
    out.put_exact("template.hit_rate", sim.template_hit_rate(), "ratio");
    out.put_exact(
        "template.invalidations",
        sim.template_invalidations as f64,
        "count",
    );
    out.put_exact("flow.elements", elements, "count");
    out.put_exact("flow.data_messages", sim.data_messages as f64, "count");
    out.put_exact("flow.bytes_on_wire", sim.flow.bytes_on_wire() as f64, "B");
    out.put_exact("flow.bytes_total", sim.flow.bytes_total() as f64, "B");
    let skew = sim
        .flow
        .edges
        .iter()
        .map(|e| e.recv_skew())
        .fold(0.0, f64::max);
    out.put_exact("flow.recv_skew_max", skew, "ratio");
    out.put_exact(
        "mem.peak_resident_bytes",
        sim.mem.peak_resident() as f64,
        "B",
    );
    out.put_exact(
        "mem.leak_free",
        f64::from(u8::from(sim.mem.leak_free())),
        "bool",
    );
    out.put_exact("host.hoist_hits", threads.hoist_hits as f64, "count");
    let emitted: u64 = threads.op_stats.iter().map(|s| s.emitted).sum();
    out.put_exact("host.emitted_elems", emitted as f64, "count");

    if tiny {
        return;
    }
    // The "most / little" split between the workloads must be real.
    let per_step = elements / path_len;
    let hit_rate = sim.template_hit_rate();
    match b.workload.plane {
        Plane::Data => {
            b.sanity(per_step >= 1000.0, || {
                format!("{per_step:.0} elements per path block, want >= 1000")
            });
            b.sanity(path_len <= 500.0, || {
                format!("path length {path_len}, want <= 500")
            });
        }
        Plane::Control => {
            b.sanity(per_step <= 50.0, || {
                format!("{per_step:.0} elements per path block, want <= 50")
            });
            b.sanity(path_len >= 5000.0, || {
                format!("path length {path_len}, want >= 5000")
            });
        }
    }
    match b.workload.name {
        "step_control" => b.sanity(hit_rate >= 0.9, || {
            format!("template hit rate {hit_rate:.3}, want >= 0.9")
        }),
        "branch_nested" => b.sanity(hit_rate <= 0.8, || {
            format!("template hit rate {hit_rate:.3}, want <= 0.8")
        }),
        _ => {}
    }
}

/// Times `reps` set-ups of the workload's program, in seconds.
fn time_set_ups(b: &Bench, reps: usize, into: &mut Vec<f64>) {
    for _ in 0..reps {
        let start = Instant::now();
        let plan = set_up(
            std::hint::black_box(&b.inputs.program),
            &b.config,
            &mut Tracer::new(false),
        );
        into.push(start.elapsed().as_secs_f64());
        assert!(
            std::hint::black_box(plan).is_ok(),
            "set-up succeeded once already"
        );
    }
}

/// `--trace 0`: thread-driver and simulator jobs back to back (closed
/// loop, one client) until `seconds` are spent, set-ups timed between them.
/// `None` when a driver completed no job, so there is nothing to report.
fn end_to_end_pass(b: &mut Bench, args: &Args, out: &mut Report) -> Option<()> {
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::new();
    for _ in 0..2 {
        b.job(Driver::Threads, ObsLevel::Off, &mut off);
        b.job(Driver::Sim, ObsLevel::Off, &mut off);
    }
    // Set-ups are spread over the whole pass, a batch before each job: 200 in
    // a row take 20 ms, which one slow moment on a shared box covers
    // entirely.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut threads_ms, mut sim_ms) = (Vec::new(), Vec::new());
    let (mut last_threads, mut last_sim) = (None, None);
    let mut cycles = 0;
    while cycles < 3 || Instant::now() < deadline {
        cycles += 1;
        for driver in CYCLE {
            time_set_ups(b, SETUPS_PER_JOB, &mut setup_s);
            let Some((ms, r)) = b.job(driver, ObsLevel::Off, &mut off) else {
                continue;
            };
            match driver {
                Driver::Threads => {
                    threads_ms.push(ms);
                    last_threads = Some(r);
                }
                Driver::Sim => {
                    sim_ms.push(ms);
                    last_sim = Some(r);
                }
            }
        }
    }
    let short = MIN_SETUPS.saturating_sub(setup_s.len());
    time_set_ups(b, short, &mut setup_s);
    out.put_timing("setup_s", &setup_s, "s");
    let (last_threads, last_sim) = (last_threads?, last_sim?);
    put_job_times(
        out,
        "threads_job_ms",
        "thread_driver.job_hi_ms",
        &threads_ms,
    );
    put_job_times(out, "sim_job_ms", "sim.job_hi_ms", &sim_ms);
    out.put_exact("bench.samples_threads", threads_ms.len() as f64, "count");
    out.put_exact("bench.samples_sim", sim_ms.len() as f64, "count");
    put_counters(b, out, &last_threads, &last_sim, args.tiny);
    Some(())
}

/// `--trace 1`: half of `seconds` on traced jobs, half on layer replays.
fn traced_pass(
    b: &mut Bench,
    args: &Args,
    plan: &Plan,
    tr: &mut Tracer,
    out: &mut Report,
) -> Option<()> {
    let src = &b.inputs.program;
    let budget = Duration::from_secs_f64(args.seconds / 2.0);

    // The set-up stages, one at a time.
    let reps = MIN_SETUPS;
    let stage = |f: &mut dyn FnMut()| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    let program = mitos::lang::parse(src).ok()?;
    let unfused = LogicalGraph::build(&plan.func).ok()?;
    out.put_median(
        "lang.parse_us",
        &stage(&mut || drop(std::hint::black_box(mitos::lang::parse(src)))),
        "us",
    );
    out.put_median(
        "ir.compile_us",
        &stage(&mut || drop(std::hint::black_box(mitos::ir::compile(&program)))),
        "us",
    );
    out.put_exact("ir.blocks", plan.func.blocks.len() as f64, "count");
    out.put_median(
        "graph.build_us",
        &stage(&mut || drop(std::hint::black_box(LogicalGraph::build(&plan.func)))),
        "us",
    );
    out.put_exact("graph.nodes", unfused.nodes.len() as f64, "count");
    out.put_exact("graph.edges", unfused.edges.len() as f64, "count");
    out.put_median(
        "fuse.plan_us",
        &stage(&mut || drop(std::hint::black_box(planned_graph(&plan.func, &b.config)))),
        "us",
    );
    out.put_exact(
        "fuse.chains",
        layers::fused_chains(&plan.graph) as f64,
        "count",
    );
    out.put_median(
        "path.rules_build_us",
        &stage(&mut || drop(std::hint::black_box(PathRules::build(&plan.graph)))),
        "us",
    );

    // Jobs: per round one thread-driver job with the engine's tracing off,
    // one at `ObsLevel::Trace` (the difference is the tracing overhead;
    // its phase histograms feed `host.*`), and one simulator job.
    let mut off = Tracer::new(false);
    b.job(Driver::Threads, ObsLevel::Off, &mut off);
    b.job(Driver::Sim, ObsLevel::Off, &mut off);
    let deadline = Instant::now() + budget;
    let (mut plain_ms, mut traced_ms, mut sim_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut last_traced, mut last_sim) = (None, None);
    let mut rounds = 0;
    while rounds < 2 || Instant::now() < deadline {
        rounds += 1;
        for (driver, obs) in [
            (Driver::Threads, ObsLevel::Off),
            (Driver::Threads, ObsLevel::Trace),
            (Driver::Sim, ObsLevel::Off),
        ] {
            let root = tr.begin("job");
            set_up(src, &b.config, tr).ok()?;
            tr.span("graph.build", || {
                let g = LogicalGraph::build(&plan.func);
                let nodes = g.as_ref().map_or(0, |g| g.nodes.len());
                (drop(g), nodes as u64)
            });
            let job = b.job(driver, obs, tr);
            tr.end(root, 1);
            let Some((ms, r)) = job else { continue };
            match (driver, obs) {
                (Driver::Sim, _) => {
                    sim_ms.push(ms);
                    last_sim = Some(r);
                }
                (Driver::Threads, ObsLevel::Off) => plain_ms.push(ms),
                (Driver::Threads, _) => {
                    traced_ms.push(ms);
                    last_traced = Some(r);
                }
            }
        }
    }
    let (traced, sim) = (last_traced?, last_sim?);
    let traced_median = stats::median(&traced_ms)?;
    if plain_ms.is_empty() {
        return None;
    }
    put_job_times(out, "threads_job_ms", "thread_driver.job_hi_ms", &plain_ms);
    put_job_times(out, "sim_job_ms", "sim.job_hi_ms", &sim_ms);
    out.put_exact("bench.samples_threads", plain_ms.len() as f64, "count");
    out.put_exact("bench.samples_sim", sim_ms.len() as f64, "count");
    out.put(
        "trace.overhead_pct",
        (traced_median / out.value("threads_job_ms") - 1.0) * 100.0,
        "%",
        traced_ms.len(),
    );
    put_counters(b, out, &traced, &sim, args.tiny);

    // Where the traced thread-driver job's time went, by host phase.
    let obs = traced.obs.as_ref()?;
    let phases = PhaseHistograms::from_trees(&build_step_trees(obs));
    // Beside each, its share of the traced job's worker time: wall-clock,
    // so printed with the sanity assertions rather than asserted. Phases of
    // pipelined bags overlap, so a share can exceed 1.
    let worker_ms = traced_median * f64::from(THREAD_MACHINES);
    for (metric, h) in [
        ("host.execute_ms", &phases.execute),
        ("host.assembly_ms", &phases.assembly),
        ("host.send_resolve_ms", &phases.send_resolve),
        ("host.broadcast_ms", &phases.broadcast),
    ] {
        let ms = h.sum_ns as f64 / 1e6;
        out.put(metric, ms, "ms", h.count as usize);
        println!(
            "{metric}: summed phase time / (job time x {THREAD_MACHINES} workers) = {:.3}",
            ms / worker_ms
        );
    }
    out.put_exact("relay.retransmits", obs.metrics.retransmits as f64, "count");
    out.put_exact(
        "relay.dups_dropped",
        obs.metrics.dup_msgs_dropped as f64,
        "count",
    );

    let artifacts = Artifacts {
        func: &plan.func,
        graph: &plan.graph,
        rules: &plan.rules,
        path: &sim.path,
        plan: &b.workload.kernel_plan(b.inputs),
        sim_machines: b.workload.sim_machines,
        min_bag: if args.tiny { 1 } else { 1024 },
    };
    layers::replay(&artifacts, budget, tr, out);
    Some(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mitos-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut tr = Tracer::new(args.trace);
    let mut out = Report::default();

    let start = Instant::now();
    let inputs = w.inputs(args.seed, args.tiny);
    out.put_exact("bench.inputs_gen_s", start.elapsed().as_secs_f64(), "s");
    let config = w.config(args.seed);
    let plan = match set_up(&inputs.program, &config, &mut Tracer::new(false)) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("mitos-benchmark: {}: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };

    // The oracle. Its seed-1 digest is committed, so it cannot drift.
    let mut defects = Vec::new();
    let expected = match Expected::compute(&plan.func, &inputs) {
        Ok(expected) => {
            out.put_exact("interp.job_ms", expected.elapsed.as_secs_f64() * 1e3, "ms");
            let committed = oracle::committed_digest(w.name);
            if args.seed == 1 && !args.tiny && committed != Some(expected.digest()) {
                defects.push(format!(
                    "reference digest {:016x} differs from the committed {committed:016x?}",
                    expected.digest()
                ));
                None
            } else {
                Some(expected)
            }
        }
        Err(e) => {
            defects.push(format!("the reference interpreter failed: {e}"));
            None
        }
    };
    for d in &defects {
        eprintln!("ORACLE {}: {d}", w.name);
    }

    let mut bench = Bench {
        workload: w,
        inputs: &inputs,
        func: &plan.func,
        config,
        expected: expected.as_ref(),
        time_scale: expected.as_ref().map_or(1.0, |e| w.time_scale(&e.outputs)),
        tally: Tally::default(),
        defects,
    };
    let measured = if args.trace {
        traced_pass(&mut bench, &args, &plan, &mut tr, &mut out)
    } else {
        end_to_end_pass(&mut bench, &args, &mut out)
    };
    let Bench { tally, defects, .. } = bench;
    if args.trace {
        out.put_exact("trace.spans", tr.len() as f64, "count");
    }

    for (name, spans, total_ns, self_ns) in tr.summary() {
        println!(
            "span {name:<28} n={spans:<6} total={:>10.3} ms  self={:>10.3} ms",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    print!("{}", out.text());
    let fail_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{:<34} {fail_ratio:>16.6} ratio    failed={} attempted={}",
        "fail_ratio", tally.failed, tally.attempted
    );
    if measured.is_none() {
        eprintln!(
            "mitos-benchmark: {}: a driver completed no job; the metrics are incomplete",
            w.name
        );
    }
    let correct = measured.is_some() && tally.failed == 0 && defects.is_empty();
    let head = format!(
        "\"correct\":{correct},\"attempted\":{},\"failed\":{}",
        tally.attempted, tally.failed
    );
    if let Some(dir) = &args.out_dir {
        let pass = if args.trace { "layers" } else { "e2e" };
        let detail = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"tiny\":{},\"nproc\":{},{head},\"metrics\":{}}}\n",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.tiny,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            out.json(|_| true, true),
        );
        let mut written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(dir.join(format!("{}.{pass}.json", w.name)), detail));
        if args.trace && written.is_ok() {
            written = std::fs::write(
                dir.join(format!("{}.trace.json", w.name)),
                tr.chrome_json(w.name),
            );
        }
        if let Err(e) = written {
            eprintln!("mitos-benchmark: cannot write to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let is_end_to_end = |name: &str| END_TO_END.contains(&name);
    let metrics = if args.trace {
        out.json(|name| !is_end_to_end(name), false)
    } else {
        out.json(is_end_to_end, false)
    };
    // The result object is printed whatever happened, so that a caller can
    // tell wrong answers (counted here) from a crash (no object at all).
    println!("{{{head},\"metrics\":{metrics}}}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
