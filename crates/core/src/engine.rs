//! The Mitos engine entry points: compile a program, build the single
//! cyclic dataflow job, and execute it on the simulated cluster.

use crate::graph::LogicalGraph;
use crate::obs::{self, ObsLevel, ObsReport};
use crate::path::PathRules;
use crate::rt::{EngineConfig, EngineShared, Msg, Net, RuntimeError, NS_PER_MS, OUTPUT_PREFIX};
use crate::worker::Worker;
use mitos_fs::InMemoryFs;
use mitos_ir::nir::FuncIr;
use mitos_ir::BlockId;
use mitos_lang::Value;
use mitos_sim::{ActorId, Sim, SimConfig, SimCtx, SimReport, World};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-operator runtime statistics (an EXPLAIN-style summary).
#[derive(Clone, Debug)]
pub struct OpStats {
    /// Operator id.
    pub op: crate::graph::OpId,
    /// SSA variable name the operator defines.
    pub name: std::sync::Arc<str>,
    /// Operator kind label — the mnemonic, or joined stage mnemonics for a
    /// fused chain (`map+filter+flatMap`).
    pub kind: String,
    /// Physical instances.
    pub instances: u16,
    /// Total elements emitted across instances.
    pub emitted: u64,
    /// Loop-invariant hoisting reuse hits across instances.
    pub hoist_hits: u64,
}

/// The observable outcome of an engine run.
#[derive(Clone, Debug)]
pub struct EngineResult {
    /// `output(value, tag)` collections (canonically sorted).
    pub outputs: BTreeMap<String, Vec<Value>>,
    /// The execution path reconstructed by machine 0's control-flow
    /// manager.
    pub path: Vec<BlockId>,
    /// Simulator statistics; `sim.end_time` is the job's virtual makespan.
    pub sim: SimReport,
    /// Loop-invariant hoisting reuse hits across all operators.
    pub hoist_hits: u64,
    /// Execution-template replay hits across all hosts (bag starts whose
    /// control-plane decisions were replayed from a cached traversal; see
    /// [`crate::template`]). Deterministic on the simulator: bit-identical
    /// across runs and drivers.
    pub template_hits: u64,
    /// Execution-template misses (bag starts that took the slow path).
    pub template_misses: u64,
    /// Execution-template invalidations (replay fallbacks: send-hint
    /// divergence or hoist-verdict mismatch).
    pub template_invalidations: u64,
    /// Control-flow decisions broadcast.
    pub decisions: u64,
    /// Data-plane messages delivered (bag payloads and bag-completion
    /// markers), excluding the control plane — the traffic operator chain
    /// fusion removes.
    pub data_messages: u64,
    /// Per-operator statistics.
    pub op_stats: Vec<OpStats>,
    /// Merged observability report ([`None`] when the run's
    /// [`EngineConfig::obs`] level was [`ObsLevel::Off`]).
    pub obs: Option<ObsReport>,
    /// Periodic live-telemetry snapshots (empty unless the run's
    /// [`EngineConfig::sample_interval_ns`] was non-zero). Under the
    /// simulator these are taken at exact virtual-time multiples of the
    /// interval and charge zero virtual time, so they are deterministic.
    pub snapshots: Vec<crate::obs::live::Snapshot>,
    /// Always-on per-edge data-plane flow accounting (elements, messages,
    /// serialized/wire/retransmitted bytes, relay-window watermarks,
    /// queue-depth and backpressure samples), snapshotted at join.
    pub flow: crate::obs::flow::FlowReport,
    /// Always-on per-machine, per-retention-class memory/state residency
    /// accounting (live bags, elements, approximate bytes, high-water
    /// marks), snapshotted at join.
    pub mem: crate::obs::mem::MemReport,
}

impl EngineResult {
    /// The execution time in milliseconds. `sim.end_time` is nanoseconds —
    /// virtual time under the simulator, monotonic wall-clock under the
    /// threaded driver — converted here via [`NS_PER_MS`], the single
    /// ns→ms conversion point.
    pub fn millis(&self) -> f64 {
        self.sim.end_time as f64 / NS_PER_MS as f64
    }

    /// The fraction of bag starts served by execution-template replay
    /// (`hits / (hits + misses)`), or 0 when templates never looked up
    /// (disabled, or no bag ever started).
    pub fn template_hit_rate(&self) -> f64 {
        let total = self.template_hits + self.template_misses;
        if total == 0 {
            0.0
        } else {
            self.template_hits as f64 / total as f64
        }
    }
}

struct MitosWorld {
    workers: Vec<Worker>,
}

struct SimNet<'a, 'b> {
    ctx: &'a mut SimCtx<'b, Msg>,
}

impl Net for SimNet<'_, '_> {
    fn send(&mut self, machine: u16, msg: Msg, bytes: u64) {
        self.ctx.send(ActorId::new(machine, 0), msg, bytes);
    }
    fn charge(&mut self, ns: u64) {
        self.ctx.charge(ns);
    }
    fn schedule(&mut self, delay_ns: u64, machine: u16, msg: Msg) {
        self.ctx.schedule(delay_ns, ActorId::new(machine, 0), msg);
    }
    fn now_ns(&mut self) -> u64 {
        self.ctx.now()
    }
}

impl World for MitosWorld {
    type Msg = Msg;
    fn handle(&mut self, dest: ActorId, msg: Msg, ctx: &mut SimCtx<Msg>) {
        let mut net = SimNet { ctx };
        self.workers[dest.machine as usize].handle(msg, &mut net);
    }
}

/// Extracts (and removes) `output(..)` collections from the file system.
pub fn extract_outputs(fs: &InMemoryFs) -> BTreeMap<String, Vec<Value>> {
    let mut outputs = BTreeMap::new();
    for name in fs.list() {
        if let Some(tag) = name.strip_prefix(OUTPUT_PREFIX) {
            let mut elems = fs.read(&name).expect("listed file exists");
            elems.sort_unstable();
            outputs.insert(tag.to_string(), elems);
            fs.remove(&name);
        }
    }
    outputs
}

/// Runs a compiled SSA program as a single Mitos dataflow job on the
/// simulated cluster. File effects land in `fs`; `output(..)` collections
/// are extracted into the result.
pub fn run_sim(
    func: &FuncIr,
    fs: &InMemoryFs,
    engine: EngineConfig,
    cluster: SimConfig,
) -> Result<EngineResult, RuntimeError> {
    run_sim_live(func, fs, engine, cluster, &mut |_| {})
}

/// Like [`run_sim`], additionally invoking `on_snapshot` for every live
/// telemetry [`crate::obs::live::Snapshot`] when
/// [`EngineConfig::sample_interval_ns`] is non-zero. Snapshots are taken
/// at exact virtual-time multiples of the interval **between** events and
/// charge zero virtual time, so the simulated result is bit-identical
/// with sampling on or off and snapshot sequences are deterministic. A
/// runtime deadlock (quiescence without program exit, e.g. a lost
/// condition broadcast) is diagnosed via [`crate::obs::watchdog`] and the
/// returned error carries the structured [`crate::obs::watchdog::StallReport`].
pub fn run_sim_live(
    func: &FuncIr,
    fs: &InMemoryFs,
    engine: EngineConfig,
    cluster: SimConfig,
    on_snapshot: &mut dyn FnMut(&crate::obs::live::Snapshot),
) -> Result<EngineResult, RuntimeError> {
    let graph =
        crate::fuse::planned_graph(func, &engine).map_err(|e| RuntimeError::new(e.message))?;
    let rules = PathRules::build(&graph);
    let telemetry = crate::obs::live::TelemetryHub::new(cluster.machines, graph.nodes.len());
    let flow = crate::obs::flow::FlowRegistry::new(cluster.machines, graph.edges.len());
    let mem = crate::obs::mem::MemRegistry::new(cluster.machines, graph.nodes.len());
    let shared = Arc::new(EngineShared {
        graph,
        rules,
        config: engine,
        fs: fs.clone(),
        machines: cluster.machines,
        telemetry,
        flight: crate::obs::recorder::FlightRecorder::new(cluster.machines),
        flow,
        mem,
    });
    let workers = (0..cluster.machines)
        .map(|m| Worker::new(shared.clone(), m))
        .collect();
    let mut sim = Sim::new(cluster, MitosWorld { workers });
    if shared.config.faults.is_active() {
        sim.set_fault_plan(shared.config.faults.clone());
    }
    for m in 0..cluster.machines {
        sim.inject(ActorId::new(m, 0), Msg::Start);
    }
    let interval = shared.config.sample_interval_ns;
    let mut snapshots: Vec<crate::obs::live::Snapshot> = Vec::new();
    let report = if interval > 0 {
        let hub = shared.clone();
        sim.run_sampled(interval, |t, _world, depths| {
            hub.flow.sample_queues(depths, interval);
            hub.mem.sample();
            let mut s = hub.telemetry.snapshot(t, snapshots.last());
            s.hot_edge = hub.flow.hottest();
            s.mem = hub.mem.watch_cell();
            on_snapshot(&s);
            snapshots.push(s);
        })
    } else {
        sim.run()
    };
    let mut world = sim.into_world();
    for w in &world.workers {
        if let Some(e) = &w.error {
            return Err(e.clone());
        }
    }
    // When faults were injected, an unrecoverable stall names them: the
    // plan summary plus what the simulator's fault layer actually did.
    let diagnose_with_faults = |workers: &[Worker]| {
        let mut diag = obs::diagnose(workers, 0, 0);
        diag.flight = shared.flight.dump_lines();
        diag.backpressure = shared.flow.snapshot().backpressure_lines(&shared.graph);
        diag.retained = shared.mem.snapshot().retained_lines();
        if shared.config.faults.is_active() {
            let retransmits = workers.iter().map(Worker::retransmits).sum();
            diag.fault = Some(obs::fault_note(
                &shared.config.faults,
                report.faults_dropped,
                report.faults_duplicated,
                report.faults_reordered,
                retransmits,
            ));
        }
        diag
    };
    let w0 = &world.workers[0];
    if !w0.path().exited() {
        return Err(RuntimeError::stalled(
            "simulation quiesced before the program exited (runtime deadlock)",
            diagnose_with_faults(&world.workers),
        ));
    }
    for (m, w) in world.workers.iter().enumerate() {
        if !w.idle() {
            return Err(RuntimeError::stalled(
                format!("worker {m} still has in-flight bags after quiescence"),
                diagnose_with_faults(&world.workers),
            ));
        }
    }
    let outputs = extract_outputs(fs);
    let op_stats = collect_op_stats(&shared.graph, &world.workers, cluster.machines);
    let path = world.workers[0].path().blocks().to_vec();
    let hoist_hits = world.workers.iter().map(Worker::hoist_hits).sum();
    let template_hits = world.workers.iter().map(Worker::template_hits).sum();
    let template_misses = world.workers.iter().map(Worker::template_misses).sum();
    let template_invalidations = world
        .workers
        .iter()
        .map(Worker::template_invalidations)
        .sum();
    let decisions = world.workers.iter().map(|w| w.decisions_broadcast).sum();
    let data_messages = world.workers.iter().map(|w| w.data_messages).sum();
    let level = shared.config.obs;
    let obs_report = (level != ObsLevel::Off).then(|| {
        let mut report = obs::merge_bufs(level, world.workers.iter_mut().map(Worker::take_obs));
        obs::attach_topology(&mut report, &shared.graph);
        report
    });
    Ok(EngineResult {
        outputs,
        path,
        sim: report,
        hoist_hits,
        template_hits,
        template_misses,
        template_invalidations,
        decisions,
        data_messages,
        op_stats,
        obs: obs_report,
        snapshots,
        flow: shared.flow.snapshot(),
        mem: shared.mem.snapshot(),
    })
}

/// Aggregates per-instance host statistics into per-operator rows.
pub(crate) fn collect_op_stats(
    graph: &LogicalGraph,
    workers: &[Worker],
    machines: u16,
) -> Vec<OpStats> {
    let mut stats: Vec<OpStats> = graph
        .nodes
        .iter()
        .enumerate()
        .map(|(op, node)| OpStats {
            op: op as crate::graph::OpId,
            name: node.name.clone(),
            kind: node.kind.label(),
            instances: graph.instances(op as crate::graph::OpId, machines),
            emitted: 0,
            hoist_hits: 0,
        })
        .collect();
    for w in workers {
        for (op, emitted, hoist) in w.host_stats() {
            stats[op as usize].emitted += emitted;
            stats[op as usize].hoist_hits += hoist;
        }
    }
    stats
}

/// Compiles source text and runs it (convenience wrapper).
pub fn run_source_sim(
    src: &str,
    fs: &InMemoryFs,
    engine: EngineConfig,
    cluster: SimConfig,
) -> Result<EngineResult, RuntimeError> {
    let func = mitos_ir::compile_str(src).map_err(|e| RuntimeError::new(e.message))?;
    run_sim(&func, fs, engine, cluster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitos_ir::{interpret, InterpConfig};

    fn cluster(machines: u16) -> SimConfig {
        SimConfig::with_machines(machines)
    }

    /// Runs a program on the engine and on the reference interpreter and
    /// asserts identical observable results.
    fn check(src: &str, machines: u16, setup: impl Fn(&InMemoryFs)) -> EngineResult {
        // Reference run.
        let ref_fs = InMemoryFs::new();
        setup(&ref_fs);
        let func = mitos_ir::compile_str(src).unwrap();
        let reference = interpret(&func, &ref_fs, InterpConfig::default()).unwrap();

        // Engine run.
        let fs = InMemoryFs::new();
        setup(&fs);
        let result = run_sim(&func, &fs, EngineConfig::default(), cluster(machines)).unwrap();

        assert_eq!(
            result.path, reference.path,
            "distributed path must equal the sequential path"
        );
        assert_eq!(result.outputs, reference.canonical_outputs(), "outputs");
        assert_eq!(fs.snapshot(), ref_fs.snapshot(), "file effects");
        result
    }

    #[test]
    fn straight_line_pipeline() {
        check(
            "b = bag(1, 2, 3).map(x => x * 2).filter(x => x > 2); output(b, \"b\");",
            3,
            |_| {},
        );
    }

    #[test]
    fn scalar_loop() {
        check(
            "s = 0; for i = 1 to 10 { s = s + i; } output(s, \"sum\");",
            2,
            |_| {},
        );
    }

    #[test]
    fn if_inside_loop() {
        check(
            r#"
            evens = 0;
            odds = 0;
            for i = 1 to 7 {
                if (i % 2 == 0) { evens = evens + 1; } else { odds = odds + 1; }
            }
            output(evens, "evens");
            output(odds, "odds");
            "#,
            3,
            |_| {},
        );
    }

    #[test]
    fn visit_count_three_days() {
        let result = check(
            r#"
            yesterday = empty;
            day = 1;
            do {
                visits = readFile("pageVisitLog" + day);
                counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b);
                if (day != 1) {
                    diffs = (counts join yesterday).map(t => abs(t[1] - t[2]));
                    writeFile(diffs.sum(), "diff" + day);
                }
                yesterday = counts;
                day = day + 1;
            } while (day <= 3);
            "#,
            4,
            |fs| {
                fs.put(
                    "pageVisitLog1",
                    vec![1, 1, 2, 3].into_iter().map(Value::I64).collect(),
                );
                fs.put(
                    "pageVisitLog2",
                    vec![1, 2, 2, 3].into_iter().map(Value::I64).collect(),
                );
                fs.put(
                    "pageVisitLog3",
                    vec![2, 3, 3].into_iter().map(Value::I64).collect(),
                );
            },
        );
        assert!(result.sim.end_time > 0);
    }

    #[test]
    fn nested_loops_with_invariant_join() {
        let result = check(
            r#"
            total = 0;
            i = 0;
            while (i < 2) {
                x = bag((1, i), (2, i));
                j = 0;
                while (j < 3) {
                    y = bag((1, j));
                    z = x join y;
                    total = total + z.count();
                    j = j + 1;
                }
                i = i + 1;
            }
            output(total, "joins");
            "#,
            3,
            |_| {},
        );
        // The join build side is invariant across the inner loop: 2 outer
        // iterations x 2 inner reuses each.
        assert!(result.hoist_hits >= 4, "hoist hits: {}", result.hoist_hits);
    }

    #[test]
    fn challenge3_branches_assign_both_sides() {
        check(
            r#"
            i = 0;
            total = 0;
            while (i < 4) {
                if (i % 2 == 0) {
                    x = bag((1, 100));
                    y = bag((1, 200));
                } else {
                    x = bag((1, 300));
                    y = bag((1, 400));
                }
                z = x join y;
                total = total + z.map(t => t[1] + t[2]).sum();
                i = i + 1;
            }
            output(total, "t");
            "#,
            4,
            |_| {},
        );
    }

    #[test]
    fn non_pipelined_mode_is_equivalent() {
        let src = r#"
            yesterday = empty;
            day = 1;
            do {
                visits = readFile("pageVisitLog" + day);
                counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b);
                if (day != 1) {
                    diffs = (counts join yesterday).map(t => abs(t[1] - t[2]));
                    writeFile(diffs.sum(), "diff" + day);
                }
                yesterday = counts;
                day = day + 1;
            } while (day <= 3);
        "#;
        let setup = |fs: &InMemoryFs| {
            fs.put(
                "pageVisitLog1",
                (0..20).map(|i| Value::I64(i % 5)).collect(),
            );
            fs.put(
                "pageVisitLog2",
                (0..20).map(|i| Value::I64(i % 4)).collect(),
            );
            fs.put(
                "pageVisitLog3",
                (0..20).map(|i| Value::I64(i % 3)).collect(),
            );
        };
        let func = mitos_ir::compile_str(src).unwrap();
        let fs1 = InMemoryFs::new();
        setup(&fs1);
        let pipelined = run_sim(&func, &fs1, EngineConfig::default(), cluster(4)).unwrap();
        let fs2 = InMemoryFs::new();
        setup(&fs2);
        let nonpipe = run_sim(
            &func,
            &fs2,
            EngineConfig {
                pipelined: false,
                ..EngineConfig::default()
            },
            cluster(4),
        )
        .unwrap();
        assert_eq!(fs1.snapshot(), fs2.snapshot());
        assert!(
            pipelined.sim.end_time < nonpipe.sim.end_time,
            "pipelining should be faster: {} vs {}",
            pipelined.sim.end_time,
            nonpipe.sim.end_time
        );
    }

    #[test]
    fn hoisting_off_is_equivalent_but_slower_state_rebuilds() {
        let src = r#"
            pageTypes = readFile("pageTypes");
            total = 0;
            day = 1;
            do {
                visits = readFile("pageVisitLog" + day);
                joined = pageTypes join visits.map(v => (v, 1));
                total = total + joined.count();
                day = day + 1;
            } while (day <= 3);
            output(total, "total");
        "#;
        let setup = |fs: &InMemoryFs| {
            fs.put(
                "pageTypes",
                (0..50)
                    .map(|i| Value::tuple([Value::I64(i), Value::str("t")]))
                    .collect(),
            );
            for d in 1..=3 {
                fs.put(
                    format!("pageVisitLog{d}"),
                    (0..30).map(|i| Value::I64((i * d) % 50)).collect(),
                );
            }
        };
        let func = mitos_ir::compile_str(src).unwrap();
        let fs1 = InMemoryFs::new();
        setup(&fs1);
        let hoisted = run_sim(&func, &fs1, EngineConfig::default(), cluster(3)).unwrap();
        let fs2 = InMemoryFs::new();
        setup(&fs2);
        let unhoisted = run_sim(
            &func,
            &fs2,
            EngineConfig {
                hoisting: false,
                ..EngineConfig::default()
            },
            cluster(3),
        )
        .unwrap();
        assert_eq!(hoisted.outputs, unhoisted.outputs);
        assert!(hoisted.hoist_hits >= 2, "{}", hoisted.hoist_hits);
        assert_eq!(unhoisted.hoist_hits, 0);
    }

    #[test]
    fn fusion_off_is_equivalent_and_preserves_hoisting() {
        let src = r#"
            pageTypes = readFile("pageTypes");
            total = 0;
            day = 1;
            do {
                visits = readFile("pageVisitLog" + day);
                joined = pageTypes join visits.map(v => (v, 1));
                total = total + joined.count();
                day = day + 1;
            } while (day <= 3);
            output(total, "total");
        "#;
        let setup = |fs: &InMemoryFs| {
            fs.put(
                "pageTypes",
                (0..50)
                    .map(|i| Value::tuple([Value::I64(i), Value::str("t")]))
                    .collect(),
            );
            for d in 1..=3 {
                fs.put(
                    format!("pageVisitLog{d}"),
                    (0..30).map(|i| Value::I64((i * d) % 50)).collect(),
                );
            }
        };
        let func = mitos_ir::compile_str(src).unwrap();
        let fs1 = InMemoryFs::new();
        setup(&fs1);
        let fused = run_sim(&func, &fs1, EngineConfig::default(), cluster(3)).unwrap();
        let fs2 = InMemoryFs::new();
        setup(&fs2);
        let unfused = run_sim(
            &func,
            &fs2,
            EngineConfig::new().with_fusion(false),
            cluster(3),
        )
        .unwrap();
        assert_eq!(fused.outputs, unfused.outputs);
        assert_eq!(fused.path, unfused.path);
        assert_eq!(fs1.snapshot(), fs2.snapshot());
        // Fusion must not defeat loop-invariant hoisting: the join's build
        // side is the fused `readFile+map` chain's bag, unchanged per
        // iteration.
        assert_eq!(fused.hoist_hits, unfused.hoist_hits);
        assert!(fused.hoist_hits >= 2, "{}", fused.hoist_hits);
        // The chain actually fused, and eliminating its hop saves both
        // messages and simulated time.
        assert!(
            fused.op_stats.iter().any(|s| s.kind.contains('+')),
            "{:?}",
            fused.op_stats
        );
        assert!(fused.op_stats.len() < unfused.op_stats.len());
        assert!(
            fused.sim.messages < unfused.sim.messages,
            "messages: {} vs {}",
            fused.sim.messages,
            unfused.sim.messages
        );
        assert!(
            fused.sim.end_time < unfused.sim.end_time,
            "time: {} vs {}",
            fused.sim.end_time,
            unfused.sim.end_time
        );
    }

    #[test]
    fn templates_off_is_equivalent_and_slower() {
        // A steady-state loop where the template cache replays almost
        // every bag start. The run must be bit-identical to the slow path
        // in every *result* — outputs, path, message counts, decisions,
        // file-system effects, causal span-tree shapes — while finishing
        // in strictly less virtual time: a template hit charges one flat
        // replay cost where the slow path pays for backward scans over
        // the ever-growing execution path.
        let src = r#"
            s = 0;
            d = bag(1, 2, 3);
            for i = 1 to 200 {
                d = d.map(x => x + 1);
                s = s + d.sum();
            }
            output(s, "s");
        "#;
        let func = mitos_ir::compile_str(src).unwrap();
        let fs1 = InMemoryFs::new();
        let on = run_sim(
            &func,
            &fs1,
            EngineConfig::new().with_obs(crate::obs::ObsLevel::Trace),
            cluster(4),
        )
        .unwrap();
        let fs2 = InMemoryFs::new();
        let off = run_sim(
            &func,
            &fs2,
            EngineConfig::new()
                .with_templates(false)
                .with_obs(crate::obs::ObsLevel::Trace),
            cluster(4),
        )
        .unwrap();
        assert_eq!(on.outputs, off.outputs);
        assert_eq!(on.path, off.path);
        assert!(
            on.sim.end_time < off.sim.end_time,
            "steady-state replay must beat re-deriving every decision: \
             on={} off={}",
            on.sim.end_time,
            off.sim.end_time
        );
        assert_eq!(on.sim.messages, off.sim.messages);
        assert_eq!(on.data_messages, off.data_messages);
        assert_eq!(on.decisions, off.decisions);
        assert_eq!(fs1.snapshot(), fs2.snapshot());
        // Replay emits the same observability spans as the slow path:
        // every step's causal tree is isomorphic (shapes exclude only
        // timestamps, which legitimately differ).
        let on_trees = crate::obs::build_step_trees(on.obs.as_ref().unwrap());
        let off_trees = crate::obs::build_step_trees(off.obs.as_ref().unwrap());
        assert_eq!(on_trees.len(), off_trees.len());
        for (a, b) in on_trees.iter().zip(&off_trees) {
            assert!(a.orphans.is_empty(), "step {} orphans", a.step);
            assert_eq!(a.shape(), b.shape(), "tree shape at step {}", a.step);
        }
        assert!(on.template_hits > 0, "the loop must hit the cache");
        assert!(
            on.template_hit_rate() > 0.9,
            "steady-state hit rate: {}",
            on.template_hit_rate()
        );
        assert_eq!(
            (
                off.template_hits,
                off.template_misses,
                off.template_invalidations
            ),
            (0, 0, 0),
            "disabled cache must count nothing"
        );
    }

    #[test]
    fn template_counters_are_deterministic_across_runs() {
        let src = r#"
            total = 0;
            d = bag(1, 2, 3, 4);
            for i = 1 to 40 {
                if (i % 3 == 0) { d = d.filter(x => x > 1); }
                total = total + d.sum();
            }
            output(total, "t");
        "#;
        let func = mitos_ir::compile_str(src).unwrap();
        let run = || {
            let fs = InMemoryFs::new();
            run_sim(&func, &fs, EngineConfig::default(), cluster(3)).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(
            (a.template_hits, a.template_misses, a.template_invalidations),
            (b.template_hits, b.template_misses, b.template_invalidations),
            "bag starts follow path order, so the counters are bit-identical"
        );
        assert_eq!(
            a.template_hit_rate().to_bits(),
            b.template_hit_rate().to_bits()
        );
        assert!(a.template_hits > 0);
    }

    #[test]
    fn withheld_decisions_disable_templates() {
        // Decision withholding deliberately perturbs the control plane, so
        // the cache is never built (one machine: every decision is local
        // and the run still completes).
        let src = "s = 0; for i = 1 to 10 { s = s + i; } output(s, \"s\");";
        let func = mitos_ir::compile_str(src).unwrap();
        let fs = InMemoryFs::new();
        let cfg = EngineConfig::new()
            .with_faults(crate::rt::FaultPlan::new().with_withhold_decisions(true));
        let r = run_sim(&func, &fs, cfg, cluster(1)).unwrap();
        assert_eq!(
            (r.template_hits, r.template_misses, r.template_invalidations),
            (0, 0, 0),
            "withheld decisions must disable the template cache entirely"
        );
    }

    #[test]
    fn missing_file_is_a_runtime_error() {
        let fs = InMemoryFs::new();
        let err = run_source_sim(
            "b = readFile(\"nope\"); output(b, \"b\");",
            &fs,
            EngineConfig::default(),
            cluster(2),
        )
        .unwrap_err();
        assert!(err.message.contains("nope"), "{err}");
    }

    #[test]
    fn deterministic_across_jitter_seeds() {
        let src = r#"
            total = 0;
            for d = 1 to 4 {
                visits = readFile("log" + d);
                counts = visits.map(x => (x, 1)).reduceByKey((a, b) => a + b);
                total = total + counts.count();
            }
            output(total, "t");
        "#;
        let func = mitos_ir::compile_str(src).unwrap();
        let mut results = Vec::new();
        for seed in [1u64, 7, 42] {
            let fs = InMemoryFs::new();
            for d in 1..=4 {
                fs.put(
                    format!("log{d}"),
                    (0..40).map(|i| Value::I64((i * d) % 11)).collect(),
                );
            }
            let mut cfg = cluster(4);
            cfg.seed = seed;
            cfg.jitter_pct = 40;
            let r = run_sim(&func, &fs, EngineConfig::default(), cfg).unwrap();
            results.push(r.outputs);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn single_machine_works() {
        check("b = bag(1, 2); output(b.sum(), \"s\");", 1, |_| {});
    }
}

#[cfg(test)]
mod guard_tests {
    use super::*;
    use crate::rt::EngineConfig;

    #[test]
    fn non_terminating_loop_is_a_graceful_error() {
        // `i` never changes, so the loop never exits.
        let func =
            mitos_ir::compile_str("i = 0; while (i < 1) { x = 1; } output(i, \"i\");").unwrap();
        let fs = InMemoryFs::new();
        let err = run_sim(
            &func,
            &fs,
            EngineConfig {
                max_path_len: 500,
                ..EngineConfig::default()
            },
            SimConfig::with_machines(2),
        )
        .unwrap_err();
        assert!(err.message.contains("non-terminating"), "{err}");
    }
}

#[cfg(test)]
mod op_stats_tests {
    use super::*;
    use crate::rt::EngineConfig;

    #[test]
    fn op_stats_count_emissions_and_hoists() {
        let src = r#"
            inv = bag((1, 10), (2, 20));
            total = 0;
            for i = 1 to 3 {
                probe = bag((1, i));
                total = total + (inv join probe).count();
            }
            output(total, "t");
        "#;
        let func = mitos_ir::compile_str(src).unwrap();
        let fs = InMemoryFs::new();
        let r = run_sim(
            &func,
            &fs,
            EngineConfig::default(),
            SimConfig::with_machines(2),
        )
        .unwrap();
        let join = r
            .op_stats
            .iter()
            .find(|s| s.kind == "join")
            .expect("join stats");
        // Three iterations, each joining one probe row against the
        // invariant build side: one match each.
        assert_eq!(join.emitted, 3, "{:?}", r.op_stats);
        // 2 physical instances, each reusing the build on iterations 2
        // and 3.
        assert_eq!(join.hoist_hits, 4);
        let bag_lit = r
            .op_stats
            .iter()
            .find(|s| &*s.name == "inv")
            .expect("inv stats");
        assert_eq!(bag_lit.emitted, 2, "inv emitted once (2 rows)");
    }
}
