//! Live-telemetry and stall-watchdog tests: deterministic simulator
//! snapshots that charge zero virtual time, always-on hub counters at
//! `ObsLevel::Off`, an adversarial thread-driver stall (a control-flow
//! manager that withholds its condition `Decision` broadcasts), and
//! per-worker event-timestamp monotonicity over `Net::now_ns`.

use mitos_core::graph::LogicalGraph;
use mitos_core::obs::watchdog::{Awaited, OpStall};
use mitos_core::obs::{ObsLevel, TelemetryHub};
use mitos_core::path::PathRules;
use mitos_core::rt::{EngineConfig, EngineShared, FaultPlan, Msg, Net};
use mitos_core::{run_sim_live, run_threads, run_threads_live, EngineResult, Worker};
use mitos_fs::InMemoryFs;
use mitos_lang::Value;
use mitos_sim::SimConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A loop whose body shuffles (`reduceByKey`): every map instance feeds
/// every reduce instance, so a wedged machine leaves the others' hosts
/// visibly awaiting input punctuations.
const LOOP_SRC: &str = r#"
    total = 0;
    i = 1;
    while (i <= 3) {
        counts = readFile("log").map(x => (x % 4, 1)).reduceByKey((a, b) => a + b);
        total = total + counts.count();
        i = i + 1;
    }
    output(total, "t");
"#;

fn loop_fs() -> InMemoryFs {
    let fs = InMemoryFs::new();
    fs.put(
        "log".to_string(),
        (0..40).map(Value::I64).collect::<Vec<_>>(),
    );
    fs
}

fn run_sampled_sim(interval_ns: u64) -> (EngineResult, Vec<mitos_core::Snapshot>) {
    let func = mitos_ir::compile_str(LOOP_SRC).unwrap();
    let fs = loop_fs();
    let mut streamed = Vec::new();
    let cfg = EngineConfig::new().with_sample_interval_ns(interval_ns);
    let r = run_sim_live(&func, &fs, cfg, SimConfig::with_machines(3), &mut |s| {
        streamed.push(s.clone())
    })
    .unwrap();
    (r, streamed)
}

#[test]
fn sim_snapshots_are_deterministic_and_cost_zero_virtual_time() {
    let (base, none) = run_sampled_sim(0);
    assert!(base.snapshots.is_empty() && none.is_empty());

    // ~7 snapshots regardless of the cost model's absolute makespan.
    let interval = (base.sim.end_time / 7).max(1);
    let (r1, s1) = run_sampled_sim(interval);
    let (r2, s2) = run_sampled_sim(interval);

    assert!(
        !r1.snapshots.is_empty(),
        "job spans several sample intervals"
    );
    assert_eq!(r1.snapshots, r2.snapshots, "same program, same snapshots");
    assert_eq!(s1, r1.snapshots, "callback stream == collected snapshots");
    assert_eq!(s2, r2.snapshots);

    // Sampling is free: bit-identical simulator statistics and outputs.
    assert_eq!(r1.sim, base.sim, "sampling must charge zero virtual time");
    assert_eq!(r1.outputs, base.outputs);
    assert_eq!(r1.path, base.path);

    // Snapshots land at exact virtual-time multiples of the interval.
    for (k, s) in r1.snapshots.iter().enumerate() {
        assert_eq!(s.t_ns, (k as u64 + 1) * interval);
        assert_eq!(s.workers.len(), 3);
    }
    // Every counter is monotone between consecutive snapshots.
    for pair in r1.snapshots.windows(2) {
        assert!(pair[1].total_elements_out() >= pair[0].total_elements_out());
        for (a, b) in pair[0].workers.iter().zip(&pair[1].workers) {
            assert!(b.last_progress_ns >= a.last_progress_ns);
            assert!(b.msgs_handled >= a.msgs_handled);
            assert!(b.path_depth >= a.path_depth);
            assert!(b.elements_out >= a.elements_out);
        }
    }
    let last = r1.snapshots.last().unwrap();
    assert!(last.total_elements_out() > 0);
    assert!(last.max_path_depth() > 0);
}

#[test]
fn hub_counts_at_obs_off_without_recording_events() {
    let (base, _) = run_sampled_sim(0);
    assert!(base.obs.is_none(), "ObsLevel::Off records nothing");

    let (r, _) = run_sampled_sim((base.sim.end_time / 5).max(1));
    assert!(
        r.obs.is_none(),
        "sampling must not switch event recording on"
    );
    assert!(!r.snapshots.is_empty());
    assert!(
        r.snapshots.last().unwrap().total_elements_out() > 0,
        "the hub counts even at ObsLevel::Off"
    );
    assert_eq!(r.sim, base.sim, "the always-on hub adds no virtual cost");
    assert_eq!(r.outputs, base.outputs);
}

#[test]
fn withheld_decision_broadcast_trips_watchdog() {
    let func = mitos_ir::compile_str(LOOP_SRC).unwrap();
    let fs = loop_fs();
    let deadline = 150_000_000; // 150ms wall clock
    let cfg = EngineConfig::new()
        .with_stall_deadline_ns(deadline)
        .with_faults(FaultPlan::new().with_withhold_decisions(true));
    // The stall report's operator ids refer to the graph the engine
    // actually ran, i.e. the post-fusion plan.
    let graph = mitos_core::planned_graph(&func, &cfg).unwrap();
    let started = Instant::now();
    let err = run_threads(&func, &fs, cfg, 2).expect_err("withheld decisions must stall the run");
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(150),
        "the watchdog waits out the deadline, fired after {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(30),
        "the watchdog fires promptly once the deadline passes, took {elapsed:?}"
    );
    assert!(err.message.contains("stall watchdog"), "{}", err.message);

    let report = *err.stall.expect("structured StallReport attached");
    assert_eq!(report.deadline_ns, deadline);
    assert!(report.idle_ns > deadline);
    assert_eq!(report.workers.len(), 2);

    // The parked worker names the condition whose broadcast was withheld.
    let conditions: Vec<String> = graph
        .nodes
        .iter()
        .filter(|n| n.condition.is_some())
        .map(|n| n.name.to_string())
        .collect();
    assert!(!conditions.is_empty());
    let parked: Vec<_> = report
        .workers
        .iter()
        .filter(|w| w.awaiting_decision.is_some())
        .collect();
    assert!(
        !parked.is_empty(),
        "a worker must be parked on a decision:\n{}",
        report.render()
    );
    for w in &parked {
        assert!(!w.exited);
        let (pos, cond) = w.awaiting_decision.as_ref().unwrap();
        assert_eq!(
            *pos, w.path_depth,
            "the missing decision is for the position right after the \
             worker's current path depth"
        );
        assert!(
            conditions.contains(cond),
            "reported condition `{cond}` must be a condition node of the \
             graph ({conditions:?})"
        );
    }

    // Somewhere a host awaits an input bag the parked worker will never
    // complete; the report names the operator and the awaited input.
    let awaiting_input: Vec<&OpStall> = report
        .workers
        .iter()
        .flat_map(|w| w.ops.iter())
        .filter(|o| matches!(o.awaited, Some(Awaited::InputBag { .. })))
        .collect();
    assert!(
        !awaiting_input.is_empty(),
        "a host must be awaiting input:\n{}",
        report.render()
    );
    for o in &awaiting_input {
        assert_eq!(
            o.name.as_str(),
            &*graph.nodes[o.op as usize].name,
            "the report names the blocked operator"
        );
        let Some(Awaited::InputBag {
            input,
            edge,
            received,
            announced,
            done_senders,
            expected_senders,
            ..
        }) = &o.awaited
        else {
            unreachable!()
        };
        let e = &graph.edges[*edge as usize];
        assert_eq!(e.dst, o.op, "the awaited edge feeds the blocked operator");
        assert_eq!(e.dst_input, *input as usize, "...at the named input");
        assert!(
            done_senders < expected_senders || received < announced,
            "the awaited input is genuinely incomplete"
        );
    }

    // The rendered text mentions both stall causes.
    let text = report.render();
    assert!(
        text.contains("awaiting decision for path position"),
        "{text}"
    );
    assert!(text.contains("awaiting input"), "{text}");
}

/// The migrated path on the simulator: a withheld decision broadcast is
/// diagnosed as quiescence-without-exit, and the stall report names the
/// injected fault.
#[test]
fn withheld_decisions_on_sim_name_the_fault_in_the_stall_report() {
    let func = mitos_ir::compile_str(LOOP_SRC).unwrap();
    let fs = loop_fs();
    let cfg = EngineConfig::new().with_faults(FaultPlan::new().with_withhold_decisions(true));
    let err = mitos_core::run_sim(&func, &fs, cfg, SimConfig::with_machines(3))
        .expect_err("withheld decisions must stall the simulated run");
    assert!(err.message.contains("quiesced"), "{}", err.message);
    let report = *err.stall.expect("structured StallReport attached");
    let fault = report.fault.as_deref().expect("stall names the fault");
    assert!(
        fault.contains("decision broadcasts withheld"),
        "fault note: {fault}"
    );
    assert!(
        report.render().contains("injected faults:"),
        "{}",
        report.render()
    );
}

#[test]
fn thread_driver_snapshots_progress_monotonically() {
    let func = mitos_ir::compile_str(LOOP_SRC).unwrap();
    let fs = loop_fs();
    // interval = 1ns: the monitor samples on every 200µs wake-up, and it
    // always samples at least once before detecting quiescence.
    let cfg = EngineConfig::new().with_sample_interval_ns(1);
    let mut streamed = 0usize;
    let r = run_threads_live(&func, &fs, cfg, 3, &mut |_| streamed += 1).unwrap();
    assert!(!r.snapshots.is_empty(), "monitor samples before quiescing");
    assert_eq!(streamed, r.snapshots.len());
    for pair in r.snapshots.windows(2) {
        assert!(pair[1].t_ns > pair[0].t_ns, "wall-clock sample times grow");
        for (a, b) in pair[0].workers.iter().zip(&pair[1].workers) {
            // Single writer per counter + per-atomic coherence: the
            // sampler can never observe a worker's progress moving
            // backwards, even with relaxed ordering.
            assert!(b.last_progress_ns >= a.last_progress_ns);
            assert!(b.msgs_handled >= a.msgs_handled);
            assert!(b.elements_out >= a.elements_out);
        }
    }
    // 40 elements keyed by x % 4 -> 4 keys; count() = 4; 3 iterations.
    assert_eq!(r.outputs["t"], vec![Value::I64(12)]);
}

/// A manual bus (as in `adversarial.rs`) whose clock is the real monotonic
/// wall clock, mimicking the thread driver's `Net::now_ns`.
struct ClockNet<'a> {
    outbox: Vec<(u16, Msg)>,
    epoch: &'a Instant,
}

impl Net for ClockNet<'_> {
    fn send(&mut self, machine: u16, msg: Msg, _bytes: u64) {
        self.outbox.push((machine, msg));
    }
    fn charge(&mut self, _ns: u64) {}
    fn schedule(&mut self, _delay_ns: u64, machine: u16, msg: Msg) {
        self.outbox.push((machine, msg));
    }
    fn now_ns(&mut self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[test]
fn per_worker_event_timestamps_are_monotone_over_net_now_ns() {
    let func = mitos_ir::compile_str(LOOP_SRC).unwrap();
    let graph = LogicalGraph::build(&func).unwrap();
    let rules = PathRules::build(&graph);
    let machines: u16 = 3;
    let telemetry = TelemetryHub::new(machines, graph.nodes.len());
    let flow = mitos_core::FlowRegistry::new(machines, graph.edges.len());
    let mem = mitos_core::MemRegistry::new(machines, graph.nodes.len());
    let fs = loop_fs();
    let shared = Arc::new(EngineShared {
        graph,
        rules,
        config: EngineConfig::new().with_obs(ObsLevel::Trace),
        fs: fs.clone(),
        machines,
        telemetry,
        flight: mitos_core::FlightRecorder::new(machines),
        flow,
        mem,
    });
    let mut workers: Vec<Worker> = (0..machines)
        .map(|m| Worker::new(shared.clone(), m))
        .collect();
    let epoch = Instant::now();
    let mut inflight: Vec<(u16, Msg)> = (0..machines).map(|m| (m, Msg::Start)).collect();
    let mut steps = 0u64;
    while let Some((machine, msg)) = inflight.pop() {
        steps += 1;
        assert!(steps < 2_000_000, "runaway message loop");
        let mut net = ClockNet {
            outbox: Vec::new(),
            epoch: &epoch,
        };
        workers[machine as usize].handle(msg, &mut net);
        assert!(workers[machine as usize].error.is_none());
        inflight.extend(net.outbox);
    }
    assert!(workers.iter().all(|w| w.path().exited() && w.idle()));
    for (m, w) in workers.iter_mut().enumerate() {
        let buf = w.take_obs();
        let events = buf.events();
        assert!(!events.is_empty(), "worker {m} records events at Trace");
        assert!(events.iter().all(|e| e.machine == m as u16));
        // The per-worker stream (pre-merge, in recording order): the
        // `Net::now_ns` timestamps must never step backwards.
        for pair in events.windows(2) {
            assert!(
                pair[1].t_ns >= pair[0].t_ns,
                "worker {m}: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
        // The hub's last-progress timestamp was fed from the same clock.
        assert!(shared.telemetry.worker_progress_ns(m as u16) > 0);
    }
}
