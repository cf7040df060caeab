//! Observability-layer integration tests: driver equivalence of the event
//! stream, exact reconciliation of metrics against engine results, Chrome
//! trace well-formedness, and the zero-overhead guarantee of the disabled
//! tracer.

use mitos_core::obs::{chrome_trace, validate_json, EventKind, ObsLevel, ObsReport};
use mitos_core::rt::EngineConfig;
use mitos_core::{run_sim, run_threads, EngineResult};
use mitos_fs::InMemoryFs;
use mitos_lang::Value;
use mitos_sim::SimConfig;
use std::collections::{BTreeMap, BTreeSet};

const PROGRAM: &str = r#"
    total = 0;
    i = 0;
    while (i < 4) {
        base = bag((1, i), (2, i * 2));
        j = 0;
        while (j < 2) {
            probe = bag((1, j));
            hits = (base join probe).count();
            if ((i + j) % 2 == 0) { total = total + hits; }
            j = j + 1;
        }
        i = i + 1;
    }
    output(total, "t");
"#;

fn run_sim_at(level: ObsLevel, machines: u16) -> EngineResult {
    let func = mitos_ir::compile_str(PROGRAM).unwrap();
    let fs = InMemoryFs::new();
    run_sim(
        &func,
        &fs,
        EngineConfig::new().with_obs(level),
        SimConfig::with_machines(machines),
    )
    .unwrap()
}

fn run_threads_at(level: ObsLevel, machines: u16) -> EngineResult {
    let func = mitos_ir::compile_str(PROGRAM).unwrap();
    let fs = InMemoryFs::new();
    run_threads(&func, &fs, EngineConfig::new().with_obs(level), machines).unwrap()
}

/// Canonicalizes an event stream for cross-driver comparison: timestamps
/// are dropped, timing-dependent fields (`buffered`, `latency_ns`,
/// `delay_ns`) are zeroed, and chunk-sized events (`Emitted`, `SinkWrote`)
/// are folded into totals — arrival interleaving under real threads may
/// split one logical emission into several chunks, and resolve
/// conditional sends in a different order, but the multiset of logical
/// events per (machine, operator) must be identical to the simulator's.
fn normalize(report: &ObsReport) -> BTreeMap<(u16, u32), Vec<String>> {
    let mut folded: BTreeMap<(u16, u32, String), u64> = BTreeMap::new();
    let mut by_host: BTreeMap<(u16, u32), Vec<String>> = BTreeMap::new();
    for e in &report.events {
        let key = (e.machine, e.op);
        match &e.kind {
            EventKind::Emitted { bag_len, count } => {
                *folded
                    .entry((e.machine, e.op, format!("emitted len{bag_len}")))
                    .or_default() += count;
            }
            EventKind::SinkWrote { bag_len, count } => {
                *folded
                    .entry((e.machine, e.op, format!("sink_wrote len{bag_len}")))
                    .or_default() += count;
            }
            EventKind::SendResolved {
                edge,
                bag_len,
                sent,
                ..
            } => by_host
                .entry(key)
                .or_default()
                .push(format!("send_resolved e{edge} len{bag_len} sent={sent}")),
            EventKind::IoStarted { .. } => {
                by_host
                    .entry(key)
                    .or_default()
                    .push("io_started".to_string());
            }
            other => by_host.entry(key).or_default().push(format!(
                "{} {:?}",
                other.name(),
                strip_debug(other)
            )),
        }
    }
    for ((machine, op, label), count) in folded {
        by_host
            .entry((machine, op))
            .or_default()
            .push(format!("{label} total={count}"));
    }
    for v in by_host.values_mut() {
        v.sort();
    }
    by_host
}

/// Debug payload with nothing timing-dependent left (those kinds are
/// handled before this is called; the rest are deterministic).
fn strip_debug(kind: &EventKind) -> String {
    format!("{kind:?}")
}

#[test]
fn sim_and_thread_drivers_emit_the_same_logical_events() {
    let sim = run_sim_at(ObsLevel::Trace, 3);
    let sim_norm = normalize(sim.obs.as_ref().expect("sim obs"));
    for round in 0..3 {
        let thr = run_threads_at(ObsLevel::Trace, 3);
        assert_eq!(thr.outputs, sim.outputs, "round {round}");
        let thr_norm = normalize(thr.obs.as_ref().expect("thread obs"));
        assert_eq!(
            thr_norm.keys().collect::<Vec<_>>(),
            sim_norm.keys().collect::<Vec<_>>(),
            "round {round}: same (machine, operator) hosts"
        );
        for (key, sim_events) in &sim_norm {
            assert_eq!(
                &thr_norm[key], sim_events,
                "round {round}: events of machine {} op {}",
                key.0, key.1
            );
        }
    }
}

#[test]
fn metrics_reconcile_with_engine_result() {
    type Runner = fn(ObsLevel, u16) -> EngineResult;
    let drivers: [(&str, Runner); 2] = [("sim", run_sim_at), ("threads", run_threads_at)];
    for (driver, run) in drivers {
        for machines in [1, 3] {
            let r = run(ObsLevel::Metrics, machines);
            let at = format!("{driver} on {machines} machine(s)");
            let obs = r.obs.as_ref().expect("metrics collected");
            assert!(obs.events.is_empty(), "no event storage at Metrics level");

            // Each fact the runtime counts agrees with its event-derived twin.
            let emitted: u64 = r.op_stats.iter().map(|s| s.emitted).sum();
            assert_eq!(
                obs.metrics.total_emitted(),
                emitted,
                "emitted elements, {at}"
            );
            let op_hoists: u64 = r.op_stats.iter().map(|s| s.hoist_hits).sum();
            assert_eq!(op_hoists, r.hoist_hits, "per-op hoist hits, {at}");
            assert_eq!(
                obs.metrics.total_hoist_hits(),
                r.hoist_hits,
                "hoist hits, {at}"
            );
            assert!(r.hoist_hits > 0, "the join build side is hoisted, {at}");
            assert_eq!(
                obs.metrics.decisions_broadcast, r.decisions,
                "decisions, {at}"
            );
            assert_eq!(
                r.data_messages,
                r.flow.messages_in_total(),
                "data messages = flow messages in, {at}"
            );
            // Templates are on by default: one lookup per bag start.
            let opened: u64 = obs.metrics.ops.iter().map(|m| m.bags_opened).sum();
            assert_eq!(
                r.template_hits + r.template_misses,
                opened,
                "template lookups = bags opened, {at}"
            );
            assert!(r.template_hits > 0, "the loop replays templates, {at}");

            let output_elems: u64 = r.outputs.values().map(|v| v.len() as u64).sum();
            assert_eq!(
                obs.metrics.total_sink_written(),
                output_elems,
                "sink writes = output collection sizes, {at}"
            );

            // Every opened bag closes, on every machine.
            for (op, m) in obs.metrics.ops.iter().enumerate() {
                assert_eq!(
                    m.bags_opened, m.bags_finalized,
                    "op {op}: opened == finalized, {at}"
                );
            }
            // Conditional-send decisions partition into sent + dropped.
            let sent: u64 = obs.metrics.edges.iter().map(|e| e.sent_bags).sum();
            let dropped: u64 = obs.metrics.edges.iter().map(|e| e.dropped_bags).sum();
            let per_op_sent: u64 = obs.metrics.ops.iter().map(|m| m.cond_sent).sum();
            let per_op_dropped: u64 = obs.metrics.ops.iter().map(|m| m.cond_dropped).sum();
            assert_eq!(sent, per_op_sent, "edge/op sent agree, {at}");
            assert_eq!(dropped, per_op_dropped, "edge/op dropped agree, {at}");
            assert!(dropped > 0, "the branch must discard some bags, {at}");
        }
    }
}

#[test]
fn trace_level_metrics_equal_metrics_level_metrics() {
    let a = run_sim_at(ObsLevel::Metrics, 3);
    let b = run_sim_at(ObsLevel::Trace, 3);
    let (ma, mb) = (&a.obs.unwrap().metrics, &b.obs.unwrap().metrics);
    assert_eq!(ma.decisions_broadcast, mb.decisions_broadcast);
    assert_eq!(ma.path_appends, mb.path_appends);
    assert_eq!(ma.total_emitted(), mb.total_emitted());
    assert_eq!(ma.total_cond_dropped(), mb.total_cond_dropped());
    assert_eq!(ma.ops.len(), mb.ops.len());
    for (x, y) in ma.ops.iter().zip(mb.ops.iter()) {
        assert_eq!(x.bags_opened, y.bags_opened);
        assert_eq!(x.elements_emitted, y.elements_emitted);
        assert_eq!(x.cond_sent, y.cond_sent);
        assert_eq!(x.cond_dropped, y.cond_dropped);
    }
}

/// Splits the flat `traceEvents` array into record strings. The writer
/// emits one object per record with no nesting deeper than `args`, so a
/// brace counter suffices.
fn split_records(json: &str) -> Vec<String> {
    let start = json.find('[').unwrap() + 1;
    let end = json.rfind(']').unwrap();
    let body = &json[start..end];
    let mut records = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for c in body.chars() {
        match c {
            '{' => {
                depth += 1;
                current.push(c);
            }
            '}' => {
                depth -= 1;
                current.push(c);
                if depth == 0 {
                    records.push(std::mem::take(&mut current));
                }
            }
            ',' if depth == 0 => {}
            _ => current.push(c),
        }
    }
    records
}

fn field<'a>(record: &'a str, name: &str) -> &'a str {
    let pat = format!("\"{name}\":");
    let at = record
        .find(&pat)
        .unwrap_or_else(|| panic!("{name} in {record}"))
        + pat.len();
    let rest = &record[at..];
    let len = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..len].trim_matches('"')
}

#[test]
fn chrome_trace_is_valid_json_with_paired_durations() {
    let r = run_sim_at(ObsLevel::Trace, 3);
    let obs = r.obs.as_ref().unwrap();
    let json = chrome_trace(obs, &r.op_stats);
    validate_json(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}"));

    // Replay the records in array order (the writer sorts by timestamp):
    // every lane's B/E events must balance and never close an unopened
    // duration, and every non-metadata record needs a parseable timestamp.
    let mut depth: BTreeMap<(String, String), i64> = BTreeMap::new();
    let mut b_count = 0u64;
    let mut e_count = 0u64;
    let mut flow_starts: BTreeSet<String> = BTreeSet::new();
    let mut flow_finishes: BTreeSet<String> = BTreeSet::new();
    for rec in split_records(&json) {
        let ph = field(&rec, "ph");
        if ph == "M" {
            continue;
        }
        let ts: f64 = field(&rec, "ts").parse().expect("numeric ts");
        assert!(ts >= 0.0);
        let lane = (
            field(&rec, "pid").to_string(),
            field(&rec, "tid").to_string(),
        );
        match ph {
            "B" => {
                b_count += 1;
                *depth.entry(lane).or_default() += 1;
            }
            "E" => {
                e_count += 1;
                let d = depth.entry(lane.clone()).or_default();
                *d -= 1;
                assert!(*d >= 0, "E without open B on lane {lane:?}");
            }
            "i" => {}
            "s" => {
                flow_starts.insert(field(&rec, "id").to_string());
            }
            "f" => {
                assert_eq!(field(&rec, "bp"), "e", "flow finish binds enclosing slice");
                assert!(
                    flow_starts.contains(field(&rec, "id")),
                    "flow finish after its start"
                );
                flow_finishes.insert(field(&rec, "id").to_string());
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(b_count > 0, "durations present");
    assert_eq!(b_count, e_count, "every B has an E");
    assert!(depth.values().all(|&d| d == 0), "all lanes balance");
    assert!(
        !flow_starts.is_empty(),
        "producer→consumer flow arrows present"
    );
    assert_eq!(flow_starts, flow_finishes, "every flow start has a finish");

    // Lane metadata names machines and operators.
    assert!(json.contains("\"process_name\""));
    assert!(json.contains("\"thread_name\""));
    assert!(json.contains("control-flow"));
}

#[test]
fn recording_is_free_in_virtual_time() {
    // The tracer must never perturb the simulation: recording charges no
    // virtual time and reads the clock only when storing events, so the
    // simulated schedule — end time, message count, outputs — is
    // bit-identical whether observability is off, counting, or tracing.
    // (This is the strongest form of the "disabled tracer adds <2% to
    // step time" guard: the added virtual cost is exactly zero.)
    let off = run_sim_at(ObsLevel::Off, 4);
    let metrics = run_sim_at(ObsLevel::Metrics, 4);
    let trace = run_sim_at(ObsLevel::Trace, 4);
    assert!(off.obs.is_none());
    assert_eq!(off.sim.end_time, metrics.sim.end_time, "Metrics is free");
    assert_eq!(off.sim.end_time, trace.sim.end_time, "Trace is free");
    assert_eq!(off.sim.messages, trace.sim.messages);
    assert_eq!(off.outputs, trace.outputs);
    assert_eq!(off.path, trace.path);
}

#[test]
fn disabled_tracer_wall_overhead_is_negligible() {
    // Wall-clock guard for the Off level: the per-event instrumentation
    // sites reduce to a single branch. Run the same simulation with the
    // seed-equivalent configuration (Off) repeatedly and once interleaved;
    // the median must stay within 2x of the fastest observed step (a loose
    // bound that still catches accidental always-on clock reads or
    // allocation in the record path).
    let time = |level: ObsLevel| {
        let t0 = std::time::Instant::now();
        let r = run_sim_at(level, 4);
        assert!(!r.outputs.is_empty());
        t0.elapsed()
    };
    // Warm up, then sample.
    for _ in 0..2 {
        time(ObsLevel::Off);
    }
    let mut off: Vec<_> = (0..7).map(|_| time(ObsLevel::Off)).collect();
    off.sort();
    let median_off = off[off.len() / 2];
    let mut trace: Vec<_> = (0..7).map(|_| time(ObsLevel::Trace)).collect();
    trace.sort();
    let median_trace = trace[trace.len() / 2];
    // Off must not be slower than full tracing beyond noise — if the
    // "disabled" path did real work, it would show up here.
    assert!(
        median_off <= median_trace * 2,
        "Off ({median_off:?}) should not be slower than Trace ({median_trace:?})"
    );
}

#[test]
fn explain_report_renders_counters_and_fallback() {
    let traced = run_sim_at(ObsLevel::Trace, 3);
    let report = mitos_core::obs::explain_report(&traced);
    assert!(report.contains("operator"), "{report}");
    assert!(report.contains("c.sent"), "{report}");
    assert!(report.contains("input rules"), "{report}");
    assert!(report.contains("decisions broadcast"), "{report}");
    assert!(report.contains("events recorded"), "{report}");
    assert!(
        report.contains("same-block") || report.contains("latest"),
        "{report}"
    );

    let plain = run_sim_at(ObsLevel::Off, 3);
    let fallback = mitos_core::obs::explain_report(&plain);
    assert!(fallback.contains("operator"), "{fallback}");
    assert!(
        fallback.contains("observability enabled"),
        "hints at --explain/--trace: {fallback}"
    );
}

#[test]
fn thread_driver_reports_wall_clock_time() {
    let r = run_threads_at(ObsLevel::Trace, 2);
    assert!(r.sim.end_time > 0, "wall-clock ns duration");
    let obs = r.obs.unwrap();
    assert!(!obs.events.is_empty());
    // Every event timestamp fits inside the measured run window.
    assert!(obs.events.iter().all(|e| e.t_ns <= r.sim.end_time));
}

#[test]
fn outputs_unaffected_by_levels_under_threads() {
    let off = run_threads_at(ObsLevel::Off, 2);
    let trace = run_threads_at(ObsLevel::Trace, 2);
    assert_eq!(off.outputs, trace.outputs);
    assert_eq!(off.outputs["t"], vec![Value::I64(4)]);
}
