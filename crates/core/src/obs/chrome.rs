//! Chrome trace-event JSON exporter.
//!
//! Produces the [Trace Event Format] consumed by `chrome://tracing` and
//! Perfetto: one *process* per machine, one *thread lane* per operator
//! (extra lanes appear when loop pipelining overlaps bag computations of
//! the same operator). Each bag's open→finalize life is a paired `B`/`E`
//! duration event; producer→consumer bag dependencies render as `s`/`f`
//! flow arrows between the slices; everything else (input selection,
//! conditional send resolution, punctuations, decision broadcasts, …)
//! renders as instant events on the operator's lane.
//!
//! The writer is dependency-free; operator names go through the shared
//! escaper ([`super::expo::quote`]), and the test-suite proves the output
//! parses with [`super::expo::validate_json`].
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use super::event::{EventKind, OP_NONE};
use super::expo::quote;
use super::ObsReport;
use crate::engine::OpStats;
use std::collections::HashMap;

/// Thread id used for worker-level (control-flow manager) events.
const TID_CONTROL: u64 = u32::MAX as u64;
/// Lane stride per operator: lanes `op*1024 .. op*1024+slots` hold the
/// operator's (possibly pipelined-overlapping) bag computations.
const LANES_PER_OP: u64 = 1024;

/// Microsecond timestamp with nanosecond fraction, as Chrome expects.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn args_json(kind: &EventKind) -> String {
    match kind {
        EventKind::BagOpened { pos, bag_len } => {
            format!("{{\"pos\":{pos},\"bag_len\":{bag_len}}}")
        }
        EventKind::InputSelected {
            edge,
            bag_len,
            rule,
        } => format!(
            "{{\"edge\":{edge},\"bag_len\":{bag_len},\"rule\":\"{}\"}}",
            rule.label()
        ),
        EventKind::HoistHit { pos, bag_len } => {
            format!("{{\"pos\":{pos},\"bag_len\":{bag_len}}}")
        }
        EventKind::Emitted { bag_len, count } => {
            format!("{{\"bag_len\":{bag_len},\"count\":{count}}}")
        }
        EventKind::SendResolved {
            edge,
            bag_len,
            sent,
            buffered,
            latency_ns,
        } => format!(
            "{{\"edge\":{edge},\"bag_len\":{bag_len},\"sent\":{sent},\
             \"buffered\":{buffered},\"latency_ns\":{latency_ns}}}"
        ),
        EventKind::BagFinalized { pos, bag_len } => {
            format!("{{\"pos\":{pos},\"bag_len\":{bag_len}}}")
        }
        EventKind::PunctuationSent {
            edge,
            bag_len,
            count,
        } => format!("{{\"edge\":{edge},\"bag_len\":{bag_len},\"count\":{count}}}"),
        EventKind::SinkWrote { bag_len, count } => {
            format!("{{\"bag_len\":{bag_len},\"count\":{count}}}")
        }
        EventKind::DecisionBroadcast { pos, block } => {
            format!("{{\"pos\":{pos},\"block\":{block}}}")
        }
        EventKind::DecisionReceived { pos, block, parent } => {
            format!("{{\"pos\":{pos},\"block\":{block},\"parent\":{parent}}}")
        }
        EventKind::PathAppended { pos, block } => {
            format!("{{\"pos\":{pos},\"block\":{block}}}")
        }
        EventKind::IoStarted { bag_len, delay_ns } => {
            format!("{{\"bag_len\":{bag_len},\"delay_ns\":{delay_ns}}}")
        }
        EventKind::IoFinished { bag_len, count } => {
            format!("{{\"bag_len\":{bag_len},\"count\":{count}}}")
        }
        EventKind::StepReleased { pos } => format!("{{\"pos\":{pos}}}"),
        EventKind::RetransmitSent {
            peer,
            seq,
            attempt,
            step,
        } => {
            format!("{{\"peer\":{peer},\"seq\":{seq},\"attempt\":{attempt},\"step\":{step}}}")
        }
        EventKind::DuplicateDropped { peer, seq } => {
            format!("{{\"peer\":{peer},\"seq\":{seq}}}")
        }
    }
}

/// One bag's open→finalize interval on a machine.
struct Interval {
    start: u64,
    end: u64,
    bag_len: u32,
    pos: u32,
}

/// Renders the merged event stream as Chrome trace-event JSON
/// (`{"traceEvents": [...]}`). `ops` supplies operator names for the lane
/// metadata; unknown operators fall back to `op<N>`.
pub fn chrome_trace(report: &ObsReport, ops: &[OpStats]) -> String {
    let mut names: HashMap<u32, String> = HashMap::new();
    for s in ops {
        names.insert(s.op, format!("{} [{}]", s.name, s.kind));
    }
    let op_name =
        |op: u32| -> String { names.get(&op).cloned().unwrap_or_else(|| format!("op{op}")) };

    let max_ts = report.events.iter().map(|e| e.t_ns).max().unwrap_or(0);

    // Pair bag open/finalize into intervals per (machine, op). A machine
    // hosts at most one instance per operator, so (machine, op, bag_len)
    // identifies a bag computation.
    let mut open: HashMap<(u16, u32, u32), (u64, u32)> = HashMap::new();
    let mut intervals: HashMap<(u16, u32), Vec<Interval>> = HashMap::new();
    for e in &report.events {
        match e.kind {
            EventKind::BagOpened { pos, bag_len } => {
                open.insert((e.machine, e.op, bag_len), (e.t_ns, pos));
            }
            EventKind::BagFinalized { pos, bag_len } => {
                let (start, _) = open
                    .remove(&(e.machine, e.op, bag_len))
                    .unwrap_or((e.t_ns, pos));
                intervals
                    .entry((e.machine, e.op))
                    .or_default()
                    .push(Interval {
                        start,
                        // A zero-duration interval would tie its own B and E
                        // timestamps, which viewers may reorder; stretch it to
                        // 1 ns so every pair nests under any stable ts sort.
                        end: e.t_ns.max(start + 1),
                        bag_len,
                        pos,
                    });
            }
            _ => {}
        }
    }
    // Bags still open at the end of the run close at the last timestamp.
    for ((machine, op, bag_len), (start, pos)) in open {
        intervals.entry((machine, op)).or_default().push(Interval {
            start,
            end: max_ts.max(start + 1),
            bag_len,
            pos,
        });
    }

    // Greedy lane assignment: overlapping intervals of one operator (loop
    // pipelining) go to separate lanes so B/E events nest properly.
    // records: (t_ns, order, json) — order breaks timestamp ties so, within
    // a lane, a flow start precedes the E it binds to, an E precedes a B
    // sharing its timestamp, and a flow finish lands after the consumer's B.
    let mut records: Vec<(u64, u8, String)> = Vec::new();
    let mut lanes_used: HashMap<(u16, u32), u64> = HashMap::new();
    let mut bag_lane: HashMap<(u16, u32, u32), (u64, u64, u64)> = HashMap::new();
    for ((machine, op), mut ivs) in intervals {
        ivs.sort_by_key(|iv| (iv.start, iv.end));
        let mut lane_free_at: Vec<u64> = Vec::new();
        for iv in ivs {
            let slot = match lane_free_at.iter().position(|&f| f <= iv.start) {
                Some(s) => s,
                None => {
                    lane_free_at.push(0);
                    lane_free_at.len() - 1
                }
            };
            lane_free_at[slot] = iv.end;
            let tid = op as u64 * LANES_PER_OP + slot as u64;
            bag_lane.insert((machine, op, iv.bag_len), (tid, iv.start, iv.end));
            records.push((
                iv.start,
                2,
                format!(
                    "{{\"ph\":\"B\",\"pid\":{machine},\"tid\":{tid},\"ts\":{},\
                     \"name\":{},\"args\":{{\"pos\":{},\"bag_len\":{}}}}}",
                    ts_us(iv.start),
                    quote(&op_name(op)),
                    iv.pos,
                    iv.bag_len
                ),
            ));
            records.push((
                iv.end,
                1,
                format!(
                    "{{\"ph\":\"E\",\"pid\":{machine},\"tid\":{tid},\"ts\":{}}}",
                    ts_us(iv.end)
                ),
            ));
            let used = lanes_used.entry((machine, op)).or_insert(0);
            *used = (*used).max(slot as u64 + 1);
        }
    }

    // Flow events: one arrow per producer→consumer bag dependency,
    // reconstructed the same way the critical-path analyzer does it
    // (each `InputSelected` belongs to the bag its operator opened last
    // on that machine; the producing operator comes from the edge table).
    // The arrow starts inside the producer's slice (at its E, which the
    // `s` order key precedes) and binds to the consumer's enclosing
    // slice at its B (`"bp":"e"`).
    // A bag occurrence on a worker: (machine, operator, bag id length).
    type BagRef = (u16, u32, u32);
    let mut open_now: HashMap<(u16, u32), u32> = HashMap::new();
    let mut selections: Vec<(BagRef, u32, u32)> = Vec::new();
    for e in &report.events {
        match e.kind {
            EventKind::BagOpened { bag_len, .. } => {
                open_now.insert((e.machine, e.op), bag_len);
            }
            EventKind::InputSelected { edge, bag_len, .. } => {
                if let Some(&cur) = open_now.get(&(e.machine, e.op)) {
                    selections.push(((e.machine, e.op, cur), edge, bag_len));
                }
            }
            _ => {}
        }
    }
    let mut producer_machines: Vec<((u32, u32), u16)> = bag_lane
        .keys()
        .map(|&(m, op, len)| ((op, len), m))
        .collect();
    producer_machines.sort_unstable();
    let mut arrows: Vec<(BagRef, BagRef)> = Vec::new();
    for &(consumer, edge, sel_len) in &selections {
        let Some(&(src_op, _)) = report.edges.get(edge as usize) else {
            continue;
        };
        let lo = producer_machines.partition_point(|&(k, _)| k < (src_op, sel_len));
        for &(k, m) in &producer_machines[lo..] {
            if k != (src_op, sel_len) {
                break;
            }
            let producer = (m, src_op, sel_len);
            if producer != consumer {
                arrows.push((producer, consumer));
            }
        }
    }
    arrows.sort_unstable();
    arrows.dedup();
    for (id, (producer, consumer)) in arrows.into_iter().enumerate() {
        let (Some(&(p_tid, p_start, p_end)), Some(&(c_tid, c_start, c_end))) =
            (bag_lane.get(&producer), bag_lane.get(&consumer))
        else {
            continue;
        };
        // Flow timestamps must not decrease and each endpoint must lie
        // inside its slice; under loop pipelining a consumer can open
        // before its (streaming) producer finalizes, so clamp both ends.
        let s_ts = p_end.min(c_start).max(p_start);
        let f_ts = c_start.max(s_ts);
        if f_ts > c_end {
            continue;
        }
        // Order keys keep the endpoints inside their B..E pairs when
        // timestamps tie with a slice boundary on the same lane.
        let s_order = if s_ts == p_end { 0 } else { 3 };
        let f_order = if f_ts == c_end { 0 } else { 3 };
        let common = format!("\"cat\":\"bag-dep\",\"name\":\"bag\",\"id\":{id}");
        records.push((
            s_ts,
            s_order,
            format!(
                "{{\"ph\":\"s\",{common},\"pid\":{},\"tid\":{p_tid},\"ts\":{}}}",
                producer.0,
                ts_us(s_ts)
            ),
        ));
        records.push((
            f_ts,
            f_order,
            format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",{common},\"pid\":{},\"tid\":{c_tid},\
                 \"ts\":{}}}",
                consumer.0,
                ts_us(f_ts)
            ),
        ));
    }

    // Instant events on the operator's first lane (or the control lane).
    let mut machines: Vec<u16> = Vec::new();
    for e in &report.events {
        if !machines.contains(&e.machine) {
            machines.push(e.machine);
        }
        if matches!(
            e.kind,
            EventKind::BagOpened { .. } | EventKind::BagFinalized { .. }
        ) {
            continue;
        }
        let tid = if e.op == OP_NONE {
            TID_CONTROL
        } else {
            lanes_used.entry((e.machine, e.op)).or_insert(1);
            e.op as u64 * LANES_PER_OP
        };
        records.push((
            e.t_ns,
            3,
            format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{tid},\"ts\":{},\
                 \"name\":\"{}\",\"args\":{}}}",
                e.machine,
                ts_us(e.t_ns),
                e.kind.name(),
                args_json(&e.kind)
            ),
        ));
    }
    records.sort_by_key(|r| (r.0, r.1));

    // Metadata first: process names per machine, thread names per lane.
    machines.sort_unstable();
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, rec: &str| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(rec);
    };
    for m in &machines {
        push(
            &mut out,
            &mut first,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{m},\"tid\":0,\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"machine {m}\"}}}}"
            ),
        );
        push(
            &mut out,
            &mut first,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{m},\"tid\":{TID_CONTROL},\
                 \"name\":\"thread_name\",\"args\":{{\"name\":\"control-flow\"}}}}"
            ),
        );
    }
    let mut lanes: Vec<(&(u16, u32), &u64)> = lanes_used.iter().collect();
    lanes.sort();
    for (&(machine, op), &n_lanes) in lanes {
        for slot in 0..n_lanes {
            let tid = op as u64 * LANES_PER_OP + slot;
            let label = if slot == 0 {
                op_name(op)
            } else {
                format!("{} (pipelined +{slot})", op_name(op))
            };
            push(
                &mut out,
                &mut first,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":{machine},\"tid\":{tid},\
                     \"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                    quote(&label)
                ),
            );
        }
    }
    for (_, _, rec) in &records {
        push(&mut out, &mut first, rec);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::super::{merge_bufs, validate_json, ObsBuf, ObsLevel};
    use super::*;

    #[test]
    fn empty_trace_is_valid() {
        let report = merge_bufs(ObsLevel::Trace, [ObsBuf::new(ObsLevel::Trace, 0)]);
        let json = chrome_trace(&report, &[]);
        validate_json(&json).unwrap();
        assert!(json.contains("traceEvents"));
    }
}
