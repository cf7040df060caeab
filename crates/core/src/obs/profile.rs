//! Per-iteration profiling: attributes the traced bag lifecycle back to
//! **loop-iteration coordinates** and reports where each iteration's time
//! went.
//!
//! Every bag identifier is `(operator, path-prefix length)` (Sec. 5.2.1),
//! so `prefix length − 1` names a position on the execution path, and the
//! program's loop nest ([`crate::path::LoopNest`]) decodes that position
//! into iteration coordinates — e.g. `[2.0]` = third outer iteration,
//! first inner iteration. No extra runtime tagging is needed: the
//! profiler is a pure post-hoc analysis over the event stream, so it
//! inherits the zero-virtual-time guarantee of the recording layer.
//!
//! The profile splits iterations into **warmup** (first pass of the
//! innermost coordinate, where loop-invariant build state is constructed,
//! Sec. 5.3) and **steady state**, aggregates busy time per machine to
//! surface stragglers/skew, and embeds the run's critical path
//! ([`super::critical`]) with per-iteration attribution.

use super::critical::{bag_intervals, critical_path, CriticalPath};
use super::event::EventKind;
use super::expo::object;
use super::{fmt_ns, ObsReport};
use crate::engine::OpStats;
use mitos_ir::BlockId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregates for one loop iteration (or, with empty coordinates, for
/// everything outside all loops).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IterRow {
    /// Iteration coordinates, outermost loop first; empty = outside
    /// loops.
    pub coords: Vec<u32>,
    /// Bag computations attributed to this iteration (across machines).
    pub bags: u64,
    /// Total busy time across machines (sum of bag-computation spans).
    pub busy_ns: u64,
    /// Elements emitted.
    pub emitted: u64,
    /// Control-flow decisions broadcast while resolving this iteration's
    /// path positions.
    pub decisions: u64,
    /// Total open→decision latency of conditional sends whose producing
    /// bag belongs to this iteration.
    pub send_wait_ns: u64,
    /// Earliest bag open in this iteration.
    pub start_ns: u64,
    /// Latest bag finish in this iteration.
    pub end_ns: u64,
    /// Critical-path contribution from bags of this iteration.
    pub critical_ns: u64,
    /// Busy time per machine (straggler/skew analysis).
    pub machine_busy: BTreeMap<u16, u64>,
    /// Busy time per operator.
    pub op_busy: BTreeMap<u32, u64>,
}

impl IterRow {
    /// Wall-clock span of the iteration (first open to last finish).
    pub fn span_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Machine skew: max per-machine busy over mean per-machine busy
    /// (1.0 = perfectly balanced; 0.0 when nothing ran).
    pub fn skew(&self) -> f64 {
        skew_of(&self.machine_busy)
    }

    /// The busiest operator of this iteration, if any ran.
    pub fn hot_op(&self) -> Option<(u32, u64)> {
        self.op_busy
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&op, &ns)| (op, ns))
    }

    /// Renders the coordinates as `[2.0]` (empty → `(outside)`).
    pub fn label(&self) -> String {
        coord_label(&self.coords)
    }
}

/// Whole-run aggregates for one machine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineRow {
    /// Machine id.
    pub machine: u16,
    /// Total busy time (sum of bag-computation spans).
    pub busy_ns: u64,
    /// Bag computations hosted.
    pub bags: u64,
    /// Elements emitted.
    pub emitted: u64,
}

/// Aggregates over a set of iteration rows (warmup or steady state).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Number of iteration rows in the phase.
    pub rows: u64,
    /// Total busy time.
    pub busy_ns: u64,
    /// Elements emitted.
    pub emitted: u64,
    /// Critical-path contribution.
    pub critical_ns: u64,
}

/// The full iteration profile of one traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Per-iteration rows, sorted by coordinates (an empty-coordinate
    /// "outside loops" row sorts first when present).
    pub rows: Vec<IterRow>,
    /// Per-machine totals, sorted by machine id.
    pub machines: Vec<MachineRow>,
    /// Totals over warmup iterations: innermost coordinate 0, where
    /// loop-invariant state is first built (Sec. 5.3).
    pub warmup: PhaseTotals,
    /// Totals over steady-state iterations (innermost coordinate > 0).
    pub steady: PhaseTotals,
    /// The run's critical path through the bag-dependency DAG.
    pub critical: CriticalPath,
    /// Run end time: virtual ns under the simulator, wall-clock ns under
    /// threads.
    pub makespan_ns: u64,
    /// Maximum loop-nesting depth of the program.
    pub max_depth: u32,
}

fn skew_of(per_machine: &BTreeMap<u16, u64>) -> f64 {
    let n = per_machine.len() as f64;
    let total: u64 = per_machine.values().sum();
    let max = per_machine.values().copied().max().unwrap_or(0);
    if total == 0 {
        0.0
    } else {
        max as f64 / (total as f64 / n)
    }
}

fn coord_label(coords: &[u32]) -> String {
    if coords.is_empty() {
        "(outside)".to_string()
    } else {
        let parts: Vec<String> = coords.iter().map(u32::to_string).collect();
        format!("[{}]", parts.join("."))
    }
}

/// Builds the iteration profile for a traced run. `path` is the run's
/// execution path (block occurrences), `makespan_ns` its end time. The
/// report must have been produced at [`super::ObsLevel::Trace`] with
/// topology attached ([`super::attach_topology`]); anything less yields
/// an empty profile.
pub fn build_profile(report: &ObsReport, path: &[BlockId], makespan_ns: u64) -> Profile {
    let coords = report.loops.coords(path);
    let coord_at = |pos: u32| -> Vec<u32> { coords.get(pos as usize).cloned().unwrap_or_default() };
    let critical = critical_path(report, makespan_ns);

    let mut rows: BTreeMap<Vec<u32>, IterRow> = BTreeMap::new();
    let mut machines: BTreeMap<u16, MachineRow> = BTreeMap::new();

    // Bag computations: busy time, span, per-machine and per-operator
    // attribution. `bag_len − 1` is the path position of the occurrence
    // the bag belongs to.
    for (&(machine, op, bag_len), &(start, end)) in &bag_intervals(&report.events) {
        let c = coord_at(bag_len.saturating_sub(1));
        let dur = end - start;
        let row = rows.entry(c).or_default();
        row.bags += 1;
        row.busy_ns += dur;
        if row.bags == 1 {
            row.start_ns = start;
            row.end_ns = end;
        } else {
            row.start_ns = row.start_ns.min(start);
            row.end_ns = row.end_ns.max(end);
        }
        *row.machine_busy.entry(machine).or_default() += dur;
        *row.op_busy.entry(op).or_default() += dur;
        let m = machines.entry(machine).or_insert_with(|| MachineRow {
            machine,
            ..MachineRow::default()
        });
        m.busy_ns += dur;
        m.bags += 1;
    }

    // Element and decision counters, and conditional-send wait.
    for e in &report.events {
        match e.kind {
            EventKind::Emitted { bag_len, count } => {
                rows.entry(coord_at(bag_len.saturating_sub(1)))
                    .or_default()
                    .emitted += count;
                machines
                    .entry(e.machine)
                    .or_insert_with(|| MachineRow {
                        machine: e.machine,
                        ..MachineRow::default()
                    })
                    .emitted += count;
            }
            EventKind::DecisionBroadcast { pos, .. } => {
                rows.entry(coord_at(pos)).or_default().decisions += 1;
            }
            EventKind::SendResolved {
                bag_len,
                latency_ns,
                ..
            } => {
                rows.entry(coord_at(bag_len.saturating_sub(1)))
                    .or_default()
                    .send_wait_ns += latency_ns;
            }
            _ => {}
        }
    }

    // Critical-path attribution per iteration.
    for s in &critical.steps {
        rows.entry(coord_at(s.node.bag_len.saturating_sub(1)))
            .or_default()
            .critical_ns += s.contribution_ns;
    }

    let rows: Vec<IterRow> = rows
        .into_iter()
        .map(|(coords, mut row)| {
            row.coords = coords;
            row
        })
        .collect();

    // Warmup = first pass of the innermost coordinate (the pass that
    // builds hoisted loop-invariant state); rows outside loops belong to
    // neither phase.
    let mut warmup = PhaseTotals::default();
    let mut steady = PhaseTotals::default();
    for row in &rows {
        let Some(&inner) = row.coords.last() else {
            continue;
        };
        let phase = if inner == 0 { &mut warmup } else { &mut steady };
        phase.rows += 1;
        phase.busy_ns += row.busy_ns;
        phase.emitted += row.emitted;
        phase.critical_ns += row.critical_ns;
    }

    Profile {
        rows,
        machines: machines.into_values().collect(),
        warmup,
        steady,
        critical,
        makespan_ns,
        max_depth: report.loops.max_depth(),
    }
}

fn op_name(ops: &[OpStats], op: u32) -> String {
    ops.iter()
        .find(|s| s.op == op)
        .map(|s| format!("{}#{op}", s.name))
        .unwrap_or_else(|| format!("op#{op}"))
}

impl Profile {
    /// Renders the profile as a text report: the per-iteration table,
    /// warmup-vs-steady split, per-machine straggler summary, and the
    /// critical path with its top contributors. `ops` supplies operator
    /// names (pass the run's op stats; unknown ids render as `op#N`).
    pub fn render(&self, ops: &[OpStats]) -> String {
        let mut out = String::new();
        let pct = |part: u64| -> f64 {
            if self.makespan_ns == 0 {
                0.0
            } else {
                100.0 * part as f64 / self.makespan_ns as f64
            }
        };
        let _ = writeln!(
            out,
            "makespan {}  critical path {} ({:.0}%)  loop depth {}",
            fmt_ns(self.makespan_ns),
            fmt_ns(self.critical.length_ns),
            pct(self.critical.length_ns),
            self.max_depth,
        );
        if self.rows.is_empty() {
            let _ = writeln!(
                out,
                "(no traced bag computations — run with tracing enabled)"
            );
            return out;
        }

        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>10} {:>9} {:>5} {:>9} {:>10} {:>10} {:>5}  hot operator",
            "iteration", "bags", "busy", "emitted", "dec", "wait", "span", "critical", "skew",
        );
        for row in &self.rows {
            let hot = row
                .hot_op()
                .map(|(op, ns)| format!("{} {}", op_name(ops, op), fmt_ns(ns)))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:<12} {:>5} {:>10} {:>9} {:>5} {:>9} {:>10} {:>10} {:>5.2}  {}",
                row.label(),
                row.bags,
                fmt_ns(row.busy_ns),
                row.emitted,
                row.decisions,
                fmt_ns(row.send_wait_ns),
                fmt_ns(row.span_ns()),
                fmt_ns(row.critical_ns),
                row.skew(),
                hot,
            );
        }

        let _ = writeln!(out);
        for (name, phase) in [("warmup", &self.warmup), ("steady", &self.steady)] {
            let _ = writeln!(
                out,
                "{name}: {} iterations, busy {}, emitted {}, critical {}",
                phase.rows,
                fmt_ns(phase.busy_ns),
                phase.emitted,
                fmt_ns(phase.critical_ns),
            );
        }

        if !self.machines.is_empty() {
            let total: u64 = self.machines.iter().map(|m| m.busy_ns).sum();
            let mean = total as f64 / self.machines.len() as f64;
            let _ = writeln!(out);
            let _ = writeln!(out, "machines:");
            for m in &self.machines {
                let _ = writeln!(
                    out,
                    "  m{:<4} busy {:>10}  bags {:>5}  emitted {:>9}",
                    m.machine,
                    fmt_ns(m.busy_ns),
                    m.bags,
                    m.emitted,
                );
            }
            if let Some(straggler) = self
                .machines
                .iter()
                .max_by(|a, b| a.busy_ns.cmp(&b.busy_ns).then(b.machine.cmp(&a.machine)))
            {
                if total > 0 {
                    let _ = writeln!(
                        out,
                        "straggler: m{} at {:.2}x mean machine busy time",
                        straggler.machine,
                        straggler.busy_ns as f64 / mean,
                    );
                }
            }
        }

        if !self.critical.steps.is_empty() {
            let _ = writeln!(out);
            let _ = writeln!(out, "critical path (top operators):");
            for &(op, ns) in self.critical.op_contrib.iter().take(5) {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>10} ({:.0}%)",
                    op_name(ops, op),
                    fmt_ns(ns),
                    pct(ns),
                );
            }
            if !self.critical.edge_contrib.is_empty() {
                let _ = writeln!(out, "critical path (top edges):");
                for &(edge, ns) in self.critical.edge_contrib.iter().take(5) {
                    let _ = writeln!(
                        out,
                        "  edge {edge:<21} {:>10} ({:.0}%)",
                        fmt_ns(ns),
                        pct(ns)
                    );
                }
            }
            let _ = writeln!(out, "critical path steps:");
            for s in &self.critical.steps {
                let via = s
                    .via_edge
                    .map(|e| format!(" via edge {e}"))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "  m{} {:<24} bag len {:<5} +{}{}",
                    s.node.machine,
                    op_name(ops, s.node.op),
                    s.node.bag_len,
                    fmt_ns(s.contribution_ns),
                    via,
                );
            }
        }
        out
    }

    /// Serializes the profile as deterministic JSON (machine-readable
    /// counterpart of [`Profile::render`]). `ops` supplies operator names.
    pub fn to_json(&self, ops: &[OpStats]) -> String {
        object(|j| {
            j.field("makespan_ns", self.makespan_ns)
                .field("max_depth", self.max_depth);
            j.key("iterations").arr(|j| {
                for row in &self.rows {
                    j.obj(|j| {
                        j.key("coords").arr(|j| {
                            for c in &row.coords {
                                j.raw(c);
                            }
                        });
                        j.field_str("label", &row.label())
                            .field("bags", row.bags)
                            .field("busy_ns", row.busy_ns)
                            .field("emitted", row.emitted)
                            .field("decisions", row.decisions)
                            .field("send_wait_ns", row.send_wait_ns)
                            .field("start_ns", row.start_ns)
                            .field("end_ns", row.end_ns)
                            .field("critical_ns", row.critical_ns)
                            .field("skew", format_args!("{:.4}", row.skew()));
                        j.key("machines").obj(|j| {
                            for (m, ns) in &row.machine_busy {
                                j.field(&m.to_string(), ns);
                            }
                        });
                        j.key("operators").obj(|j| {
                            for (op, ns) in &row.op_busy {
                                j.field(&op.to_string(), ns);
                            }
                        });
                    });
                }
            });
            for (name, phase) in [("warmup", &self.warmup), ("steady", &self.steady)] {
                j.key(name).obj(|j| {
                    j.field("rows", phase.rows)
                        .field("busy_ns", phase.busy_ns)
                        .field("emitted", phase.emitted)
                        .field("critical_ns", phase.critical_ns);
                });
            }
            j.key("machines").arr(|j| {
                for m in &self.machines {
                    j.obj(|j| {
                        j.field("machine", m.machine)
                            .field("busy_ns", m.busy_ns)
                            .field("bags", m.bags)
                            .field("emitted", m.emitted);
                    });
                }
            });
            j.key("critical").obj(|j| {
                j.field("length_ns", self.critical.length_ns);
                j.key("steps").arr(|j| {
                    for s in &self.critical.steps {
                        j.obj(|j| {
                            j.field("machine", s.node.machine)
                                .field("op", s.node.op)
                                .field_str("name", &op_name(ops, s.node.op))
                                .field("bag_len", s.node.bag_len)
                                .field("start_ns", s.node.start_ns)
                                .field("end_ns", s.node.end_ns)
                                .field("slack_ns", s.node.slack_ns)
                                .field("contribution_ns", s.contribution_ns);
                            match s.via_edge {
                                Some(e) => j.field("via_edge", e),
                                None => j.field("via_edge", "null"),
                            };
                        });
                    }
                });
                for (name, contrib) in [
                    ("op_contrib", &self.critical.op_contrib),
                    ("edge_contrib", &self.critical.edge_contrib),
                ] {
                    j.key(name).arr(|j| {
                        for &(id, ns) in contrib {
                            j.arr(|j| {
                                j.raw(id).raw(ns);
                            });
                        }
                    });
                }
                j.key("nodes").arr(|j| {
                    for n in &self.critical.nodes {
                        j.obj(|j| {
                            j.field("machine", n.machine)
                                .field("op", n.op)
                                .field("bag_len", n.bag_len)
                                .field("start_ns", n.start_ns)
                                .field("end_ns", n.end_ns)
                                .field("slack_ns", n.slack_ns);
                        });
                    }
                });
            });
        })
    }
}
