//! Live telemetry: always-on, relaxed-atomic progress counters that can be
//! read **while a job runs** — the one thing the post-mortem layer in
//! [`super`] cannot do.
//!
//! A [`TelemetryHub`] is the [`Live`] key family of the
//! [`super::counters`] store and lives in [`crate::rt::EngineShared`], so
//! every worker and host of one job shares it. Each machine bumps its own
//! per-worker and per-`(machine, op)` cells on the hot path — no locks, no
//! read-modify-writes, no clock reads beyond the one the worker already
//! performs per message, no virtual-time charges — cheap enough to stay
//! on at every [`super::ObsLevel`], including `Off`. The run's totals in
//! [`crate::engine::EngineResult`] (emitted elements, hoist hits, template
//! counters, decisions) are read from the same cells at join.
//!
//! The drivers periodically turn the hub into immutable [`Snapshot`]s: the
//! thread driver on a wall-clock interval from its monitor loop, the
//! simulator at exact virtual-time multiples via
//! [`mitos_sim::Sim::run_sampled`] (making snapshot tests deterministic and
//! charging zero virtual time). Snapshots surface as `mitos run --progress`
//! / `--watch` and `Outcome::snapshots()`.
//!
//! **Consistency caveat**: a snapshot reads each counter independently with
//! relaxed loads while workers keep running, so counters within one
//! snapshot are not a single consistent cut — `bags_finished` may briefly
//! exceed what `bags_started` implied a microsecond earlier. That is fine
//! for monitoring (each counter is individually monotone; per-atomic
//! coherence orders its values), and under the single-threaded simulator
//! snapshots *are* exact cuts. See `DESIGN.md` §6.

use crate::obs::counters::{Counters, Key};

/// The shared live-telemetry hub of one job: a [`Counters`] store of the
/// [`Live`] family, built by [`crate::engine::Job::new`]; see the module
/// docs for the design.
pub type TelemetryHub = Counters<Live>;

/// A live counter within machine `m`'s row.
#[derive(Clone, Copy, Debug)]
pub enum Live {
    /// One of machine `m`'s own counters.
    Worker(WorkerCell),
    /// One of operator `op`'s counters, as counted by its instance on
    /// machine `m`.
    Op(u32, OpCell),
}

/// The per-machine live counters.
#[derive(Clone, Copy, Debug)]
pub enum WorkerCell {
    /// The basic block most recently appended to the local path (gauge).
    CurrentBlock,
    /// The local execution path's depth (gauge).
    PathDepth,
    /// Relay envelopes retransmitted.
    Retransmits,
    /// Duplicate deliveries discarded.
    DupsDropped,
    /// Template lookups that replayed.
    TemplateHits,
    /// Template lookups that took the slow path.
    TemplateMisses,
    /// Template replays abandoned mid-bag.
    TemplateInvalidations,
    /// Control-flow decisions broadcast.
    Decisions,
}

/// The per-`(machine, op)` live counters.
#[derive(Clone, Copy, Debug)]
pub enum OpCell {
    /// Output bags opened.
    BagsStarted,
    /// Output bags finalized.
    BagsFinished,
    /// Elements emitted.
    ElementsOut,
    /// Loop-invariant hoisting reuse hits.
    HoistHits,
}

const WORKER_CELLS: usize = WorkerCell::Decisions as usize + 1;
const OP_CELLS: usize = OpCell::HoistHits as usize + 1;

impl Key for Live {
    fn cell(self) -> usize {
        match self {
            Live::Worker(c) => c as usize,
            Live::Op(op, c) => WORKER_CELLS + op as usize * OP_CELLS + c as usize,
        }
    }
}

impl TelemetryHub {
    /// Creates a hub for `machines` workers over `n_ops` logical operators.
    pub fn new(machines: u16, n_ops: usize) -> TelemetryHub {
        Counters::zeroed(machines, WORKER_CELLS + n_ops * OP_CELLS)
    }

    fn ops(&self) -> u32 {
        ((self.width() - WORKER_CELLS) / OP_CELLS) as u32
    }

    /// Adds one to one of `machine`'s own counters.
    #[inline]
    pub fn bump(&self, machine: u16, cell: WorkerCell) {
        self.add(machine, Live::Worker(cell), 1);
    }

    /// Records the control-flow manager's position: the block just appended
    /// and the resulting execution-path depth.
    #[inline]
    pub fn position(&self, machine: u16, block: u32, depth: u32) {
        let block = u64::from(block);
        self.set(machine, Live::Worker(WorkerCell::CurrentBlock), block);
        self.set(machine, Live::Worker(WorkerCell::PathDepth), depth.into());
    }

    /// Reads the hub into a [`Snapshot`] at time `t_ns`, computing deltas
    /// against `prev` (the previous snapshot, if any). The fields kept by
    /// the flow registry, the memory registry and the flight recorder
    /// (`elements_in`, `hot_edge`, `mem`, `last_progress_ns`,
    /// `msgs_handled`) are left for the caller to fill in.
    pub fn report(&self, t_ns: u64, prev: Option<&Snapshot>) -> Snapshot {
        let c = self.snapshot();
        let ops = 0..self.ops();
        let workers: Vec<WorkerSnapshot> = (0..c.machines() as u16)
            .map(|m| {
                let w = |cell| c.get(m, Live::Worker(cell));
                let per_op = |cell| ops.clone().map(|op| c.get(m, Live::Op(op, cell))).sum();
                WorkerSnapshot {
                    machine: m,
                    elements_in: 0,
                    elements_out: per_op(OpCell::ElementsOut),
                    bags_started: per_op(OpCell::BagsStarted),
                    bags_finished: per_op(OpCell::BagsFinished),
                    current_block: w(WorkerCell::CurrentBlock) as u32,
                    path_depth: w(WorkerCell::PathDepth) as u32,
                    last_progress_ns: 0,
                    msgs_handled: 0,
                    retransmits: w(WorkerCell::Retransmits),
                    dups_dropped: w(WorkerCell::DupsDropped),
                }
            })
            .collect();
        let ops: Vec<OpSnapshot> = ops
            .map(|op| OpSnapshot {
                op,
                bags_started: c.total(Live::Op(op, OpCell::BagsStarted)),
                bags_finished: c.total(Live::Op(op, OpCell::BagsFinished)),
                elements_out: c.total(Live::Op(op, OpCell::ElementsOut)),
            })
            .collect();
        let total_out: u64 = workers.iter().map(|w| w.elements_out).sum();
        let (delta_ns, delta_elements_out) = match prev {
            Some(p) => (
                t_ns.saturating_sub(p.t_ns),
                total_out.saturating_sub(p.total_elements_out()),
            ),
            None => (t_ns, total_out),
        };
        let run = |cell| c.total(Live::Worker(cell));
        Snapshot {
            t_ns,
            delta_ns,
            delta_elements_out,
            workers,
            ops,
            hot_edge: None,
            mem: None,
            templates: (
                run(WorkerCell::TemplateHits),
                run(WorkerCell::TemplateMisses),
                run(WorkerCell::TemplateInvalidations),
            ),
        }
    }
}

/// One worker's counters as read at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The machine this worker runs on.
    pub machine: u16,
    /// Elements received by this worker's hosts — filled in by the
    /// drivers from the flow registry
    /// ([`crate::obs::flow::FlowRegistry::elements_in`]).
    pub elements_in: u64,
    /// Elements emitted by this worker's hosts.
    pub elements_out: u64,
    /// Output bags opened on this worker.
    pub bags_started: u64,
    /// Output bags finalized on this worker.
    pub bags_finished: u64,
    /// The basic block most recently appended to the local execution path.
    pub current_block: u32,
    /// The local execution path's depth (blocks appended so far).
    pub path_depth: u32,
    /// Timestamp of the last message this worker handled (virtual ns under
    /// the simulator, wall-clock ns since engine start under threads) —
    /// filled in by the drivers from the flight recorder
    /// ([`crate::obs::recorder::FlightRecorder::last_ns`]).
    pub last_progress_ns: u64,
    /// Messages handled by this worker — filled in by the drivers from the
    /// flight recorder ([`crate::obs::recorder::FlightRecorder::handled`]).
    pub msgs_handled: u64,
    /// Relay envelopes retransmitted by this worker (zero unless fault
    /// injection is active).
    pub retransmits: u64,
    /// Duplicate deliveries discarded by this worker (zero unless fault
    /// injection is active).
    pub dups_dropped: u64,
}

/// One operator's counters as read at snapshot time (summed over
/// instances).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpSnapshot {
    /// The logical operator.
    pub op: u32,
    /// Output bags opened.
    pub bags_started: u64,
    /// Output bags finalized.
    pub bags_finished: u64,
    /// Elements emitted.
    pub elements_out: u64,
}

impl OpSnapshot {
    /// Bags opened but not yet finalized at snapshot time.
    pub fn inflight_bags(&self) -> u64 {
        self.bags_started.saturating_sub(self.bags_finished)
    }
}

/// A periodic, immutable reading of a job's [`TelemetryHub`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// When the snapshot was taken: virtual ns under the simulator (an
    /// exact multiple of the sample interval), wall-clock ns since engine
    /// start under the thread driver.
    pub t_ns: u64,
    /// Time since the previous snapshot (or since start, for the first).
    pub delta_ns: u64,
    /// Elements emitted since the previous snapshot (throughput delta).
    pub delta_elements_out: u64,
    /// Per-worker progress.
    pub workers: Vec<WorkerSnapshot>,
    /// Per-operator totals.
    pub ops: Vec<OpSnapshot>,
    /// The edge that has carried the most bytes so far, as
    /// `(edge, bytes, elements)` — filled in by the drivers from the flow
    /// registry ([`crate::obs::flow::FlowRegistry::hottest`]); [`None`]
    /// before any data-plane traffic.
    pub hot_edge: Option<(u32, u64, u64)>,
    /// Resident state as `(current bytes, peak bytes)` across all machines
    /// — filled in by the drivers from the memory registry
    /// ([`crate::obs::mem::MemRegistry::watch_cell`]); [`None`] before any
    /// residency.
    pub mem: Option<(u64, u64)>,
    /// Template-cache counters so far, as
    /// `(hits, misses, invalidations)` — all zero when templates are
    /// disabled or no bag has started yet.
    pub templates: (u64, u64, u64),
}

impl Snapshot {
    /// Total elements emitted across all workers so far.
    pub fn total_elements_out(&self) -> u64 {
        self.workers.iter().map(|w| w.elements_out).sum()
    }

    /// Total output bags currently in flight (opened, not yet finalized).
    pub fn inflight_bags(&self) -> u64 {
        self.ops.iter().map(OpSnapshot::inflight_bags).sum()
    }

    /// The deepest execution path across workers (the fastest control-flow
    /// manager; stragglers lag behind it).
    pub fn max_path_depth(&self) -> u32 {
        self.workers.iter().map(|w| w.path_depth).max().unwrap_or(0)
    }

    /// Emitted-elements throughput over the last interval, in elements per
    /// (virtual or wall-clock) second.
    pub fn throughput_eps(&self) -> f64 {
        if self.delta_ns == 0 {
            0.0
        } else {
            self.delta_elements_out as f64 * 1e9 / self.delta_ns as f64
        }
    }
}

/// Renders a snapshot as the single `--progress` status line.
pub fn progress_line(s: &Snapshot) -> String {
    let depths: Vec<String> = s.workers.iter().map(|w| w.path_depth.to_string()).collect();
    format!(
        "[progress {:>9}] path {}@{} | bags {}/{} ({} in flight) | elems {} (+{}, {:.0}/s) | workers {}",
        super::fmt_ns(s.t_ns),
        s.max_path_depth(),
        s.workers.first().map_or(0, |w| w.current_block),
        s.ops.iter().map(|o| o.bags_started).sum::<u64>(),
        s.ops.iter().map(|o| o.bags_finished).sum::<u64>(),
        s.inflight_bags(),
        s.total_elements_out(),
        s.delta_elements_out,
        s.throughput_eps(),
        depths.join("/"),
    )
}

/// Renders a snapshot as the live `--watch` per-operator table, reusing
/// the explain renderer's column style ([`super::explain`]): operator name
/// and kind from the logical graph, bag lifecycle counts, in-flight bags,
/// and emitted elements, ordered by emitted elements (largest first) like
/// a metrics-level explain table.
pub fn watch_table(s: &Snapshot, graph: &crate::graph::LogicalGraph) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "live telemetry @ {:>9}  ({} bags in flight, {:.0} elems/s)",
        super::fmt_ns(s.t_ns),
        s.inflight_bags(),
        s.throughput_eps(),
    );
    let _ = writeln!(
        out,
        "{:<24} {:<10} {:>7} {:>7} {:>9} {:>12}",
        "operator", "kind", "opened", "closed", "in-flight", "emitted"
    );
    let mut order: Vec<&OpSnapshot> = s.ops.iter().collect();
    order.sort_by(|a, b| b.elements_out.cmp(&a.elements_out).then(a.op.cmp(&b.op)));
    for o in order {
        let node = &graph.nodes[o.op as usize];
        let _ = writeln!(
            out,
            "{:<24} {:<10} {:>7} {:>7} {:>9} {:>12}",
            node.name,
            node.kind.label(),
            o.bags_started,
            o.bags_finished,
            o.inflight_bags(),
            o.elements_out,
        );
    }
    // The hottest edge only appears once data-plane traffic exists, so
    // quiet tables render exactly as before.
    if let Some((edge, bytes, elems)) = s.hot_edge {
        let _ = writeln!(
            out,
            "hottest edge: {} ({}, {} elems)",
            super::flow::FlowReport::edge_label(graph, edge),
            super::flow::fmt_bytes(bytes),
            elems,
        );
    }
    // Like the hottest edge, the residency line only appears once state
    // has been resident, so quiet tables render exactly as before.
    if let Some((cur, peak)) = s.mem {
        let _ = writeln!(
            out,
            "resident state: {} (peak {})",
            super::flow::fmt_bytes(cur),
            super::flow::fmt_bytes(peak),
        );
    }
    // Template-cache counters only appear once the cache saw traffic, so
    // templates-off tables render exactly as before.
    let (t_hits, t_misses, t_inval) = s.templates;
    if t_hits + t_misses + t_inval > 0 {
        let _ = writeln!(
            out,
            "templates: {t_hits} hit(s), {t_misses} miss(es), {t_inval} invalidation(s)",
        );
    }
    let per_worker: Vec<String> = s
        .workers
        .iter()
        .map(|w| {
            // Recovery-protocol counters only appear under fault
            // injection, keeping the fault-free table unchanged.
            let faults = if w.retransmits > 0 || w.dups_dropped > 0 {
                format!(" rtx {} dup {}", w.retransmits, w.dups_dropped)
            } else {
                String::new()
            };
            format!(
                "m{}: path {}@{} bags {}/{} last {}{}",
                w.machine,
                w.path_depth,
                w.current_block,
                w.bags_started,
                w.bags_finished,
                super::fmt_ns(w.last_progress_ns),
                faults,
            )
        })
        .collect();
    let _ = writeln!(out, "{}", per_worker.join("  |  "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_accumulate_between_snapshots() {
        let hub = TelemetryHub::new(2, 3);
        hub.add(0, Live::Op(1, OpCell::ElementsOut), 10);
        hub.add(0, Live::Op(1, OpCell::BagsStarted), 1);
        let s1 = hub.report(100, None);
        assert_eq!(s1.total_elements_out(), 10);
        assert_eq!(s1.delta_elements_out, 10);
        assert_eq!(s1.inflight_bags(), 1);
        hub.add(1, Live::Op(2, OpCell::ElementsOut), 5);
        hub.add(0, Live::Op(1, OpCell::BagsFinished), 1);
        let s2 = hub.report(300, Some(&s1));
        assert_eq!(s2.delta_ns, 200);
        assert_eq!(s2.delta_elements_out, 5);
        assert_eq!(s2.inflight_bags(), 0);
        assert_eq!(s2.total_elements_out(), 15);
    }

    #[test]
    fn position_feeds_worker_rows() {
        let hub = TelemetryHub::new(2, 1);
        hub.position(1, 7, 3);
        let s = hub.report(50, None);
        assert_eq!(s.workers[1].current_block, 7);
        assert_eq!(s.workers[1].path_depth, 3);
        assert_eq!(s.max_path_depth(), 3);
    }

    #[test]
    fn op_cells_split_by_machine_and_sum_per_op() {
        let hub = TelemetryHub::new(2, 2);
        hub.add(0, Live::Op(1, OpCell::BagsStarted), 1);
        hub.add(1, Live::Op(1, OpCell::BagsStarted), 1);
        hub.add(1, Live::Op(0, OpCell::BagsStarted), 1);
        hub.bump(0, WorkerCell::TemplateHits);
        hub.bump(1, WorkerCell::TemplateMisses);
        hub.bump(1, WorkerCell::TemplateInvalidations);
        let s = hub.report(1, None);
        assert_eq!(s.ops[1].bags_started, 2, "summed over machines");
        assert_eq!(s.workers[1].bags_started, 2, "summed over ops");
        assert_eq!(s.templates, (1, 1, 1));
    }
}
