//! Live telemetry: always-on, relaxed-atomic progress counters that can be
//! read **while a job runs** — the one thing the post-mortem layer in
//! [`super`] cannot do.
//!
//! A [`TelemetryHub`] lives in [`crate::rt::EngineShared`], so every worker
//! and host of one job shares it. Hosts bump per-worker and per-operator
//! counters on the hot path with `Ordering::Relaxed` stores — no locks, no
//! clock reads beyond the one the worker already performs per message, no
//! virtual-time charges — cheap enough to stay on at every
//! [`super::ObsLevel`], including `Off`.
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

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// All hub updates and snapshot reads use relaxed ordering: the counters
/// are independent monotone statistics, never used to synchronize memory.
const RELAXED: Ordering = Ordering::Relaxed;

/// Per-worker live counters (one block per machine, updated only by that
/// machine's worker; read concurrently by the sampler).
#[derive(Debug, Default)]
pub struct WorkerTelemetry {
    elements_in: AtomicU64,
    elements_out: AtomicU64,
    bags_started: AtomicU64,
    bags_finished: AtomicU64,
    current_block: AtomicU32,
    path_depth: AtomicU32,
    last_progress_ns: AtomicU64,
    msgs_handled: AtomicU64,
    retransmits: AtomicU64,
    dups_dropped: AtomicU64,
}

/// Per-operator live counters, summed across all instances/machines.
#[derive(Debug, Default)]
pub struct OpTelemetry {
    bags_started: AtomicU64,
    bags_finished: AtomicU64,
    elements_out: AtomicU64,
}

/// The shared live-telemetry hub of one job: per-worker and per-operator
/// relaxed-atomic counters. Created by the drivers alongside
/// [`crate::rt::EngineShared`]; see the module docs for the design.
#[derive(Debug)]
pub struct TelemetryHub {
    workers: Vec<WorkerTelemetry>,
    ops: Vec<OpTelemetry>,
    // Job-wide template-cache counters (all hosts, all machines): lookups
    // that replayed, lookups that recorded, replays abandoned mid-bag.
    template_hits: AtomicU64,
    template_misses: AtomicU64,
    template_invalidations: AtomicU64,
}

impl TelemetryHub {
    /// Creates a hub for `machines` workers over `n_ops` logical operators.
    pub fn new(machines: u16, n_ops: usize) -> TelemetryHub {
        TelemetryHub {
            workers: (0..machines).map(|_| WorkerTelemetry::default()).collect(),
            ops: (0..n_ops).map(|_| OpTelemetry::default()).collect(),
            template_hits: AtomicU64::new(0),
            template_misses: AtomicU64::new(0),
            template_invalidations: AtomicU64::new(0),
        }
    }

    /// Records a template-cache lookup outcome (job-wide; called by hosts
    /// on every bag start while templates are enabled).
    #[inline]
    pub fn template_lookup(&self, hit: bool) {
        if hit {
            self.template_hits.fetch_add(1, RELAXED);
        } else {
            self.template_misses.fetch_add(1, RELAXED);
        }
    }

    /// Records a template replay abandoned mid-bag (send-hint divergence
    /// or hoist disagreement).
    #[inline]
    pub fn template_invalidated(&self) {
        self.template_invalidations.fetch_add(1, RELAXED);
    }

    /// Records a message handled by `machine`'s worker at time `now_ns`
    /// (the last-progress timestamp the stall watchdog watches).
    #[inline]
    pub fn touch(&self, machine: u16, now_ns: u64) {
        let w = &self.workers[machine as usize];
        w.last_progress_ns.store(now_ns, RELAXED);
        w.msgs_handled.fetch_add(1, RELAXED);
    }

    /// Records the control-flow manager's position: the block just appended
    /// and the resulting execution-path depth.
    #[inline]
    pub fn position(&self, machine: u16, block: u32, depth: u32) {
        let w = &self.workers[machine as usize];
        w.current_block.store(block, RELAXED);
        w.path_depth.store(depth, RELAXED);
    }

    /// Records elements received by a host on `machine`.
    #[inline]
    pub fn elements_in(&self, machine: u16, n: u64) {
        self.workers[machine as usize]
            .elements_in
            .fetch_add(n, RELAXED);
    }

    /// Records elements emitted by an instance of `op` on `machine`.
    #[inline]
    pub fn elements_out(&self, machine: u16, op: u32, n: u64) {
        self.workers[machine as usize]
            .elements_out
            .fetch_add(n, RELAXED);
        self.ops[op as usize].elements_out.fetch_add(n, RELAXED);
    }

    /// Records an output bag opened by an instance of `op` on `machine`.
    #[inline]
    pub fn bag_started(&self, machine: u16, op: u32) {
        self.workers[machine as usize]
            .bags_started
            .fetch_add(1, RELAXED);
        self.ops[op as usize].bags_started.fetch_add(1, RELAXED);
    }

    /// Records an output bag finalized by an instance of `op` on `machine`.
    #[inline]
    pub fn bag_finished(&self, machine: u16, op: u32) {
        self.workers[machine as usize]
            .bags_finished
            .fetch_add(1, RELAXED);
        self.ops[op as usize].bags_finished.fetch_add(1, RELAXED);
    }

    /// Records a relay retransmission by `machine`'s worker
    /// (fault-injection runs only).
    #[inline]
    pub fn retransmit(&self, machine: u16) {
        self.workers[machine as usize]
            .retransmits
            .fetch_add(1, RELAXED);
    }

    /// Records a duplicate delivery discarded by `machine`'s worker
    /// (fault-injection runs only).
    #[inline]
    pub fn dup_dropped(&self, machine: u16) {
        self.workers[machine as usize]
            .dups_dropped
            .fetch_add(1, RELAXED);
    }

    /// One worker's last-progress timestamp — the quantity the stall
    /// watchdog compares against its deadline.
    pub fn worker_progress_ns(&self, machine: u16) -> u64 {
        self.workers[machine as usize]
            .last_progress_ns
            .load(RELAXED)
    }

    /// The most recent last-progress timestamp across all workers.
    pub fn latest_progress_ns(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.last_progress_ns.load(RELAXED))
            .max()
            .unwrap_or(0)
    }

    /// Captures an immutable [`Snapshot`] at time `t_ns`, computing deltas
    /// against `prev` (the previous snapshot, if any).
    pub fn snapshot(&self, t_ns: u64, prev: Option<&Snapshot>) -> Snapshot {
        let workers: Vec<WorkerSnapshot> = self
            .workers
            .iter()
            .enumerate()
            .map(|(m, w)| WorkerSnapshot {
                machine: m as u16,
                elements_in: w.elements_in.load(RELAXED),
                elements_out: w.elements_out.load(RELAXED),
                bags_started: w.bags_started.load(RELAXED),
                bags_finished: w.bags_finished.load(RELAXED),
                current_block: w.current_block.load(RELAXED),
                path_depth: w.path_depth.load(RELAXED),
                last_progress_ns: w.last_progress_ns.load(RELAXED),
                msgs_handled: w.msgs_handled.load(RELAXED),
                retransmits: w.retransmits.load(RELAXED),
                dups_dropped: w.dups_dropped.load(RELAXED),
            })
            .collect();
        let ops: Vec<OpSnapshot> = self
            .ops
            .iter()
            .enumerate()
            .map(|(op, o)| OpSnapshot {
                op: op as u32,
                bags_started: o.bags_started.load(RELAXED),
                bags_finished: o.bags_finished.load(RELAXED),
                elements_out: o.elements_out.load(RELAXED),
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
        Snapshot {
            t_ns,
            delta_ns,
            delta_elements_out,
            workers,
            ops,
            hot_edge: None,
            mem: None,
            templates: (
                self.template_hits.load(RELAXED),
                self.template_misses.load(RELAXED),
                self.template_invalidations.load(RELAXED),
            ),
        }
    }
}

/// One worker's counters as read at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The machine this worker runs on.
    pub machine: u16,
    /// Elements received by this worker's hosts.
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
    /// the simulator, wall-clock ns since engine start under threads).
    pub last_progress_ns: u64,
    /// Messages handled by this worker.
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
        hub.elements_out(0, 1, 10);
        hub.bag_started(0, 1);
        let s1 = hub.snapshot(100, None);
        assert_eq!(s1.total_elements_out(), 10);
        assert_eq!(s1.delta_elements_out, 10);
        assert_eq!(s1.inflight_bags(), 1);
        hub.elements_out(1, 2, 5);
        hub.bag_finished(0, 1);
        let s2 = hub.snapshot(300, Some(&s1));
        assert_eq!(s2.delta_ns, 200);
        assert_eq!(s2.delta_elements_out, 5);
        assert_eq!(s2.inflight_bags(), 0);
        assert_eq!(s2.total_elements_out(), 15);
    }

    #[test]
    fn touch_and_position_feed_worker_rows() {
        let hub = TelemetryHub::new(2, 1);
        hub.touch(1, 42);
        hub.position(1, 7, 3);
        hub.elements_in(1, 4);
        let s = hub.snapshot(50, None);
        assert_eq!(s.workers[1].last_progress_ns, 42);
        assert_eq!(s.workers[1].current_block, 7);
        assert_eq!(s.workers[1].path_depth, 3);
        assert_eq!(s.workers[1].elements_in, 4);
        assert_eq!(s.max_path_depth(), 3);
        assert_eq!(hub.latest_progress_ns(), 42);
    }
}
