//! Data-plane flow accounting: per-edge byte/element/message counters,
//! relay inflight-window watermarks and queue-depth/backpressure
//! sampling, always on like the [`crate::obs::live::TelemetryHub`].
//!
//! Every data-plane send ([`crate::rt::Msg::Data`] /
//! [`crate::rt::Msg::BagDone`]) bumps a per-`(edge, source machine)`
//! shard on the way out (in `Host::send_batches` and the punctuation
//! emitter) and a per-`(edge, destination machine)` shard on the way in
//! (in `Worker::ingest`, **after** the relay's duplicate filter — so the
//! receive-side totals reconcile exactly with
//! [`crate::engine::EngineResult::data_messages`], retransmissions and
//! duplicates included). Retransmitted wire bytes are accounted
//! separately by the relay.
//!
//! Design constraints, matching the telemetry hub and flight recorder:
//! - **Zero virtual time**: no counter update touches [`crate::rt::Net`],
//!   so accounting cannot move a simulated result.
//! - **Sharded single writers**: each `(edge, machine)` shard is written
//!   only by that machine's worker thread, so relaxed atomics suffice and
//!   per-shard reads can never observe a counter moving backwards.
//!
//! The drivers sample queue depths into the registry from their existing
//! sampling loops (`Sim::run_sampled` between events at exact virtual-time
//! multiples; the thread driver's monitor on every wake-up): per-machine
//! inbox-occupancy high-watermarks, and per-edge backpressure time — the
//! accumulated sampling interval during which an edge had at least
//! [`BACKPRESSURE_WINDOW`] unacknowledged messages in its relay window.
//! A [`FlowReport`] snapshot is attached to
//! [`crate::engine::EngineResult::flow`], rendered by `mitos flow`, the
//! per-edge `explain` rows, the DOT heat overlay, the Prometheus exporter
//! and the `--watch` hottest-edge line; backpressure attribution lines
//! land in [`crate::obs::watchdog::StallReport::backpressure`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::{EdgeId, LogicalGraph};
use crate::obs::expo::{family, labels, object, Kind};
use crate::obs::fmt_ns;

/// All counter traffic is single-writer-per-shard (or commutative adds),
/// so relaxed ordering is sufficient everywhere.
const RELAXED: Ordering = Ordering::Relaxed;

/// Unacked relay-window size at or above which an edge counts as
/// backpressured for the duration of one sampling interval.
pub const BACKPRESSURE_WINDOW: u64 = 4;

/// Send-side counters for one `(edge, source machine)` shard. Single
/// writer: the source machine's worker thread.
#[derive(Debug, Default)]
struct OutShard {
    msgs: AtomicU64,
    elems: AtomicU64,
    bytes: AtomicU64,
    remote_bytes: AtomicU64,
    retrans_msgs: AtomicU64,
    retrans_bytes: AtomicU64,
    inflight: AtomicU64,
    inflight_hwm: AtomicU64,
}

/// Receive-side counters for one `(edge, destination machine)` shard.
/// Single writer: the destination machine's worker thread, post-dedup.
#[derive(Debug, Default)]
struct InShard {
    msgs: AtomicU64,
    elems: AtomicU64,
}

/// One edge's shards plus its sampler-owned backpressure accumulator.
#[derive(Debug)]
struct EdgeLane {
    out: Vec<OutShard>,
    inn: Vec<InShard>,
    backpressure_ns: AtomicU64,
}

/// The engine-wide flow-accounting registry, shared through
/// [`crate::rt::EngineShared`] next to the telemetry hub.
#[derive(Debug)]
pub struct FlowRegistry {
    lanes: Vec<EdgeLane>,
    inbox_hwm: Vec<AtomicU64>,
}

impl FlowRegistry {
    /// Allocates per-`(edge, machine)` shards for a graph with `edges`
    /// edges on `machines` machines.
    pub fn new(machines: u16, edges: usize) -> FlowRegistry {
        let lanes = (0..edges)
            .map(|_| EdgeLane {
                out: (0..machines).map(|_| OutShard::default()).collect(),
                inn: (0..machines).map(|_| InShard::default()).collect(),
                backpressure_ns: AtomicU64::new(0),
            })
            .collect();
        FlowRegistry {
            lanes,
            inbox_hwm: (0..machines).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one logical data-plane send on `edge` from machine `src`
    /// to machine `dst`: `elems` elements, `bytes` serialized wire bytes
    /// (counted toward the remote total only when the edge actually
    /// crosses machines).
    #[inline]
    pub fn msg_out(&self, edge: EdgeId, src: u16, dst: u16, elems: u64, bytes: u64) {
        let Some(shard) = self
            .lanes
            .get(edge as usize)
            .and_then(|l| l.out.get(src as usize))
        else {
            return;
        };
        shard.msgs.fetch_add(1, RELAXED);
        shard.elems.fetch_add(elems, RELAXED);
        shard.bytes.fetch_add(bytes, RELAXED);
        if src != dst {
            shard.remote_bytes.fetch_add(bytes, RELAXED);
        }
    }

    /// Records one delivered (post-dedup) data-plane message on `edge` at
    /// destination machine `dst` carrying `elems` elements. Called from
    /// `Worker::ingest` on the same messages that bump `data_messages`,
    /// so `sum(messages_in) == data_messages` holds exactly.
    #[inline]
    pub fn msg_in(&self, edge: EdgeId, dst: u16, elems: u64) {
        let Some(shard) = self
            .lanes
            .get(edge as usize)
            .and_then(|l| l.inn.get(dst as usize))
        else {
            return;
        };
        shard.msgs.fetch_add(1, RELAXED);
        shard.elems.fetch_add(elems, RELAXED);
    }

    /// Records one retransmission of `bytes` wire bytes on `edge` from
    /// machine `src` (the relay's `on_tick` resend loop).
    #[inline]
    pub fn retransmit(&self, edge: EdgeId, src: u16, bytes: u64) {
        let Some(shard) = self
            .lanes
            .get(edge as usize)
            .and_then(|l| l.out.get(src as usize))
        else {
            return;
        };
        shard.retrans_msgs.fetch_add(1, RELAXED);
        shard.retrans_bytes.fetch_add(bytes, RELAXED);
    }

    /// Notes one more unacknowledged message in `edge`'s relay window at
    /// sender `src`, updating the high-watermark.
    #[inline]
    pub fn inflight_inc(&self, edge: EdgeId, src: u16) {
        let Some(shard) = self
            .lanes
            .get(edge as usize)
            .and_then(|l| l.out.get(src as usize))
        else {
            return;
        };
        let now = shard.inflight.fetch_add(1, RELAXED) + 1;
        if now > shard.inflight_hwm.load(RELAXED) {
            shard.inflight_hwm.store(now, RELAXED);
        }
    }

    /// Notes one acknowledged (or abandoned) message leaving `edge`'s
    /// relay window at sender `src`.
    #[inline]
    pub fn inflight_dec(&self, edge: EdgeId, src: u16) {
        let Some(shard) = self
            .lanes
            .get(edge as usize)
            .and_then(|l| l.out.get(src as usize))
        else {
            return;
        };
        // Saturating: a dec without a matching inc (never expected) must
        // not wrap the gauge.
        let _ = shard
            .inflight
            .fetch_update(RELAXED, RELAXED, |v| Some(v.saturating_sub(1)));
    }

    /// One queue-depth sample from a driver's sampling loop: `depths` is
    /// the current inbox occupancy per machine, `interval_ns` the time
    /// covered by this sample (virtual on the simulator, wall on the
    /// thread driver's monitor). Updates per-machine inbox high-watermarks
    /// and charges the interval to every edge whose relay window currently
    /// holds at least [`BACKPRESSURE_WINDOW`] unacked messages. Never
    /// touches the [`crate::rt::Net`], so sampling stays free of virtual
    /// time.
    pub fn sample_queues(&self, depths: &[usize], interval_ns: u64) {
        for (hwm, &d) in self.inbox_hwm.iter().zip(depths) {
            if d as u64 > hwm.load(RELAXED) {
                hwm.store(d as u64, RELAXED);
            }
        }
        if interval_ns == 0 {
            return;
        }
        for lane in &self.lanes {
            let window: u64 = lane.out.iter().map(|s| s.inflight.load(RELAXED)).sum();
            if window >= BACKPRESSURE_WINDOW {
                lane.backpressure_ns.fetch_add(interval_ns, RELAXED);
            }
        }
    }

    /// The edge currently carrying the most serialized bytes, as
    /// `(edge, bytes, elements)` — the `--watch` hottest-edge line. `None`
    /// until any data-plane bytes moved. Ties break
    /// toward the lowest edge id, keeping simulator runs deterministic.
    pub fn hottest(&self) -> Option<(EdgeId, u64, u64)> {
        self.lanes
            .iter()
            .enumerate()
            .map(|(e, lane)| {
                let bytes: u64 = lane.out.iter().map(|s| s.bytes.load(RELAXED)).sum();
                let elems: u64 = lane.out.iter().map(|s| s.elems.load(RELAXED)).sum();
                (e as EdgeId, bytes, elems)
            })
            .filter(|&(_, bytes, _)| bytes > 0)
            .max_by_key(|&(e, bytes, _)| (bytes, std::cmp::Reverse(e)))
    }

    /// An immutable snapshot of every counter. Relaxed reads over
    /// single-writer shards: taken after the drivers join (or at a stall),
    /// when the writers have quiesced.
    pub fn snapshot(&self) -> FlowReport {
        let edges = self
            .lanes
            .iter()
            .enumerate()
            .map(|(e, lane)| EdgeFlow {
                edge: e as EdgeId,
                out: lane
                    .out
                    .iter()
                    .map(|s| MachineOut {
                        msgs: s.msgs.load(RELAXED),
                        elems: s.elems.load(RELAXED),
                        bytes: s.bytes.load(RELAXED),
                        remote_bytes: s.remote_bytes.load(RELAXED),
                        retrans_msgs: s.retrans_msgs.load(RELAXED),
                        retrans_bytes: s.retrans_bytes.load(RELAXED),
                        inflight_hwm: s.inflight_hwm.load(RELAXED),
                    })
                    .collect(),
                inn: lane
                    .inn
                    .iter()
                    .map(|s| MachineIn {
                        msgs: s.msgs.load(RELAXED),
                        elems: s.elems.load(RELAXED),
                    })
                    .collect(),
                backpressure_ns: lane.backpressure_ns.load(RELAXED),
            })
            .collect();
        FlowReport {
            edges,
            inbox_hwm: self.inbox_hwm.iter().map(|h| h.load(RELAXED)).collect(),
        }
    }
}

/// Send-side totals of one `(edge, source machine)` shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineOut {
    /// Logical data-plane messages sent (first transmissions only).
    pub msgs: u64,
    /// Elements sent.
    pub elems: u64,
    /// Serialized wire bytes of first transmissions.
    pub bytes: u64,
    /// The subset of `bytes` that crossed machines.
    pub remote_bytes: u64,
    /// Retransmitted messages (relay resends).
    pub retrans_msgs: u64,
    /// Retransmitted wire bytes.
    pub retrans_bytes: u64,
    /// High-watermark of the relay's unacked window on this edge.
    pub inflight_hwm: u64,
}

/// Receive-side totals of one `(edge, destination machine)` shard.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineIn {
    /// Data-plane messages delivered post-dedup.
    pub msgs: u64,
    /// Elements delivered.
    pub elems: u64,
}

/// One edge's complete flow totals, sharded by machine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeFlow {
    /// The logical edge id.
    pub edge: EdgeId,
    /// Send-side shards, indexed by source machine.
    pub out: Vec<MachineOut>,
    /// Receive-side shards, indexed by destination machine.
    pub inn: Vec<MachineIn>,
    /// Accumulated sampling time during which this edge's relay window
    /// held at least [`BACKPRESSURE_WINDOW`] unacked messages.
    pub backpressure_ns: u64,
}

impl EdgeFlow {
    /// Total logical messages sent.
    pub fn msgs_out(&self) -> u64 {
        self.out.iter().map(|s| s.msgs).sum()
    }
    /// Total elements sent.
    pub fn elems_out(&self) -> u64 {
        self.out.iter().map(|s| s.elems).sum()
    }
    /// Total serialized bytes of first transmissions.
    pub fn bytes(&self) -> u64 {
        self.out.iter().map(|s| s.bytes).sum()
    }
    /// Total bytes that crossed machines (first transmissions).
    pub fn remote_bytes(&self) -> u64 {
        self.out.iter().map(|s| s.remote_bytes).sum()
    }
    /// Total retransmitted bytes.
    pub fn retrans_bytes(&self) -> u64 {
        self.out.iter().map(|s| s.retrans_bytes).sum()
    }
    /// Total retransmitted messages.
    pub fn retrans_msgs(&self) -> u64 {
        self.out.iter().map(|s| s.retrans_msgs).sum()
    }
    /// Total messages delivered post-dedup.
    pub fn msgs_in(&self) -> u64 {
        self.inn.iter().map(|s| s.msgs).sum()
    }
    /// Total elements delivered post-dedup.
    pub fn elems_in(&self) -> u64 {
        self.inn.iter().map(|s| s.elems).sum()
    }
    /// The largest relay unacked-window watermark across senders.
    pub fn inflight_hwm(&self) -> u64 {
        self.out.iter().map(|s| s.inflight_hwm).max().unwrap_or(0)
    }
    /// Receiver skew: the max over destination machines of delivered
    /// elements divided by the mean (1.0 = perfectly balanced; counts only
    /// machines that received anything as candidates for the max).
    pub fn recv_skew(&self) -> f64 {
        let total = self.elems_in();
        let n = self.inn.len().max(1) as f64;
        if total == 0 {
            return 1.0;
        }
        let max = self.inn.iter().map(|s| s.elems).max().unwrap_or(0) as f64;
        max / (total as f64 / n)
    }
}

/// An immutable snapshot of the whole registry — the value behind
/// [`crate::engine::EngineResult::flow`] and `Outcome::flow()`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowReport {
    /// Per-edge totals, indexed by edge id.
    pub edges: Vec<EdgeFlow>,
    /// Per-machine inbox-occupancy high-watermarks from queue sampling.
    pub inbox_hwm: Vec<u64>,
}

impl FlowReport {
    /// Total data-plane messages delivered post-dedup, across all edges.
    /// Reconciles exactly with
    /// [`crate::engine::EngineResult::data_messages`].
    pub fn messages_in_total(&self) -> u64 {
        self.edges.iter().map(EdgeFlow::msgs_in).sum()
    }

    /// Total elements delivered post-dedup.
    pub fn elements_in_total(&self) -> u64 {
        self.edges.iter().map(EdgeFlow::elems_in).sum()
    }

    /// Total serialized bytes of first transmissions (local + remote).
    pub fn bytes_total(&self) -> u64 {
        self.edges.iter().map(EdgeFlow::bytes).sum()
    }

    /// Data-plane bytes that actually crossed machines — the figure the
    /// fig6 bench report records as `bytes_on_wire` (first transmissions;
    /// retransmitted bytes are reported separately).
    pub fn bytes_on_wire(&self) -> u64 {
        self.edges.iter().map(EdgeFlow::remote_bytes).sum()
    }

    /// Total retransmitted wire bytes.
    pub fn retrans_bytes_total(&self) -> u64 {
        self.edges.iter().map(EdgeFlow::retrans_bytes).sum()
    }

    /// `src→dst` operator names for an edge.
    pub fn edge_label(graph: &LogicalGraph, edge: EdgeId) -> String {
        let e = &graph.edges[edge as usize];
        format!(
            "{}→{}",
            graph.nodes[e.src as usize].name, graph.nodes[e.dst as usize].name
        )
    }

    /// Observed per-operator selectivity: for every operator with both
    /// delivered input elements and sent output elements, `(op, elems in,
    /// elems out, out/in)`.
    pub fn selectivities(&self, graph: &LogicalGraph) -> Vec<(u32, u64, u64, f64)> {
        let mut per_op: Vec<(u64, u64)> = vec![(0, 0); graph.nodes.len()];
        for ef in &self.edges {
            let e = &graph.edges[ef.edge as usize];
            per_op[e.dst as usize].0 += ef.elems_in();
            per_op[e.src as usize].1 += ef.elems_out();
        }
        per_op
            .into_iter()
            .enumerate()
            .filter(|&(_, (inn, out))| inn > 0 && out > 0)
            .map(|(op, (inn, out))| (op as u32, inn, out, out as f64 / inn as f64))
            .collect()
    }

    /// Edges ordered hottest-first (by bytes, then elements, then id).
    pub fn edges_by_bytes(&self) -> Vec<&EdgeFlow> {
        let mut edges: Vec<&EdgeFlow> = self.edges.iter().filter(|e| e.msgs_out() > 0).collect();
        edges.sort_by_key(|e| {
            (
                std::cmp::Reverse(e.bytes()),
                std::cmp::Reverse(e.elems_out()),
                e.edge,
            )
        });
        edges
    }

    /// Stall-attribution lines for [`crate::obs::watchdog::StallReport`]:
    /// one per edge that was observed backpressured (or whose relay window
    /// watermark reached [`BACKPRESSURE_WINDOW`]), hottest first. Empty on
    /// healthy runs, keeping fault-free reports byte-stable.
    pub fn backpressure_lines(&self, graph: &LogicalGraph) -> Vec<String> {
        let mut flagged: Vec<&EdgeFlow> = self
            .edges
            .iter()
            .filter(|e| e.backpressure_ns > 0 || e.inflight_hwm() >= BACKPRESSURE_WINDOW)
            .collect();
        flagged.sort_by_key(|e| (std::cmp::Reverse(e.backpressure_ns), e.edge));
        flagged
            .iter()
            .map(|e| {
                format!(
                    "edge {} ({}) backpressured {} (inflight hwm {}, {} retransmitted)",
                    e.edge,
                    Self::edge_label(graph, e.edge),
                    fmt_ns(e.backpressure_ns),
                    e.inflight_hwm(),
                    fmt_bytes(e.retrans_bytes()),
                )
            })
            .collect()
    }

    /// The `mitos flow` text report: top edges by bytes/elements, wire
    /// totals, per-machine skew, and observed per-operator selectivity.
    pub fn render(&self, graph: &LogicalGraph) -> String {
        let mut out = String::new();
        out.push_str("top edges by bytes:\n");
        let _ = writeln!(
            out,
            "{:>4}  {:<34} {:>10} {:>10} {:>10} {:>10} {:>6}",
            "edge", "src→dst", "msgs", "elements", "bytes", "on-wire", "skew"
        );
        for ef in self.edges_by_bytes() {
            let _ = writeln!(
                out,
                "{:>4}  {:<34} {:>10} {:>10} {:>10} {:>10} {:>6.2}",
                ef.edge,
                Self::edge_label(graph, ef.edge),
                ef.msgs_out(),
                ef.elems_out(),
                fmt_bytes(ef.bytes()),
                fmt_bytes(ef.remote_bytes()),
                ef.recv_skew(),
            );
        }
        let _ = writeln!(
            out,
            "total: {} data messages, {} elements, {} serialized ({} on wire, {} retransmitted)",
            self.messages_in_total(),
            self.elements_in_total(),
            fmt_bytes(self.bytes_total()),
            fmt_bytes(self.bytes_on_wire()),
            fmt_bytes(self.retrans_bytes_total()),
        );
        out.push_str("\nper-machine:\n");
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>12} {:>10}",
            "machine", "elems in", "elems out", "bytes out", "inbox hwm"
        );
        let machines = self.inbox_hwm.len();
        for m in 0..machines {
            let elems_in: u64 = self
                .edges
                .iter()
                .filter_map(|e| e.inn.get(m))
                .map(|s| s.elems)
                .sum();
            let elems_out: u64 = self
                .edges
                .iter()
                .filter_map(|e| e.out.get(m))
                .map(|s| s.elems)
                .sum();
            let bytes_out: u64 = self
                .edges
                .iter()
                .filter_map(|e| e.out.get(m))
                .map(|s| s.bytes)
                .sum();
            let _ = writeln!(
                out,
                "{:>8} {:>12} {:>12} {:>12} {:>10}",
                format!("m{m}"),
                elems_in,
                elems_out,
                fmt_bytes(bytes_out),
                self.inbox_hwm[m],
            );
        }
        let sel = self.selectivities(graph);
        if !sel.is_empty() {
            out.push_str("\nobserved selectivity (elements out / in):\n");
            for (op, inn, outn, s) in sel {
                let _ = writeln!(
                    out,
                    "{:<28} {:>10} → {:>10}  ({s:.3})",
                    graph.nodes[op as usize].name, inn, outn
                );
            }
        }
        let bp = self.backpressure_lines(graph);
        if !bp.is_empty() {
            out.push_str("\nbackpressure:\n");
            for line in bp {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }

    /// Per-edge rows for the `explain` report: hottest first, only edges
    /// that carried traffic. Empty output when nothing flowed, keeping
    /// existing explain output byte-stable.
    pub fn explain_rows(&self, graph: &LogicalGraph) -> String {
        let edges = self.edges_by_bytes();
        if edges.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str("\nedges (data plane):\n");
        let _ = writeln!(
            out,
            "{:>4}  {:<34} {:>10} {:>10} {:>10}",
            "edge", "src→dst", "msgs", "elements", "bytes"
        );
        for ef in edges {
            let _ = writeln!(
                out,
                "{:>4}  {:<34} {:>10} {:>10} {:>10}",
                ef.edge,
                Self::edge_label(graph, ef.edge),
                ef.msgs_out(),
                ef.elems_out(),
                fmt_bytes(ef.bytes()),
            );
        }
        out
    }

    /// Per-edge Prometheus series in text exposition format, appended to
    /// the phase-latency histograms under `--metrics-out`.
    pub fn prometheus(&self, graph: &LogicalGraph) -> String {
        let series = |ef: &EdgeFlow, dir: Option<&str>| {
            let edge = &graph.edges[ef.edge as usize];
            let src = &graph.nodes[edge.src as usize].name;
            let dst = &graph.nodes[edge.dst as usize].name;
            let mut pairs: Vec<(&str, &dyn std::fmt::Display)> =
                vec![("edge", &ef.edge), ("src", src), ("dst", dst)];
            if let Some(dir) = &dir {
                pairs.push(("dir", dir));
            }
            labels(&pairs)
        };
        let per_edge =
            |f: fn(&EdgeFlow) -> u64| self.edges.iter().map(move |e| (series(e, None), f(e)));
        let in_out = |out: fn(&EdgeFlow) -> u64, inn: fn(&EdgeFlow) -> u64| {
            self.edges.iter().flat_map(move |e| {
                [
                    (series(e, Some("out")), out(e)),
                    (series(e, Some("in")), inn(e)),
                ]
            })
        };
        let mut out = String::new();
        family(
            &mut out,
            "mitos_edge_bytes_total",
            "Serialized data-plane bytes per edge.",
            Kind::Counter,
            per_edge(EdgeFlow::bytes),
        );
        family(
            &mut out,
            "mitos_edge_remote_bytes_total",
            "Data-plane bytes that crossed machines.",
            Kind::Counter,
            per_edge(EdgeFlow::remote_bytes),
        );
        family(
            &mut out,
            "mitos_edge_retransmit_bytes_total",
            "Retransmitted wire bytes per edge.",
            Kind::Counter,
            per_edge(EdgeFlow::retrans_bytes),
        );
        family(
            &mut out,
            "mitos_edge_elements_total",
            "Elements per edge by direction.",
            Kind::Counter,
            in_out(EdgeFlow::elems_out, EdgeFlow::elems_in),
        );
        family(
            &mut out,
            "mitos_edge_messages_total",
            "Logical data-plane messages per edge by direction.",
            Kind::Counter,
            in_out(EdgeFlow::msgs_out, EdgeFlow::msgs_in),
        );
        family(
            &mut out,
            "mitos_edge_inflight_hwm",
            "Relay unacked-window high-watermark per edge.",
            Kind::Gauge,
            per_edge(EdgeFlow::inflight_hwm),
        );
        family(
            &mut out,
            "mitos_edge_backpressure_ns_total",
            "Sampled time an edge spent backpressured.",
            Kind::Counter,
            per_edge(|e| e.backpressure_ns),
        );
        family(
            &mut out,
            "mitos_inbox_depth_hwm",
            "Sampled inbox-occupancy high-watermark per machine.",
            Kind::Gauge,
            self.inbox_hwm
                .iter()
                .enumerate()
                .map(|(m, hwm)| (labels(&[("machine", &m)]), hwm)),
        );
        out
    }

    /// Serializes the report as deterministic JSON — the machine-readable
    /// counterpart of [`FlowReport::render`], embedded in
    /// `mitos explain --json`. Edges are ordered hottest-first; edges that
    /// carried no traffic are omitted.
    pub fn to_json(&self, graph: &LogicalGraph) -> String {
        object(|j| {
            j.field("messages", self.messages_in_total())
                .field("elements", self.elements_in_total())
                .field("bytes", self.bytes_total())
                .field("bytes_on_wire", self.bytes_on_wire())
                .field("retransmitted_bytes", self.retrans_bytes_total());
            j.key("edges").arr(|j| {
                for ef in self.edges_by_bytes() {
                    let e = &graph.edges[ef.edge as usize];
                    j.obj(|j| {
                        j.field("edge", ef.edge)
                            .field("src", e.src)
                            .field("dst", e.dst)
                            .field_str("label", &Self::edge_label(graph, ef.edge))
                            .field("msgs_out", ef.msgs_out())
                            .field("msgs_in", ef.msgs_in())
                            .field("elems_out", ef.elems_out())
                            .field("elems_in", ef.elems_in())
                            .field("bytes", ef.bytes())
                            .field("remote_bytes", ef.remote_bytes())
                            .field("retransmitted_bytes", ef.retrans_bytes())
                            .field("inflight_hwm", ef.inflight_hwm())
                            .field("backpressure_ns", ef.backpressure_ns);
                    });
                }
            });
            j.key("inbox_hwm").arr(|j| {
                for hwm in &self.inbox_hwm {
                    j.raw(hwm);
                }
            });
        })
    }
}

/// Compact byte formatting (`1.2MB` / `34.5KB` / `678B`).
pub fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1}MB", b as f64 / 1e6)
    } else if b >= 10_000 {
        format!("{:.1}KB", b as f64 / 1e3)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph() -> LogicalGraph {
        let func = mitos_ir::compile_str(
            r#"
            b = readFile("f").map(x => (x % 2, 1)).reduceByKey((a, b) => a + b);
            output(b.count(), "n");
            "#,
        )
        .unwrap();
        LogicalGraph::build(&func).unwrap()
    }

    #[test]
    fn counters_accumulate_per_shard() {
        let reg = FlowRegistry::new(2, 3);
        reg.msg_out(1, 0, 1, 10, 100);
        reg.msg_out(1, 0, 0, 5, 50);
        reg.msg_out(1, 1, 0, 2, 20);
        reg.msg_in(1, 1, 10);
        reg.msg_in(1, 0, 7);
        reg.retransmit(1, 0, 124);
        let r = reg.snapshot();
        let e = &r.edges[1];
        assert_eq!(e.msgs_out(), 3);
        assert_eq!(e.elems_out(), 17);
        assert_eq!(e.bytes(), 170);
        assert_eq!(e.remote_bytes(), 120, "the self-send is not on the wire");
        assert_eq!(e.msgs_in(), 2);
        assert_eq!(e.elems_in(), 17);
        assert_eq!(e.retrans_bytes(), 124);
        assert_eq!(e.out[0].msgs, 2);
        assert_eq!(e.out[1].msgs, 1);
        assert_eq!(r.bytes_on_wire(), 120);
        assert_eq!(r.messages_in_total(), 2);
    }

    #[test]
    fn inflight_watermark_tracks_peak() {
        let reg = FlowRegistry::new(2, 2);
        for _ in 0..5 {
            reg.inflight_inc(0, 0);
        }
        reg.inflight_dec(0, 0);
        reg.inflight_dec(0, 0);
        reg.inflight_inc(0, 0);
        let r = reg.snapshot();
        assert_eq!(r.edges[0].inflight_hwm(), 5);
        // Backpressure sampling charges the interval while the window is
        // at or above the threshold (current window: 4).
        reg.sample_queues(&[3, 0], 1_000);
        reg.sample_queues(&[7, 1], 1_000);
        let r = reg.snapshot();
        assert_eq!(r.edges[0].backpressure_ns, 2_000);
        assert_eq!(r.inbox_hwm, vec![7, 1]);
        reg.inflight_dec(0, 0);
        reg.sample_queues(&[0, 0], 1_000);
        assert_eq!(
            reg.snapshot().edges[0].backpressure_ns,
            2_000,
            "below the window threshold no time is charged"
        );
    }

    #[test]
    fn hottest_edge_prefers_bytes_then_lowest_id() {
        let reg = FlowRegistry::new(1, 3);
        assert_eq!(reg.hottest(), None, "no traffic, no hottest edge");
        reg.msg_out(0, 0, 0, 1, 50);
        reg.msg_out(2, 0, 0, 9, 50);
        reg.msg_out(1, 0, 0, 4, 200);
        assert_eq!(reg.hottest(), Some((1, 200, 4)));
        // Equal bytes: the lower edge id wins deterministically.
        reg.msg_out(0, 0, 0, 1, 150);
        assert_eq!(reg.hottest(), Some((0, 200, 2)));
    }

    #[test]
    fn render_and_prometheus_cover_edges_and_selectivity() {
        let graph = toy_graph();
        let reg = FlowRegistry::new(2, graph.edges.len());
        // Pretend edge 0 (readFile+map.. → reduce-ish) carried traffic.
        reg.msg_out(0, 0, 1, 40, 400);
        reg.msg_in(0, 1, 40);
        let r = reg.snapshot();
        let text = r.render(&graph);
        assert!(text.contains("top edges by bytes"), "{text}");
        assert!(text.contains("400B"), "{text}");
        assert!(text.contains("per-machine"), "{text}");
        let prom = r.prometheus(&graph);
        assert!(
            prom.contains("# TYPE mitos_edge_bytes_total counter"),
            "{prom}"
        );
        assert!(prom.contains("mitos_edge_bytes_total{edge=\"0\""), "{prom}");
        assert!(
            prom.contains("dir=\"in\"}") && prom.contains("dir=\"out\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("mitos_inbox_depth_hwm{machine=\"0\"}"),
            "{prom}"
        );
        let rows = r.explain_rows(&graph);
        assert!(rows.contains("edges (data plane)"), "{rows}");
        // A quiet report contributes nothing to explain.
        assert_eq!(
            FlowRegistry::new(2, graph.edges.len())
                .snapshot()
                .explain_rows(&graph),
            ""
        );
    }

    #[test]
    fn backpressure_lines_stay_empty_on_healthy_runs() {
        let graph = toy_graph();
        let reg = FlowRegistry::new(2, graph.edges.len());
        reg.msg_out(0, 0, 1, 40, 400);
        let r = reg.snapshot();
        assert!(r.backpressure_lines(&graph).is_empty());
        for _ in 0..BACKPRESSURE_WINDOW {
            reg.inflight_inc(0, 0);
        }
        reg.sample_queues(&[0, 0], 5_000_000);
        let lines = reg.snapshot().backpressure_lines(&graph);
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("backpressured 5.00ms"), "{}", lines[0]);
    }
}
