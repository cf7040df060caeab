//! Structured runtime observability (tracing + metrics).
//!
//! The runtime emits one [`Event`] per observable step of the bag
//! lifecycle — bag opened, input selected (and which prefix rule fired),
//! elements emitted, conditional output sent or discarded, end-of-bag
//! punctuation, hoisting hits, control-flow decision broadcasts — and
//! keeps a per-worker [`MetricsRegistry`] of counters and histograms.
//! Workers record into a private [`ObsBuf`]; the drivers merge buffers at
//! join time into one [`ObsReport`] attached to
//! [`crate::engine::EngineResult`].
//!
//! Alongside that event layer, always-on counters run at every level,
//! [`ObsLevel::Off`] included: one store type, [`counters::Counters`],
//! one row of single-writer cells per machine, addressed by typed keys.
//! It backs three key families: live progress
//! ([`live::TelemetryHub`]), data-plane flow ([`flow::FlowRegistry`]) and
//! memory residency ([`mem::MemRegistry`]). The run's totals
//! (emitted elements, hoist hits, template counters, decisions, data
//! messages) are read from it at join, so each fact is counted once.
//!
//! Timestamps come from [`crate::rt::Net::now_ns`]: virtual time under the
//! simulator, monotonic wall-clock under the threaded driver. Recording
//! charges **zero virtual time**, so tracing never perturbs simulated
//! results; at [`ObsLevel::Off`] (the default) every record call is a
//! single branch.
//!
//! Exporters: [`chrome::chrome_trace`] (Chrome `chrome://tracing` /
//! Perfetto JSON), [`explain::explain_report`] (per-operator text table),
//! the `to_json` / `prometheus` methods of the reports ([`FlowReport`],
//! [`MemReport`], [`Profile`], [`PhaseHistograms`]), and the overlays in
//! [`crate::dot::to_dot`] via [`crate::dot::DotOverlay`]. Every JSON
//! document and Prometheus series is written through [`expo`], the one
//! escaper, object/array writer and metric-family writer; nothing else
//! formats either by hand.

pub mod chrome;
pub mod counters;
pub mod critical;
pub mod event;
pub mod explain;
pub mod expo;
pub mod flow;
pub mod histo;
pub mod live;
pub mod mem;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod span;
pub mod watchdog;

pub use chrome::chrome_trace;
pub use counters::{Counters, Counts, Key};
pub use critical::{critical_path, BagNode, CriticalPath};
pub use event::{Event, EventKind, InputRule, OP_NONE};
pub use explain::{explain_parts, explain_report};
pub use expo::validate_json;
pub use flow::{EdgeFlow, FlowRegistry, FlowReport, BACKPRESSURE_WINDOW};
pub use histo::{Histogram, PhaseHistograms};
pub use live::{progress_line, watch_table, OpSnapshot, Snapshot, TelemetryHub, WorkerSnapshot};
pub use mem::{ClassMem, MachineMem, MemClass, MemRegistry, MemReport};
pub use metrics::{EdgeMetrics, LatencyStats, MetricsRegistry, OpMetrics};
pub use profile::{build_profile, Profile};
pub use recorder::{FlightRecorder, FLIGHT_SLOTS};
pub use span::{build_step_trees, render_tree, span_id, Span, SpanCtx, SpanKind, StepTree};
pub use watchdog::{diagnose, fault_note, Awaited, OpStall, StallReport, WorkerStall};

use crate::path::LoopNest;
use crate::rt::Net;

/// Human-readable nanoseconds (`1.23ms` / `4.5us` / `678ns`), shared by
/// the text reports.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns >= crate::rt::NS_PER_MS {
        format!("{:.2}ms", ns as f64 / crate::rt::NS_PER_MS as f64)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// How much the runtime records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsLevel {
    /// Record nothing; every instrumentation site is a single branch.
    #[default]
    Off,
    /// Update counters/histograms only (no per-event storage, no clock
    /// reads).
    Metrics,
    /// Counters plus the full timestamped event stream.
    Trace,
}

/// Per-worker recording buffer. One per [`crate::worker::Worker`]; never
/// shared, so recording is lock-free.
#[derive(Debug, Default)]
pub struct ObsBuf {
    level: ObsLevel,
    machine: u16,
    events: Vec<Event>,
    /// Counters, updated on every recorded event.
    pub metrics: MetricsRegistry,
}

impl ObsBuf {
    /// Creates a buffer recording at `level` for `machine`.
    pub fn new(level: ObsLevel, machine: u16) -> ObsBuf {
        ObsBuf {
            level,
            machine,
            events: Vec::new(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// Whether anything is recorded at all. Hot call sites may use this to
    /// skip argument construction entirely.
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self.level, ObsLevel::Off)
    }

    /// Whether the full event stream (with timestamps) is recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        matches!(self.level, ObsLevel::Trace)
    }

    /// Records one event attributed to operator `op` (or [`OP_NONE`]).
    /// The clock is only read when tracing; counters always update when
    /// enabled. No-op (one branch) when the level is [`ObsLevel::Off`].
    #[inline]
    pub fn record(&mut self, net: &mut dyn Net, op: u32, kind: EventKind) {
        match self.level {
            ObsLevel::Off => {}
            ObsLevel::Metrics => self.metrics.apply(op, &kind),
            ObsLevel::Trace => {
                self.metrics.apply(op, &kind);
                self.events.push(Event {
                    t_ns: net.now_ns(),
                    machine: self.machine,
                    op,
                    kind,
                });
            }
        }
    }

    /// Recorded events (empty unless tracing).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Drains this buffer into `(events, metrics)`, leaving it empty.
    pub fn take(&mut self) -> (Vec<Event>, MetricsRegistry) {
        (
            std::mem::take(&mut self.events),
            std::mem::take(&mut self.metrics),
        )
    }
}

/// The merged observability output of one run.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// The level the run recorded at.
    pub level: ObsLevel,
    /// All events, sorted by timestamp (then machine); empty unless the
    /// level was [`ObsLevel::Trace`].
    pub events: Vec<Event>,
    /// Counters aggregated across all workers.
    pub metrics: MetricsRegistry,
    /// The program's loop-nesting structure, attached by the drivers so
    /// the analysis layer ([`profile`], [`critical`]) can decode bag
    /// identifiers into iteration coordinates without the compiled
    /// function.
    pub loops: LoopNest,
    /// `(src op, dst op)` per logical edge id, attached by the drivers —
    /// events carry edge ids, and the analyzers need their endpoints to
    /// reconstruct the bag-dependency DAG.
    pub edges: Vec<(u32, u32)>,
}

/// Merges per-worker buffers (at join) into one report. Events are stably
/// sorted by timestamp then machine, so per-machine relative order is
/// preserved under timestamp ties (common in virtual time).
pub fn merge_bufs(level: ObsLevel, bufs: impl IntoIterator<Item = ObsBuf>) -> ObsReport {
    let mut events = Vec::new();
    let mut metrics = MetricsRegistry::default();
    for mut b in bufs {
        let (ev, m) = b.take();
        events.extend(ev);
        metrics.merge(&m);
    }
    events.sort_by_key(|e| (e.t_ns, e.machine));
    ObsReport {
        level,
        events,
        metrics,
        loops: LoopNest::default(),
        edges: Vec::new(),
    }
}

/// Attaches the static program topology (loop nest + edge endpoints) the
/// analysis layer needs. Called by the drivers right after [`merge_bufs`].
pub fn attach_topology(report: &mut ObsReport, graph: &crate::graph::LogicalGraph) {
    report.loops = LoopNest::build(&graph.func);
    report.edges = graph.edges.iter().map(|e| (e.src, e.dst)).collect();
}
