//! Shared runtime types: messages, configuration, and the transport
//! abstraction that lets the same worker state machines run on the
//! discrete-event simulator and on real threads.

use crate::cost::CostModel;
use crate::graph::{EdgeId, LogicalGraph};
use crate::obs::ObsLevel;
use crate::path::PathRules;
use mitos_fs::InMemoryFs;
use mitos_ir::BlockId;
use mitos_lang::Batch;
use std::fmt;
use std::sync::Arc;

pub use mitos_sim::{FaultPlan, Partition, PauseWindow, Verdict};

/// Engine feature switches and cost model.
///
/// The struct is `#[non_exhaustive]`: out-of-crate code constructs it with
/// [`EngineConfig::new`] (or `default()`) and the chainable `with_*`
/// setters, so adding a switch is not a breaking change.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Loop pipelining (Sec. 5.2): operators start an iteration's bags as
    /// soon as the path reaches their block. With `false`, a per-position
    /// barrier emulates superstep execution (Flink-style, Fig. 9's
    /// "Mitos (not pipelined)").
    pub pipelined: bool,
    /// Loop-invariant hoisting (Sec. 5.3): binary operators keep the state
    /// built for an input whose bag is unchanged between output bags.
    pub hoisting: bool,
    /// Operator chain fusion in the physical planner (see
    /// [`crate::fuse`]): maximal linear chains of narrow per-element
    /// operators collapse into one fused node, eliminating the per-edge
    /// data/punctuation traffic between them.
    pub fusion: bool,
    /// Execution templates (Mashayekhi et al., OSDI '17, adapted): each
    /// host caches the control-plane decisions of the first traversal of a
    /// basic-block path suffix (input-bag selections, conditional-send
    /// verdicts, hoist outcomes) and replays them on repeat traversals,
    /// validating the cached key and falling back to the slow path on any
    /// mismatch (see [`crate::template`]). Replay charges no virtual time
    /// and emits the same events, so results are bit-identical either way;
    /// only wall-clock cost and the hit/miss counters differ.
    pub templates: bool,
    /// Cost model for CPU/IO charging.
    pub cost: CostModel,
    /// Extra virtual ns charged by the barrier per released position —
    /// models Flink's per-superstep overhead (FLINK-3322) when this engine
    /// emulates Flink's native iterations. Zero for Mitos.
    pub extra_step_overhead_ns: u64,
    /// Abort with an error once the execution path exceeds this many basic
    /// blocks (a runaway/non-terminating loop guard).
    pub max_path_len: u32,
    /// Observability level: [`ObsLevel::Off`] (default, near-zero cost),
    /// [`ObsLevel::Metrics`] (counters only), or [`ObsLevel::Trace`]
    /// (counters plus the timestamped event stream). Recording charges no
    /// virtual time, so simulated results are identical at every level.
    pub obs: ObsLevel,
    /// Live-telemetry sampling interval in nanoseconds (0 = no sampling).
    /// The simulator samples at exact virtual-time multiples (charging
    /// zero virtual time, so snapshots are deterministic and free); the
    /// thread driver samples on wall-clock from its monitor loop. The
    /// [`crate::obs::live::TelemetryHub`] itself is always on regardless.
    pub sample_interval_ns: u64,
    /// Stall watchdog deadline in nanoseconds (0 = disabled; thread driver
    /// only). If no worker makes progress for this long, the run aborts
    /// with a [`RuntimeError`] carrying a structured
    /// [`crate::obs::watchdog::StallReport`]. The simulator needs no timer:
    /// a stall there manifests as quiescence-without-exit, which is
    /// diagnosed the same way.
    pub stall_deadline_ns: u64,
    /// Deterministic fault injection (see [`FaultPlan`]): seeded per-link
    /// drop/duplication/reordering, timed partitions, machine pauses and
    /// slowdowns, plus the decision-withholding switch. The default plan is
    /// inert and charges nothing; with network faults active the Mitos
    /// drivers run a sequence-numbered at-least-once delivery protocol
    /// (see [`crate::relay`]) unless [`FaultPlan::retransmit`] is off.
    pub faults: FaultPlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pipelined: true,
            hoisting: true,
            fusion: true,
            templates: true,
            cost: CostModel::default(),
            extra_step_overhead_ns: 0,
            max_path_len: 10_000_000,
            obs: ObsLevel::Off,
            sample_interval_ns: 0,
            stall_deadline_ns: 0,
            faults: FaultPlan::default(),
        }
    }
}

impl EngineConfig {
    /// The default configuration (all optimizations on, observability off).
    pub fn new() -> EngineConfig {
        EngineConfig::default()
    }

    /// Sets loop pipelining.
    pub fn with_pipelining(mut self, on: bool) -> Self {
        self.pipelined = on;
        self
    }

    /// Sets loop-invariant hoisting.
    pub fn with_hoisting(mut self, on: bool) -> Self {
        self.hoisting = on;
        self
    }

    /// Sets operator chain fusion.
    pub fn with_fusion(mut self, on: bool) -> Self {
        self.fusion = on;
        self
    }

    /// Sets control-plane execution templates (record/replay of per-step
    /// selection decisions; see [`crate::template`]).
    pub fn with_templates(mut self, on: bool) -> Self {
        self.templates = on;
        self
    }

    /// Sets the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the maximum elements per data-plane batch, clamped to at
    /// least one, without replacing the rest of the cost model — the
    /// tuning knob callers previously reached into
    /// `config.cost.batch_elems` for.
    pub fn with_batch_elems(mut self, elems: usize) -> Self {
        self.cost.batch_elems = elems.max(1);
        self
    }

    /// Sets the per-superstep barrier overhead (Flink emulation).
    pub fn with_extra_step_overhead_ns(mut self, ns: u64) -> Self {
        self.extra_step_overhead_ns = ns;
        self
    }

    /// Sets the runaway-loop path-length guard.
    pub fn with_max_path_len(mut self, len: u32) -> Self {
        self.max_path_len = len;
        self
    }

    /// Sets the observability level.
    pub fn with_obs(mut self, obs: ObsLevel) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the live-telemetry sampling interval (0 = off).
    pub fn with_sample_interval_ns(mut self, ns: u64) -> Self {
        self.sample_interval_ns = ns;
        self
    }

    /// Sets the stall watchdog deadline (0 = off).
    pub fn with_stall_deadline_ns(mut self, ns: u64) -> Self {
        self.stall_deadline_ns = ns;
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// A stable 64-bit digest of the full configuration (FNV-1a over the
    /// `Debug` rendering). Stamped into bench reports so
    /// `scripts/bench_compare.sh` can warn when two reports were produced
    /// under different engine configurations.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{self:?}").bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        h
    }
}

/// Nanoseconds per millisecond: the runtime keeps **all** durations in
/// nanoseconds (virtual time under the simulator, monotonic wall-clock
/// under the threaded driver); reports divide by this exactly once, in
/// [`crate::engine::EngineResult::millis`].
pub const NS_PER_MS: u64 = 1_000_000;

/// Immutable state shared by all workers of one job.
pub struct EngineShared {
    /// The dataflow job.
    pub graph: LogicalGraph,
    /// Precomputed coordination rules.
    pub rules: PathRules,
    /// Feature switches and costs.
    pub config: EngineConfig,
    /// The distributed file system.
    pub fs: InMemoryFs,
    /// Cluster size.
    pub machines: u16,
    /// Always-on live telemetry counters (relaxed atomics), shared by all
    /// workers and sampled by the drivers into
    /// [`crate::obs::live::Snapshot`]s.
    pub telemetry: crate::obs::live::TelemetryHub,
    /// Always-on per-worker flight recorder (fixed-size lock-free rings,
    /// active even at [`ObsLevel::Off`]); its last events are dumped into
    /// stall reports and fault post-mortems.
    pub flight: crate::obs::recorder::FlightRecorder,
    /// Always-on per-edge data-plane flow accounting (relaxed-atomic
    /// sharded counters for elements/messages/bytes/retransmissions plus
    /// queue-depth and backpressure watermarks); snapshotted into
    /// [`crate::obs::flow::FlowReport`] at join.
    pub flow: crate::obs::flow::FlowRegistry,
    /// Always-on per-machine, per-retention-class memory/state residency
    /// accounting (relaxed-atomic sharded gauges charged at bag
    /// append/compute and credited at Release/GC, with high-water marks);
    /// snapshotted into [`crate::obs::mem::MemReport`] at join.
    pub mem: crate::obs::mem::MemRegistry,
}

/// Messages exchanged between workers (one worker actor per machine).
#[derive(Clone, Debug)]
pub enum Msg {
    /// Bootstraps a worker: initializes the path with the entry block.
    Start,
    /// A control-flow decision: `path[index] = block` (Sec. 5.2.1),
    /// broadcast by the deciding condition node's control-flow manager.
    Decision {
        /// Path position being decided.
        index: u32,
        /// The chosen basic block.
        block: BlockId,
        /// Wire-carried trace context: the decider's step id and Decide
        /// span id, so receivers can tie their receipt spans back to the
        /// broadcasting span (see [`crate::obs::span`]). Deterministic —
        /// derived from protocol coordinates, never a clock.
        ctx: crate::obs::span::SpanCtx,
    },
    /// A batch of bag elements on a physical edge, carried in the typed
    /// columnar [`Batch`] container (see [`mitos_lang::batch`]); the wire
    /// cost charged for this message is the batch's actual length-delimited
    /// encoded size, not a per-element estimate.
    Data {
        /// Logical edge.
        edge: EdgeId,
        /// Destination instance.
        dst_inst: u16,
        /// Bag identifier length (the producer is implied by the edge).
        bag_len: u32,
        /// The elements, in columnar runs.
        batch: Batch,
    },
    /// End-of-bag punctuation from one sender instance, with the number of
    /// elements that sender shipped on this physical edge for this bag.
    BagDone {
        /// Logical edge.
        edge: EdgeId,
        /// Destination instance.
        dst_inst: u16,
        /// Bag identifier length.
        bag_len: u32,
        /// Elements sent by this sender on this physical edge.
        count: u32,
    },
    /// Non-pipelined mode: an instance finished its bag at a path position.
    BagComputed {
        /// The path position.
        pos: u32,
    },
    /// Non-pipelined mode: all bags at positions `<= pos` are complete;
    /// positions up to `pos + 1` may start.
    Release {
        /// The barrier frontier.
        pos: u32,
    },
    /// A simulated disk read completed for the given operator's host on
    /// this machine (file reads overlap with CPU, which is what loop
    /// pipelining exploits).
    IoDone {
        /// The operator whose read finished.
        op: crate::graph::OpId,
    },
    /// At-least-once delivery envelope (fault-injection runs only): a
    /// sequence-numbered wrapper the sender retransmits until the receiver
    /// acknowledges it. The receiver dedups by `(src, seq)` and always
    /// re-acks, so duplicates and retransmissions are invisible to the
    /// wrapped payload's handler (see [`crate::relay`]).
    Reliable {
        /// The sending machine (where acks go).
        src: u16,
        /// Per-link sequence number assigned by the sender.
        seq: u64,
        /// The guarded payload.
        payload: Box<Msg>,
    },
    /// Acknowledges [`Msg::Reliable`]`{seq}`; `peer` is the acknowledging
    /// machine.
    Ack {
        /// The machine that received and acknowledged the envelope.
        peer: u16,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Self-addressed retransmission timer: re-send everything still
    /// unacknowledged toward `peer`, with exponential backoff.
    RetryTick {
        /// The destination machine whose unacked traffic is due.
        peer: u16,
    },
}

/// Transport used by workers; implemented over the simulator and over
/// crossbeam channels.
pub trait Net {
    /// Sends a message to the worker on `machine`; `bytes` is the payload
    /// size for bandwidth accounting.
    fn send(&mut self, machine: u16, msg: Msg, bytes: u64);
    /// Charges CPU time on the current machine (no-op on real threads).
    fn charge(&mut self, ns: u64);
    /// Delivers `msg` to `machine` after `delay_ns` of virtual time without
    /// occupying the CPU (models asynchronous disk I/O).
    fn schedule(&mut self, delay_ns: u64, machine: u16, msg: Msg);
    /// The current time in nanoseconds, used to timestamp trace events:
    /// virtual time on the simulator, monotonic wall-clock since engine
    /// start on real threads. Only consulted when tracing is enabled.
    fn now_ns(&mut self) -> u64;
    /// Delivers `msg` to `machine` after `delay_ns` as a **local timer**:
    /// exempt from network fault injection, used by the relay's
    /// retransmission backoff. Defaults to [`Net::schedule`]; drivers whose
    /// `schedule` ignores the delay (the thread driver delivers scheduled
    /// messages immediately) override it with a real timer.
    fn timer(&mut self, delay_ns: u64, machine: u16, msg: Msg) {
        self.schedule(delay_ns, machine, msg);
    }
}

/// A fatal runtime error (lambda failures, protocol violations).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RuntimeError {
    /// Description.
    pub message: String,
    /// Structured stall diagnosis, present when the error came from the
    /// stall watchdog or a deadlock (see [`crate::obs::watchdog`]).
    pub stall: Option<Box<crate::obs::watchdog::StallReport>>,
}

impl RuntimeError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> RuntimeError {
        RuntimeError {
            message: message.into(),
            stall: None,
        }
    }

    /// Creates a stall error: `reason`, the rendered diagnosis appended to
    /// the message, and the structured report attached.
    pub fn stalled(reason: impl Into<String>, report: crate::obs::watchdog::StallReport) -> Self {
        RuntimeError {
            message: format!("{}\n{}", reason.into(), report.render()),
            stall: Some(Box::new(report)),
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

/// The file-name prefix under which `output(value, tag)` sinks collect
/// results in the shared file system.
pub const OUTPUT_PREFIX: &str = "out://";

/// Convenience alias used across the runtime.
pub type Shared = Arc<EngineShared>;
