//! Structured runtime events: one record per observable step of the bag
//! lifecycle and the control-flow protocol.
//!
//! Events are cheap POD values; the recording buffer ([`super::ObsBuf`])
//! only materializes them at [`super::ObsLevel::Trace`]. Timestamps come
//! from [`crate::rt::Net::now_ns`] — virtual time under the simulator,
//! monotonic wall-clock under the threaded driver — so the same event
//! stream renders meaningfully from either driver.

use mitos_ir::BlockId;

/// Sentinel operator id for worker-level events (control-flow manager,
/// barrier) that are not attributable to a single operator.
pub const OP_NONE: u32 = u32::MAX;

/// One recorded runtime event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Timestamp in nanoseconds: virtual time (simulator) or monotonic
    /// wall-clock since engine start (threads).
    pub t_ns: u64,
    /// Machine the event happened on.
    pub machine: u16,
    /// Logical operator id, or [`OP_NONE`] for worker-level events.
    pub op: u32,
    /// What happened.
    pub kind: EventKind,
}

/// Which input-selection rule (Sec. 5.2.3) chose the input bag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputRule {
    /// Producer in the same block occurrence, earlier statement.
    SameBlock,
    /// Latest occurrence of the producing block before this one.
    LatestOccurrence,
    /// Φ node: the alternative whose producing block occurred latest.
    PhiLatest,
}

impl InputRule {
    /// Short stable label (used in trace args and the explain report).
    pub fn label(self) -> &'static str {
        match self {
            InputRule::SameBlock => "same-block",
            InputRule::LatestOccurrence => "latest-occurrence",
            InputRule::PhiLatest => "phi-latest",
        }
    }
}

/// The event vocabulary: bag lifecycle (Sec. 5.2.2–5.2.4), hoisting
/// (Sec. 5.3), and the control-flow protocol (Sec. 5.2.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An output bag was scheduled and its inputs selected (5.2.2). The bag
    /// identifier is `(op, bag_len)`; `pos = bag_len - 1` is the path
    /// position of the block occurrence it belongs to.
    BagOpened {
        /// Path position of the occurrence.
        pos: u32,
        /// Bag identifier prefix length (`pos + 1`).
        bag_len: u32,
    },
    /// One logical input chose its input bag (5.2.3).
    InputSelected {
        /// The logical edge the input arrives on.
        edge: u32,
        /// Prefix length of the chosen input bag.
        bag_len: u32,
        /// Which prefix rule fired.
        rule: InputRule,
    },
    /// Loop-invariant build state was reused instead of recomputed (5.3).
    HoistHit {
        /// Path position of the occurrence that reused the state.
        pos: u32,
        /// Prefix length of the unchanged hoisted input bag.
        bag_len: u32,
    },
    /// The operator produced elements into its output bag.
    Emitted {
        /// Producing bag's prefix length.
        bag_len: u32,
        /// Elements produced in this batch.
        count: u64,
    },
    /// A conditional (non-immediate) edge resolved its send decision
    /// (5.2.4): the path proved the consumer will run (`sent`) or can
    /// never select this bag (dropped).
    SendResolved {
        /// The outgoing logical edge.
        edge: u32,
        /// The bag whose fate was decided.
        bag_len: u32,
        /// `true` = ship (buffered elements flushed), `false` = discard.
        sent: bool,
        /// Elements that were buffered while undecided.
        buffered: u64,
        /// Nanoseconds from bag open to decision.
        latency_ns: u64,
    },
    /// The operator finished computing the bag (all inputs consumed).
    BagFinalized {
        /// Path position of the occurrence.
        pos: u32,
        /// Bag identifier prefix length.
        bag_len: u32,
    },
    /// End-of-bag punctuation went out on a decided edge (the close /
    /// watermark protocol message).
    PunctuationSent {
        /// The outgoing logical edge.
        edge: u32,
        /// The closed bag's prefix length.
        bag_len: u32,
        /// Total elements announced across destinations.
        count: u64,
    },
    /// An output sink appended elements to its `out://` collection.
    SinkWrote {
        /// The sink's active bag (ties the write to a loop iteration).
        bag_len: u32,
        /// Elements appended.
        count: u64,
    },
    /// A control-flow decision was broadcast to the other control-flow
    /// managers (5.2.1).
    DecisionBroadcast {
        /// Path position the decision resolves.
        pos: u32,
        /// The chosen successor block.
        block: BlockId,
    },
    /// A remote control-flow manager received a broadcast decision. The
    /// wire-carried trace context ties the receipt back to the decider's
    /// span (see [`crate::obs::span`]).
    DecisionReceived {
        /// Path position the decision resolves.
        pos: u32,
        /// The chosen successor block.
        block: BlockId,
        /// Parent span id carried on the wire (the decider's Decide span).
        parent: u64,
    },
    /// The local execution path gained a block occurrence.
    PathAppended {
        /// New path position.
        pos: u32,
        /// The appended block.
        block: BlockId,
    },
    /// A simulated/asynchronous file read started.
    IoStarted {
        /// The reading operator's active bag (ties the read to a loop
        /// iteration).
        bag_len: u32,
        /// Modeled disk delay until the data arrives.
        delay_ns: u64,
    },
    /// A pending file read delivered its elements.
    IoFinished {
        /// The reading operator's active bag.
        bag_len: u32,
        /// Elements read.
        count: u64,
    },
    /// The superstep barrier released a path position (non-pipelined mode).
    StepReleased {
        /// Released position.
        pos: u32,
    },
    /// The at-least-once relay retransmitted an unacknowledged envelope
    /// (fault-injection runs only; see [`crate::relay`]).
    RetransmitSent {
        /// Destination machine of the retransmitted envelope.
        peer: u16,
        /// Per-link sequence number of the envelope.
        seq: u64,
        /// This envelope's retransmissions so far (1 = first retry).
        attempt: u32,
        /// Step index when the retransmitted payload is a
        /// [`crate::rt::Msg::Decision`]; `u32::MAX` for every other
        /// payload. Lets the span layer annotate receipt spans with
        /// attempt counts without conflating data retransmissions.
        step: u32,
    },
    /// Receiver-side dedup discarded a duplicate reliable delivery
    /// (fault-injection runs only).
    DuplicateDropped {
        /// The machine whose envelope arrived twice.
        peer: u16,
        /// The duplicated sequence number.
        seq: u64,
    },
}

impl EventKind {
    /// Stable short name (Chrome-trace event names, test assertions).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::BagOpened { .. } => "bag_opened",
            EventKind::InputSelected { .. } => "input_selected",
            EventKind::HoistHit { .. } => "hoist_hit",
            EventKind::Emitted { .. } => "emitted",
            EventKind::SendResolved { .. } => "send_resolved",
            EventKind::BagFinalized { .. } => "bag_finalized",
            EventKind::PunctuationSent { .. } => "punctuation_sent",
            EventKind::SinkWrote { .. } => "sink_wrote",
            EventKind::DecisionBroadcast { .. } => "decision_broadcast",
            EventKind::DecisionReceived { .. } => "decision_received",
            EventKind::PathAppended { .. } => "path_appended",
            EventKind::IoStarted { .. } => "io_started",
            EventKind::IoFinished { .. } => "io_finished",
            EventKind::StepReleased { .. } => "step_released",
            EventKind::RetransmitSent { .. } => "retransmit_sent",
            EventKind::DuplicateDropped { .. } => "duplicate_dropped",
        }
    }
}
