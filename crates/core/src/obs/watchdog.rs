//! Stall watchdog: turns a silent hang into a structured, actionable
//! [`StallReport`].
//!
//! The paper's coordination protocol (Sec. 5) has exactly two ways to
//! wedge: a control-flow manager waiting for a condition `Decision`
//! broadcast that never arrives, or a bag operator host waiting for input
//! elements / end-of-bag punctuation (or, downstream of those, a
//! conditional-send watcher that never resolves, Sec. 5.2.4). The drivers
//! detect *that* nothing is progressing via the
//! [`super::live::TelemetryHub`]'s last-progress timestamps — the thread
//! driver against a wall-clock deadline ([`crate::rt::EngineConfig::stall_deadline_ns`]),
//! the simulator on quiescence-without-exit — and then call [`diagnose`]
//! to introspect every worker and host for *why*: which operator is
//! blocked, in which basic block, which input bag or condition decision it
//! awaits, and which conditional-send watchers are still pending.
//!
//! The report is attached to the [`crate::rt::RuntimeError`] so callers
//! (and `mitos run --deadline`, which exits 2) can act on it.

use crate::graph::{EdgeId, OpId};
use mitos_ir::BlockId;
use std::fmt::Write as _;

/// What a blocked bag operator host is waiting for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Awaited {
    /// An input bag that is not yet complete (elements and/or end-of-bag
    /// punctuations still missing).
    InputBag {
        /// Logical input index on the blocked operator.
        input: u32,
        /// The logical edge feeding that input.
        edge: EdgeId,
        /// Bag identifier length of the awaited bag.
        bag_len: u32,
        /// Elements received so far.
        received: u64,
        /// Elements announced by the punctuations received so far.
        announced: u64,
        /// End-of-bag punctuations received.
        done_senders: u16,
        /// End-of-bag punctuations expected (one per sender instance).
        expected_senders: u16,
    },
    /// Non-pipelined mode: the superstep barrier has not yet released the
    /// occurrence at this path position.
    BarrierRelease {
        /// The path position awaiting release.
        pos: u32,
    },
    /// A simulated disk read is still in flight.
    DiskRead,
}

impl Awaited {
    fn render(&self) -> String {
        match self {
            Awaited::InputBag {
                input,
                edge,
                bag_len,
                received,
                announced,
                done_senders,
                expected_senders,
            } => format!(
                "awaiting input {input} (edge {edge}, bag len {bag_len}): \
                 {received}/{announced} elements, {done_senders}/{expected_senders} \
                 end-of-bag punctuations"
            ),
            Awaited::BarrierRelease { pos } => {
                format!("awaiting superstep barrier release of path position {pos}")
            }
            Awaited::DiskRead => "awaiting a disk read".to_string(),
        }
    }
}

/// One blocked (non-idle) bag operator host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpStall {
    /// The logical operator.
    pub op: OpId,
    /// Its SSA variable name.
    pub name: String,
    /// The basic block it computes in.
    pub block: BlockId,
    /// Bag identifier length of the active output bag, if one is open.
    pub bag_len: Option<u32>,
    /// What the host is waiting for ([`None`] if it only holds undecided
    /// conditional sends).
    pub awaited: Option<Awaited>,
    /// Conditional-send watchers still pending: `(edge, bag_len)` of each
    /// out-bag edge whose send/drop decision the path has not yet proven.
    pub pending_watchers: Vec<(EdgeId, u32)>,
}

/// One worker's control-flow state at stall time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStall {
    /// The machine.
    pub machine: u16,
    /// Whether its replicated execution path reached `Exit`.
    pub exited: bool,
    /// Execution-path depth (blocks appended so far).
    pub path_depth: u32,
    /// The last appended basic block.
    pub current_block: BlockId,
    /// `(path position, condition operator name)` when the control-flow
    /// manager is parked on a conditional jump whose `Decision` broadcast
    /// has not arrived.
    pub awaiting_decision: Option<(u32, String)>,
    /// Blocked hosts on this machine.
    pub ops: Vec<OpStall>,
}

impl WorkerStall {
    /// Whether this worker contributes anything to the stall.
    pub fn blocked(&self) -> bool {
        !self.exited || self.awaiting_decision.is_some() || !self.ops.is_empty()
    }
}

/// A structured diagnosis of a stalled run, produced by [`diagnose`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallReport {
    /// The configured no-progress deadline (0 when the stall was detected
    /// by simulator quiescence rather than a timer).
    pub deadline_ns: u64,
    /// How long the run had made no progress when the watchdog fired
    /// (0 under the simulator, where quiescence is instantaneous).
    pub idle_ns: u64,
    /// Per-worker state, one entry per machine.
    pub workers: Vec<WorkerStall>,
    /// When the run injected faults: the plan summary plus what the fault
    /// layer actually did (dropped / duplicated / reordered messages,
    /// retransmission rounds), so an unrecoverable stall names its cause.
    /// `None` on fault-free runs (see [`fault_note`]).
    pub fault: Option<String>,
    /// The always-on flight recorder's dump: one line per worker holding
    /// its last ring of handled messages (captured even at
    /// [`crate::obs::ObsLevel::Off`]). Empty when the driver did not
    /// attach a dump.
    pub flight: Vec<String>,
    /// Backpressure attribution from the flow registry: one line per edge
    /// observed with a saturated relay window ("edge X backpressured
    /// N ms"), hottest first. Empty on healthy runs (see
    /// [`crate::obs::flow::FlowReport::backpressure_lines`]).
    pub backpressure: Vec<String>,
    /// Retained-state attribution from the memory registry: one line per
    /// `(machine, retention class)` still holding live bags at stall time
    /// (see [`crate::obs::mem::MemReport::retained_lines`]). Empty when
    /// nothing is resident.
    pub retained: Vec<String>,
}

impl StallReport {
    /// Renders the report as an indented human-readable text block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.deadline_ns > 0 {
            let _ = writeln!(
                out,
                "stall watchdog: no progress for {} (deadline {})",
                super::fmt_ns(self.idle_ns),
                super::fmt_ns(self.deadline_ns),
            );
        } else {
            let _ = writeln!(out, "stall diagnosis (run quiesced without exiting):");
        }
        if let Some(fault) = &self.fault {
            let _ = writeln!(out, "  injected faults: {fault}");
        }
        let mut any = false;
        for w in &self.workers {
            if !w.blocked() {
                continue;
            }
            any = true;
            let _ = write!(
                out,
                "  worker {}: path depth {} (at block {}){}",
                w.machine,
                w.path_depth,
                w.current_block,
                if w.exited { ", exited" } else { "" },
            );
            match &w.awaiting_decision {
                Some((pos, cond)) => {
                    let _ = writeln!(
                        out,
                        ", awaiting decision for path position {pos} from condition `{cond}`"
                    );
                }
                None => {
                    let _ = writeln!(out);
                }
            }
            for s in &w.ops {
                let bag = match s.bag_len {
                    Some(l) => format!(", bag {l}"),
                    None => String::new(),
                };
                let what = match &s.awaited {
                    Some(a) => a.render(),
                    None => "no active wait (undecided conditional sends only)".to_string(),
                };
                let _ = writeln!(out, "    `{}` (block {}{bag}): {what}", s.name, s.block);
                if !s.pending_watchers.is_empty() {
                    let list: Vec<String> = s
                        .pending_watchers
                        .iter()
                        .map(|(e, l)| format!("edge {e} (bag {l})"))
                        .collect();
                    let _ = writeln!(
                        out,
                        "      pending conditional-send watchers: {}",
                        list.join(", ")
                    );
                }
            }
        }
        if !any {
            let _ = writeln!(out, "  all workers exited and idle");
        }
        if !self.backpressure.is_empty() {
            let _ = writeln!(out, "  backpressured edges:");
            for line in &self.backpressure {
                let _ = writeln!(out, "    {line}");
            }
        }
        if !self.retained.is_empty() {
            let _ = writeln!(out, "  retained state:");
            for line in &self.retained {
                let _ = writeln!(out, "    {line}");
            }
        }
        if !self.flight.is_empty() {
            let _ = writeln!(out, "  flight recorder (most recent events per worker):");
            for line in &self.flight {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }
}

/// Introspects every worker (and its hosts) into a [`StallReport`].
///
/// `deadline_ns`/`idle_ns` describe how the stall was detected (zero under
/// the simulator, where quiescence itself is the signal).
pub fn diagnose(workers: &[crate::worker::Worker], deadline_ns: u64, idle_ns: u64) -> StallReport {
    StallReport {
        deadline_ns,
        idle_ns,
        workers: workers
            .iter()
            .map(crate::worker::Worker::stall_info)
            .collect(),
        fault: None,
        flight: Vec::new(),
        backpressure: Vec::new(),
        retained: Vec::new(),
    }
}

/// Renders the fault line of a [`StallReport`]: the injected plan plus the
/// observed fault-layer activity. The drivers attach it whenever the run's
/// [`crate::rt::FaultPlan`] is active.
pub fn fault_note(
    plan: &crate::rt::FaultPlan,
    dropped: u64,
    duplicated: u64,
    reordered: u64,
    retransmits: u64,
) -> String {
    format!(
        "{} — {dropped} message(s) dropped, {duplicated} duplicated, \
         {reordered} reordered, {retransmits} retransmission(s)",
        plan.summary()
    )
}
