//! Causal span trees over the control-flow protocol.
//!
//! Every step decision carries a compact trace context ([`SpanCtx`]: step
//! id + parent span id) on the wire, letting this module reconstruct —
//! purely from the merged [`ObsReport`] event stream — one causal tree
//! per path position: decision broadcast → per-machine receipt → path
//! append → input-bag assembly → operator execute → conditional-send
//! resolution. Retransmitted deliveries of the same `(src, seq)` envelope
//! are deduped by the relay before any event is recorded, so duplicated
//! or reordered deliveries collapse into **one** logical receipt span,
//! annotated with the attempt count.
//!
//! Span ids are deterministic: [`span_id`] mixes `(step, machine, kind,
//! seq)` through two rounds of the splitmix64 finalizer — never a wall
//! clock, never a global counter — so the same program on the same
//! cluster yields bit-identical ids under the simulator, and ids agree
//! across machines without coordination (the receiver recomputes the
//! decider's id from the step index alone and verifies it against the
//! wire-carried parent).

use std::collections::HashMap;

use crate::obs::event::{Event, EventKind, OP_NONE};
use crate::obs::{fmt_ns, ObsReport};

/// Wire-carried trace context, attached to every broadcast
/// [`crate::rt::Msg::Decision`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanCtx {
    /// The path position (step) this decision resolves.
    pub step: u32,
    /// Span id of the decider's Decide span (0 = none).
    pub parent: u64,
}

/// What a span represents inside a step's causal tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanKind {
    /// The control-flow manager resolved the step and broadcast it.
    Decide = 1,
    /// Synthetic root for an undecided (unconditional) step.
    Jump = 2,
    /// A remote manager received the broadcast decision.
    Recv = 3,
    /// A machine appended the block occurrence to its local path replica.
    Append = 4,
    /// An operator instance executed its bag for this occurrence.
    Exec = 5,
    /// One logical input selected its input bag (5.2.3).
    Input = 6,
    /// A conditional edge resolved its send decision (5.2.4).
    Send = 7,
    /// Loop-invariant build state was reused (5.3).
    Hoist = 8,
}

impl SpanKind {
    /// Short stable label used in rendering and [`StepTree::shape`].
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Decide => "decide",
            SpanKind::Jump => "jump",
            SpanKind::Recv => "recv",
            SpanKind::Append => "append",
            SpanKind::Exec => "exec",
            SpanKind::Input => "input",
            SpanKind::Send => "send",
            SpanKind::Hoist => "hoist",
        }
    }
}

/// splitmix64 finalizer: the standard 3-round xor-multiply mix.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic span id for `(step, machine, kind, seq)`. Derived purely
/// from protocol coordinates — never a clock — so simulator runs are
/// bit-identical and every machine can recompute any other machine's ids.
/// 0 is reserved as "no parent", hence the `.max(1)`.
pub fn span_id(step: u32, machine: u16, kind: SpanKind, seq: u32) -> u64 {
    mix(mix(((step as u64) << 32) | seq as u64) ^ (((machine as u64) << 8) | kind as u64)).max(1)
}

/// One node of a step's causal tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Deterministic id ([`span_id`]).
    pub id: u64,
    /// Parent span id (0 for the root).
    pub parent: u64,
    /// What this span represents.
    pub kind: SpanKind,
    /// Machine the span ran on.
    pub machine: u16,
    /// Operator id, or [`OP_NONE`] for control-plane spans.
    pub op: u32,
    /// Start timestamp (virtual or wall ns, per the driver).
    pub start_ns: u64,
    /// End timestamp; equals `start_ns` for instantaneous spans.
    pub end_ns: u64,
    /// Delivery attempts that fed this span (receipt spans only; 1 =
    /// no retransmission).
    pub attempts: u32,
    /// Canonical structural label — part of [`StepTree::shape`], so it
    /// must be identical between fault-free and faulted runs.
    pub label: String,
    /// Render-only annotation (buffered counts, latencies) excluded from
    /// the canonical shape because faults may legally change it.
    pub detail: String,
}

/// The causal tree of one path position.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StepTree {
    /// Path position (step index).
    pub step: u32,
    /// The block this occurrence executes.
    pub block: u32,
    /// Whether a real decision was broadcast (false = unconditional jump,
    /// synthetic [`SpanKind::Jump`] root).
    pub decided: bool,
    /// All spans, root first, children in deterministic order.
    pub spans: Vec<Span>,
    /// Spans whose parent could not be established — always empty on a
    /// healthy run; non-empty means the trace context broke somewhere.
    pub orphans: Vec<Span>,
}

impl StepTree {
    /// Root span id (0 if the tree is empty).
    pub fn root(&self) -> u64 {
        self.spans.first().map_or(0, |s| s.id)
    }

    /// Canonical structural form: the sorted multiset of root-to-node
    /// label paths. Two trees are isomorphic iff their shapes are equal.
    /// Excludes timestamps, attempt counts, and render-only details —
    /// exactly the parts retransmission and reordering may perturb.
    pub fn shape(&self) -> Vec<String> {
        let by_id: HashMap<u64, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        let mut paths: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut chain = vec![s.label.clone()];
                let mut p = s.parent;
                while p != 0 {
                    let Some(ps) = by_id.get(&p) else { break };
                    chain.push(ps.label.clone());
                    p = ps.parent;
                }
                chain.reverse();
                chain.join(" / ")
            })
            .collect();
        paths.sort();
        paths
    }
}

/// Builds one [`StepTree`] per path position from a Trace-level report.
///
/// Association rules (all derived from the per-machine stream order the
/// runtime guarantees):
/// - the root is the Decide span of the step's `DecisionBroadcast`, or a
///   synthetic Jump span at the earliest `PathAppended` when the step was
///   never decided (step 0 and unconditional jumps);
/// - each remote `DecisionReceived` becomes a Recv child; its wire parent
///   must equal the recomputed decider id, else it is an orphan;
/// - each machine's `PathAppended` becomes an Append span — parented on
///   that machine's Recv span remotely, on the root locally;
/// - `BagOpened .. BagFinalized` at `bag_len == pos + 1` becomes an Exec
///   span under the machine's Append;
/// - `InputSelected` / `SendResolved` / `HoistHit` attach to the open bag
///   of `(machine, op)` at record time (`BagOpened` always precedes them
///   in the per-machine stream).
pub fn build_step_trees(report: &ObsReport) -> Vec<StepTree> {
    let mut steps: HashMap<u32, StepTree> = HashMap::new();
    // Decide/Jump root id per step, filled on first sight.
    let mut roots: HashMap<u32, u64> = HashMap::new();
    // Recv span id per (step, machine).
    let mut recvs: HashMap<(u32, u16), u64> = HashMap::new();
    // Append span id per (step, machine).
    let mut appends: HashMap<(u32, u16), u64> = HashMap::new();
    // Open-bag position per (machine, op): BagOpened precedes the bag's
    // InputSelected/HoistHit/SendResolved/BagFinalized in stream order.
    let mut open_now: HashMap<(u16, u32), u32> = HashMap::new();
    // Exec span id + per-op child sequence counter per (machine, op, pos).
    let mut execs: HashMap<(u16, u32, u32), (u64, u32)> = HashMap::new();
    // Decision-payload retransmissions per (step, peer machine).
    let mut retries: HashMap<(u32, u16), u32> = HashMap::new();

    // Pass 1: roots and retransmission counts (events are globally sorted
    // by time, but a Recv may be recorded before this machine's own
    // PathAppended for an undecided step elsewhere — resolve roots first).
    for ev in &report.events {
        match &ev.kind {
            EventKind::DecisionBroadcast { pos, block } => {
                let id = span_id(*pos, ev.machine, SpanKind::Decide, 0);
                roots.entry(*pos).or_insert(id);
                let tree = steps.entry(*pos).or_default();
                tree.step = *pos;
                tree.block = *block;
                tree.decided = true;
                tree.spans.push(Span {
                    id,
                    parent: 0,
                    kind: SpanKind::Decide,
                    machine: ev.machine,
                    op: OP_NONE,
                    start_ns: ev.t_ns,
                    end_ns: ev.t_ns,
                    attempts: 1,
                    label: format!("decide step={pos} block={block} m{}", ev.machine),
                    detail: String::new(),
                });
            }
            EventKind::RetransmitSent { peer, step, .. } if *step != u32::MAX => {
                // Count resends of this decision to this peer.
                *retries.entry((*step, *peer)).or_insert(0) += 1;
            }
            _ => {}
        }
    }
    for ev in &report.events {
        if let EventKind::PathAppended { pos, block } = &ev.kind {
            if !roots.contains_key(pos) {
                // Undecided step: synthesize a Jump root at the earliest
                // append (events are time-sorted, so first wins). The id is
                // machine-neutral — *which* machine appends first is a race
                // on the thread driver and legally shifts under fault
                // schedules, and the tree shape must not depend on it.
                let id = span_id(*pos, u16::MAX, SpanKind::Jump, 0);
                roots.insert(*pos, id);
                let tree = steps.entry(*pos).or_default();
                tree.step = *pos;
                tree.block = *block;
                tree.decided = false;
                tree.spans.push(Span {
                    id,
                    parent: 0,
                    kind: SpanKind::Jump,
                    machine: ev.machine,
                    op: OP_NONE,
                    start_ns: ev.t_ns,
                    end_ns: ev.t_ns,
                    attempts: 1,
                    label: format!("jump step={pos} block={block}"),
                    detail: String::new(),
                });
            }
        }
    }

    // Pass 2: everything else, in global time order.
    for ev in &report.events {
        match &ev.kind {
            EventKind::DecisionReceived { pos, block, parent } => {
                let tree = steps.entry(*pos).or_default();
                tree.step = *pos;
                let attempts = 1 + retries.get(&(*pos, ev.machine)).copied().unwrap_or(0);
                let id = span_id(*pos, ev.machine, SpanKind::Recv, 0);
                let root = roots.get(pos).copied().unwrap_or(0);
                let mut span = Span {
                    id,
                    parent: *parent,
                    kind: SpanKind::Recv,
                    machine: ev.machine,
                    op: OP_NONE,
                    start_ns: ev.t_ns,
                    end_ns: ev.t_ns,
                    attempts,
                    label: format!("recv step={pos} block={block} m{}", ev.machine),
                    detail: if attempts > 1 {
                        format!("attempts={attempts}")
                    } else {
                        String::new()
                    },
                };
                if root != 0 && *parent == root {
                    recvs.insert((*pos, ev.machine), id);
                    tree.spans.push(span);
                } else {
                    // Wire parent disagrees with the recomputed decider id
                    // (or the decide event is missing): trace broke.
                    span.detail = format!("wire-parent={parent:#x} expected={root:#x}");
                    tree.orphans.push(span);
                }
            }
            EventKind::PathAppended { pos, block } => {
                let tree = steps.entry(*pos).or_default();
                let id = span_id(*pos, ev.machine, SpanKind::Append, 0);
                if appends.contains_key(&(*pos, ev.machine)) {
                    continue; // defensive: one append per (step, machine)
                }
                let root = roots.get(pos).copied().unwrap_or(0);
                // Remote appends on decided steps hang off the machine's
                // Recv span; the decider's own append (and every append of
                // an undecided step) hangs off the root.
                let parent = recvs.get(&(*pos, ev.machine)).copied().unwrap_or(root);
                let span = Span {
                    id,
                    parent,
                    kind: SpanKind::Append,
                    machine: ev.machine,
                    op: OP_NONE,
                    start_ns: ev.t_ns,
                    end_ns: ev.t_ns,
                    attempts: 1,
                    label: format!("append step={pos} block={block} m{}", ev.machine),
                    detail: String::new(),
                };
                if parent == 0 {
                    tree.orphans.push(span);
                } else {
                    if tree.decided
                        && parent == root
                        && !recvs.contains_key(&(*pos, ev.machine))
                        && tree.spans.first().map(|s| s.machine) != Some(ev.machine)
                    {
                        // Decided step, remote machine, but no receipt span:
                        // the append is causally unexplained.
                        tree.orphans.push(span);
                        continue;
                    }
                    appends.insert((*pos, ev.machine), id);
                    tree.spans.push(span);
                }
            }
            EventKind::BagOpened { pos, bag_len } => {
                open_now.insert((ev.machine, ev.op), *pos);
                let tree = steps.entry(*pos).or_default();
                let id = span_id(*pos, ev.machine, SpanKind::Exec, ev.op);
                let parent = appends.get(&(*pos, ev.machine)).copied().unwrap_or(0);
                let span = Span {
                    id,
                    parent,
                    kind: SpanKind::Exec,
                    machine: ev.machine,
                    op: ev.op,
                    start_ns: ev.t_ns,
                    end_ns: ev.t_ns, // patched by BagFinalized
                    attempts: 1,
                    label: format!("exec op={} len={bag_len} m{}", ev.op, ev.machine),
                    detail: String::new(),
                };
                if parent == 0 {
                    tree.orphans.push(span);
                } else {
                    execs.insert((ev.machine, ev.op, *pos), (id, 0));
                    tree.spans.push(span);
                }
            }
            EventKind::BagFinalized { pos, .. } => {
                open_now.remove(&(ev.machine, ev.op));
                if let Some(&(id, _)) = execs.get(&(ev.machine, ev.op, *pos)) {
                    let tree = steps.entry(*pos).or_default();
                    if let Some(s) = tree.spans.iter_mut().find(|s| s.id == id) {
                        s.end_ns = ev.t_ns;
                        s.label.push_str(" done");
                    }
                }
            }
            EventKind::InputSelected {
                edge,
                bag_len,
                rule,
            } => {
                // The consuming bag is whichever this (machine, op) has
                // open right now — BagOpened always precedes its
                // InputSelected records in the per-machine stream.
                let pos = open_now.get(&(ev.machine, ev.op)).copied();
                attach_child(
                    &mut steps,
                    &mut execs,
                    pos,
                    ev,
                    SpanKind::Input,
                    format!("input edge={edge} len={bag_len} rule={}", rule.label()),
                    String::new(),
                );
            }
            EventKind::SendResolved {
                edge,
                bag_len,
                sent,
                buffered,
                latency_ns,
            } => {
                // A conditional send can resolve long after the bag closed
                // (the path proof arrives later), so the step comes from
                // the event's own bag identifier: pos = bag_len - 1.
                attach_child(
                    &mut steps,
                    &mut execs,
                    Some(bag_len - 1),
                    ev,
                    SpanKind::Send,
                    format!("send edge={edge} sent={sent}"),
                    format!("buffered={buffered} latency={}", fmt_ns(*latency_ns)),
                );
            }
            EventKind::HoistHit { pos, bag_len } => {
                attach_child(
                    &mut steps,
                    &mut execs,
                    Some(*pos),
                    ev,
                    SpanKind::Hoist,
                    format!("hoist len={bag_len}"),
                    String::new(),
                );
            }
            _ => {}
        }
    }

    let mut out: Vec<StepTree> = steps.into_values().collect();
    out.sort_by_key(|t| t.step);
    for tree in &mut out {
        // Deterministic child order: (parent chain is already captured by
        // ids) sort by (kind, machine, op, id) after the root.
        if tree.spans.len() > 1 {
            let root = tree.spans.remove(0);
            tree.spans.sort_by_key(|s| (s.kind, s.machine, s.op, s.id));
            tree.spans.insert(0, root);
        }
        tree.orphans
            .sort_by_key(|s| (s.kind, s.machine, s.op, s.id));
    }
    out
}

/// Attaches an Input/Send/Hoist child to the Exec span of
/// `(machine, op, pos)`, or records it as an orphan of its step.
fn attach_child(
    steps: &mut HashMap<u32, StepTree>,
    execs: &mut HashMap<(u16, u32, u32), (u64, u32)>,
    pos: Option<u32>,
    ev: &Event,
    kind: SpanKind,
    label: String,
    detail: String,
) {
    let Some(pos) = pos else {
        // No position resolvable: unattachable. Park it on step 0 as an
        // orphan so it is visible rather than silently dropped.
        let tree = steps.entry(0).or_default();
        tree.orphans.push(Span {
            id: span_id(0, ev.machine, kind, ev.op),
            parent: 0,
            kind,
            machine: ev.machine,
            op: ev.op,
            start_ns: ev.t_ns,
            end_ns: ev.t_ns,
            attempts: 1,
            label,
            detail,
        });
        return;
    };
    let tree = steps.entry(pos).or_default();
    match execs.get_mut(&(ev.machine, ev.op, pos)) {
        Some((exec_id, child_seq)) => {
            *child_seq += 1;
            // Fold the child ordinal into the seq operand so sibling
            // children of one exec span get distinct deterministic ids.
            let id = span_id(pos, ev.machine, kind, (ev.op << 8) | (*child_seq & 0xFF));
            tree.spans.push(Span {
                id,
                parent: *exec_id,
                kind,
                machine: ev.machine,
                op: ev.op,
                start_ns: ev.t_ns,
                end_ns: ev.t_ns,
                attempts: 1,
                label,
                detail,
            });
        }
        None => {
            tree.orphans.push(Span {
                id: span_id(pos, ev.machine, kind, ev.op),
                parent: 0,
                kind,
                machine: ev.machine,
                op: ev.op,
                start_ns: ev.t_ns,
                end_ns: ev.t_ns,
                attempts: 1,
                label,
                detail,
            });
        }
    }
}

/// Renders one step tree as an indented text block. `ops` maps operator
/// ids to display names (see [`crate::engine::OpStats`] ordering — index
/// = op id); pass an empty slice to print raw ids.
pub fn render_tree(tree: &StepTree, op_names: &[String]) -> String {
    let mut children: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in tree.spans.iter().skip(1) {
        children.entry(s.parent).or_default().push(s);
    }
    let mut out = format!(
        "step {} (block {}{})\n",
        tree.step,
        tree.block,
        if tree.decided { "" } else { ", unconditional" }
    );
    if let Some(root) = tree.spans.first() {
        render_span(
            root,
            &children,
            op_names,
            1,
            tree.spans[0].start_ns,
            &mut out,
        );
    }
    for orphan in &tree.orphans {
        out.push_str(&format!("  ORPHAN {} {}\n", orphan.label, orphan.detail));
    }
    out
}

fn render_span(
    span: &Span,
    children: &HashMap<u64, Vec<&Span>>,
    op_names: &[String],
    depth: usize,
    t0: u64,
    out: &mut String,
) {
    let indent = "  ".repeat(depth);
    let dur = span.end_ns.saturating_sub(span.start_ns);
    let mut line = format!(
        "{indent}{} +{}",
        span.label,
        fmt_ns(span.start_ns.saturating_sub(t0)),
    );
    if dur > 0 {
        line.push_str(&format!(" ({})", fmt_ns(dur)));
    }
    if span.attempts > 1 {
        line.push_str(&format!(" [attempts={}]", span.attempts));
    }
    if span.op != OP_NONE {
        if let Some(name) = op_names.get(span.op as usize) {
            line.push_str(&format!(" `{name}`"));
        }
    }
    if !span.detail.is_empty() {
        line.push_str(&format!(" {}", span.detail));
    }
    line.push('\n');
    out.push_str(&line);
    if let Some(kids) = children.get(&span.id) {
        for kid in kids {
            render_span(kid, children, op_names, depth + 1, t0, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_deterministic_and_nonzero() {
        let a = span_id(0, 0, SpanKind::Decide, 0);
        let b = span_id(0, 0, SpanKind::Decide, 0);
        assert_eq!(a, b);
        assert_ne!(a, 0);
        // Distinct coordinates → distinct ids (spot check the axes).
        assert_ne!(span_id(1, 0, SpanKind::Decide, 0), a);
        assert_ne!(span_id(0, 1, SpanKind::Decide, 0), a);
        assert_ne!(span_id(0, 0, SpanKind::Recv, 0), a);
        assert_ne!(span_id(0, 0, SpanKind::Decide, 1), a);
    }

    #[test]
    fn shape_is_stable_under_span_reordering() {
        let mk = |label: &str, id, parent| Span {
            id,
            parent,
            kind: SpanKind::Exec,
            machine: 0,
            op: 0,
            start_ns: 0,
            end_ns: 0,
            attempts: 1,
            label: label.into(),
            detail: String::new(),
        };
        let t1 = StepTree {
            step: 0,
            block: 0,
            decided: true,
            spans: vec![mk("root", 1, 0), mk("a", 2, 1), mk("b", 3, 1)],
            orphans: vec![],
        };
        let mut t2 = t1.clone();
        t2.spans.swap(1, 2);
        assert_eq!(t1.shape(), t2.shape());
        // Attempts/details never affect the shape.
        let mut t3 = t1.clone();
        t3.spans[1].attempts = 5;
        t3.spans[1].detail = "attempts=5".into();
        assert_eq!(t1.shape(), t3.shape());
    }
}
