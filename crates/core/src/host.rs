//! The **bag operator host** (Sec. 5): wraps one physical operator instance
//! and implements the coordination logic from the operator's side —
//! output-bag scheduling, input-bag selection, element buffering and
//! separation by bag identifier, conditional-output sending, input-bag
//! garbage collection, loop pipelining, and loop-invariant hoisting.
//!
//! A host is a pure state machine: the worker feeds it path appends and
//! data/punctuation messages; it emits messages through [`HostOut`]. This
//! keeps it driver-agnostic (simulator or threads) and unit-testable.

use crate::graph::{EdgeId, NodeKind, OpId, Partitioning};
use crate::obs::live::{Live, OpCell, WorkerCell};
use crate::obs::mem::MemClass;
use crate::obs::{EventKind, InputRule, ObsBuf};
use crate::path::{ExecutionPath, SendDecision};
use crate::rt::{EngineShared, Msg, Net, RuntimeError, OUTPUT_PREFIX};
use crate::template::{
    self, HintStep, SelSlot, SelectionRecord, SendHint, SendStatus, TemplateCache,
};
use mitos_ir::kernel;
use mitos_ir::BlockId;
use mitos_lang::expr::eval;
use mitos_lang::{Batch, Value};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Sink for everything a host emits while handling one event.
pub struct HostOut<'a> {
    /// Message transport (also the CPU-charge sink).
    pub net: &'a mut dyn Net,
    /// Control-flow decisions made by condition nodes (the worker applies
    /// them locally and broadcasts them).
    pub decisions: &'a mut Vec<(u32, BlockId)>,
    /// Path positions whose bag this host finished (non-pipelined mode).
    pub computed: &'a mut Vec<u32>,
    /// Observability recording buffer (no-op at [`crate::obs::ObsLevel::Off`]).
    pub obs: &'a mut ObsBuf,
}

/// One buffered input bag: elements received so far, appended batch by
/// batch as they arrive, plus completion tracking. Completion is robust to
/// data/punctuation reordering: the bag is complete when every sender's
/// end-of-bag arrived *and* all announced elements are here.
#[derive(Default)]
struct InBuf {
    elems: Batch,
    done_senders: u16,
    announced_total: u64,
}

impl InBuf {
    fn complete(&self, expected_senders: u16) -> bool {
        self.done_senders == expected_senders && self.elems.len() as u64 == self.announced_total
    }
}

/// Per-logical-input state: buffered bags keyed by bag-identifier length.
struct InputState {
    bufs: HashMap<u32, InBuf>,
    expected_senders: u16,
}

/// Operator-specific state for the active output bag: the incremental
/// states of [`kernel`], which own every per-element loop of the keyed
/// operators. `Build` and `CrossRight` are also what the hoist cache keeps
/// across output bags (Sec. 5.3).
enum OpState {
    Simple,
    Build(kernel::JoinTable),
    /// The collected side of a cross; `bytes` is its
    /// [`Batch::estimated_bytes`].
    CrossRight {
        right: Vec<Value>,
        bytes: u64,
    },
    Agg(kernel::KeyedFold),
    Fold(kernel::Fold),
    Distinct(kernel::DedupSet),
}

impl OpState {
    /// `(elements, bytes)` of hoistable build state, as recorded when it
    /// was built — charging and crediting the hoist cache walks nothing.
    fn residency(&self) -> (u64, u64) {
        match self {
            OpState::Build(table) => table.residency(),
            OpState::CrossRight { right, bytes } => (right.len() as u64, *bytes),
            _ => (0, 0),
        }
    }
}

/// Send state of one produced bag on one outgoing logical edge.
enum EdgeSend {
    /// Decided (or immediate): elements flow as produced; counts per
    /// destination instance accumulate for the end-of-bag punctuation.
    /// Produced batches coalesce in `pending` (per destination) until a
    /// full `cost.batch_elems` chunk is ready or the bag finalizes, so one
    /// network message carries one full batch regardless of how finely the
    /// producer's input happened to be chunked. Pending elements are not
    /// charged to the residency registry: they are in flight to the wire
    /// within the same step, exactly like the per-emit sends they replace.
    Streaming {
        counts: Vec<u32>,
        pending: Vec<Batch>,
        done_sent: bool,
    },
    /// Waiting for the path to prove the consumer will run (5.2.4).
    /// `opened_ns` (recorded only when observability is on) feeds the
    /// open→decision latency histogram. `hint` is a template-replay hint
    /// (the resolution slice recorded by an earlier traversal of the same
    /// path suffix): when present, the watcher verifies it incrementally
    /// instead of re-scanning, falling back to [`crate::path::PathRules::decide_send`]
    /// on divergence.
    Undecided {
        cursor: u32,
        buffer: Batch,
        opened_ns: u64,
        hint: Option<SendHint>,
    },
    /// The consumer will never select this bag.
    Dropped,
}

impl EdgeSend {
    /// A send state that streams on `edge` from now on, nothing sent yet.
    fn streaming(shared: &EngineShared, edge: EdgeId) -> EdgeSend {
        let dst = shared.graph.edges[edge as usize].dst;
        let dst_n = shared.graph.instances(dst, shared.machines) as usize;
        EdgeSend::Streaming {
            counts: vec![0; dst_n],
            pending: vec![Batch::new(); dst_n],
            done_sent: false,
        }
    }
}

/// A produced (possibly still in-flight) output bag.
struct OutBag {
    edges: Vec<EdgeSend>,
    finalized: bool,
}

impl OutBag {
    /// The produced bag of identifier length `bag_len` of operator `name`.
    fn get<'a>(
        outbags: &'a mut HashMap<u32, OutBag>,
        name: &str,
        bag_len: u32,
    ) -> Result<&'a mut OutBag, RuntimeError> {
        outbags.get_mut(&bag_len).ok_or_else(|| {
            RuntimeError::new(format!("`{name}` has no output bag of len {bag_len}"))
        })
    }

    fn retired(&self) -> bool {
        self.finalized
            && self.edges.iter().all(|e| match e {
                EdgeSend::Streaming { done_sent, .. } => *done_sent,
                EdgeSend::Dropped => true,
                EdgeSend::Undecided { .. } => false,
            })
    }
}

/// The output bag currently being computed.
struct Active {
    pos: u32,
    len: u32,
    /// Selected input bag length per logical input (`None` = unused Φ input).
    sel: Vec<Option<u32>>,
    /// Elements of each input already processed.
    consumed: Vec<usize>,
    /// Gating inputs not yet fully collected.
    gates_left: usize,
    /// Whether each gating input has been gate-processed.
    gate_done: Vec<bool>,
    /// Collected captured scalar values (indexed by captured slot).
    captured: Vec<Value>,
    state: OpState,
    write_name: Option<String>,
    /// Whether a source-like operator (Singleton/LiteralBag) has emitted.
    sources_emitted: bool,
    /// Elements read from disk by a read-headed fused chain, parked until
    /// every captured-scalar gate of the later stages is satisfied (the
    /// disk can finish before the scalars arrive).
    read_elems: Option<Batch>,
}

/// A bag operator host: one physical instance of one logical operator.
pub struct Host {
    shared: Arc<EngineShared>,
    op: OpId,
    inst: u16,
    n_inst: u16,
    /// The machine this instance is placed on (cached for telemetry).
    machine: u16,
    block: BlockId,
    /// Shared so that handling a message clones a pointer, not the
    /// operator's expression trees.
    kind: Arc<NodeKind>,
    name: Arc<str>,
    condition: Option<crate::graph::CondInfo>,
    /// Edge ids feeding this node, ordered by input index.
    in_edges: Vec<EdgeId>,
    /// Outgoing edge ids.
    out_edge_ids: Vec<EdgeId>,
    /// Gating (collect-before-stream) flags per input.
    gating: Vec<bool>,
    /// Number of data inputs (captured scalars come after).
    data_arity: usize,
    pending_outputs: VecDeque<u32>,
    current: Option<Active>,
    inputs: Vec<InputState>,
    /// Hoist cache (Sec. 5.3): the hoisted input's selected bag length and
    /// the build state made from it.
    kept: Option<(u32, OpState)>,
    outbags: HashMap<u32, OutBag>,
    /// Barrier watermark: positions `<= frontier` may start (non-pipelined).
    released_frontier: u32,
    /// Elements read from disk, waiting for the simulated I/O delay.
    pending_io: Option<Batch>,
    /// Execution-template cache (see [`crate::template`]); `None` when
    /// templates are disabled (by config, or by decision withholding,
    /// whose whole point is perturbing the control plane).
    templates: Option<TemplateCache>,
    /// Bags whose conditional-send resolutions should be filled into a
    /// template: bag identifier length → template id. Entries are removed
    /// when the out-bag retires.
    recording_sends: HashMap<u32, u64>,
}

impl Host {
    /// Creates the host for instance `inst` of `op`.
    pub fn new(shared: Arc<EngineShared>, op: OpId, inst: u16) -> Host {
        let node = &shared.graph.nodes[op as usize];
        let n_inst = shared.graph.instances(op, shared.machines);
        let mut in_edges = vec![u32::MAX; node.inputs.len()];
        for (i, e) in shared.graph.edges.iter().enumerate() {
            if e.dst == op {
                in_edges[e.dst_input] = i as EdgeId;
            }
        }
        debug_assert!(in_edges.iter().all(|&e| e != u32::MAX));
        let out_edge_ids = shared.graph.out_edges[op as usize].clone();
        let gating = gating_flags(&node.kind, node.inputs.len());
        // The host's notion of arity: inputs below it are handled by
        // operator-specific gate/stream logic, the rest are captured
        // scalars. ReadFile's name is operator-specific even though it has
        // no data input in the planner's sense.
        let data_arity = match node.kind {
            NodeKind::Phi => node.inputs.len(),
            NodeKind::Singleton { .. } | NodeKind::LiteralBag { .. } => 0,
            NodeKind::ReadFile => 1,
            _ => node.kind.data_arity().min(node.inputs.len()),
        };
        let inputs = in_edges
            .iter()
            .map(|&e| InputState {
                bufs: HashMap::new(),
                expected_senders: shared.graph.senders_per_dst(e, shared.machines),
            })
            .collect();
        let released_frontier = if shared.config.pipelined { u32::MAX } else { 0 };
        let machine = shared.graph.placement(op, inst);
        let templates = (shared.config.templates && !shared.config.faults.withhold_decisions)
            .then(TemplateCache::new);
        Host {
            block: node.block,
            kind: Arc::new(node.kind.clone()),
            name: node.name.clone(),
            condition: node.condition,
            shared,
            op,
            inst,
            n_inst,
            machine,
            in_edges,
            out_edge_ids,
            gating,
            data_arity,
            pending_outputs: VecDeque::new(),
            current: None,
            inputs,
            kept: None,
            outbags: HashMap::new(),
            released_frontier,
            pending_io: None,
            templates,
            recording_sends: HashMap::new(),
        }
    }

    /// Adds `n` to this operator's live `cell` on this machine.
    fn count(&self, cell: OpCell, n: u64) {
        self.shared
            .telemetry
            .add(self.machine, Live::Op(self.op, cell), n);
    }

    /// The path gained block `block` at position `pos`.
    pub fn on_path_append(
        &mut self,
        pos: u32,
        block: BlockId,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        if block == self.block {
            self.pending_outputs.push_back(pos);
        }
        self.advance_watchers(path, out)?;
        self.progress(path, out)
    }

    /// The path will never be extended again.
    pub fn on_exit(&mut self, path: &ExecutionPath, out: &mut HostOut) -> Result<(), RuntimeError> {
        self.advance_watchers(path, out)?;
        self.progress(path, out)
    }

    /// The barrier released positions up to `pos` (non-pipelined mode).
    pub fn on_release(
        &mut self,
        pos: u32,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        self.released_frontier = self.released_frontier.max(pos);
        self.progress(path, out)
    }

    /// Data arrived on an input edge: the batch is appended to its bag's
    /// buffer as it is. Residency accounting stays on the in-memory
    /// [`Batch::estimated_bytes`] estimate (the sum of the elements'
    /// [`Value::estimated_bytes`]); only wire accounting uses encoded sizes.
    pub fn on_data(
        &mut self,
        edge: EdgeId,
        bag_len: u32,
        batch: Batch,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let input = self.shared.graph.edges[edge as usize].dst_input;
        let is_new = !self.inputs[input].bufs.contains_key(&bag_len);
        self.shared.mem.charge(
            MemClass::AwaitingInputs,
            self.machine,
            self.op,
            is_new as u64,
            batch.len() as u64,
            batch.estimated_bytes(),
        );
        let buf = self.inputs[input].bufs.entry(bag_len).or_default();
        buf.elems.append(batch);
        self.progress(path, out)
    }

    /// End-of-bag punctuation arrived on an input edge.
    pub fn on_done(
        &mut self,
        edge: EdgeId,
        bag_len: u32,
        count: u32,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let input = self.shared.graph.edges[edge as usize].dst_input;
        let expected = self.inputs[input].expected_senders;
        if !self.inputs[input].bufs.contains_key(&bag_len) {
            // Punctuation can open the buffer before any data: one live
            // (still-empty) bag becomes resident.
            self.shared
                .mem
                .charge(MemClass::AwaitingInputs, self.machine, self.op, 1, 0, 0);
        }
        let buf = self.inputs[input].bufs.entry(bag_len).or_default();
        buf.done_senders += 1;
        buf.announced_total += count as u64;
        if buf.done_senders > expected {
            let got = buf.done_senders;
            return Err(RuntimeError::new(format!(
                "input {input} of `{}` got {got} end-of-bag punctuations for \
                 bag len {bag_len}, expected {expected}",
                self.name
            )));
        }
        self.progress(path, out)
    }

    /// The simulated disk finished a read for this host.
    pub fn on_io_done(
        &mut self,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let elems = self
            .pending_io
            .take()
            .ok_or_else(|| RuntimeError::new("IoDone without a pending read".to_string()))?;
        let bag_len = {
            let active = self
                .current
                .as_mut()
                .ok_or_else(|| RuntimeError::new("IoDone without an active bag".to_string()))?;
            active.gate_done[0] = true;
            active.gates_left -= 1;
            active.len
        };
        out.obs.record(
            out.net,
            self.op,
            EventKind::IoFinished {
                bag_len,
                count: elems.len() as u64,
            },
        );
        if matches!(*self.kind, NodeKind::Fused { .. }) {
            // A read-headed fused chain parks the raw elements until every
            // later stage's captured-scalar gate is satisfied; they flow
            // through the chain in `emit_sources`.
            self.current.as_mut().expect("active").read_elems = Some(elems);
        } else {
            self.emit_all(elems, out)?;
        }
        self.progress(path, out)
    }

    /// Whether this host has nothing scheduled and nothing in flight
    /// (termination detection for the threaded driver).
    pub fn idle(&self) -> bool {
        self.current.is_none() && self.pending_outputs.is_empty() && self.outbags.is_empty()
    }

    /// Introspects a non-idle host for the stall watchdog: what the active
    /// bag is waiting for (first unsatisfied input, barrier release, or a
    /// disk read) and which conditional-send watchers are still pending.
    /// Returns [`None`] when the host is idle.
    pub fn stall_info(&self) -> Option<crate::obs::watchdog::OpStall> {
        use crate::obs::watchdog::{Awaited, OpStall};
        if self.idle() {
            return None;
        }
        let mut pending_watchers: Vec<(EdgeId, u32)> = Vec::new();
        for (&len, bag) in &self.outbags {
            for (ei, e) in bag.edges.iter().enumerate() {
                if matches!(e, EdgeSend::Undecided { .. }) {
                    pending_watchers.push((self.out_edge_ids[ei], len));
                }
            }
        }
        pending_watchers.sort_unstable();
        let awaited = if self.pending_io.is_some() {
            Some(Awaited::DiskRead)
        } else if let Some(active) = &self.current {
            let mut found = None;
            for (i, sel) in active.sel.iter().enumerate() {
                let Some(sel_len) = *sel else { continue };
                let st = &self.inputs[i];
                let (received, announced, done_senders) = match st.bufs.get(&sel_len) {
                    Some(b) => (b.elems.len() as u64, b.announced_total, b.done_senders),
                    None => (0, 0, 0),
                };
                let satisfied = if self.gating[i] {
                    active.gate_done[i]
                } else {
                    done_senders == st.expected_senders
                        && received == announced
                        && active.consumed[i] as u64 == received
                };
                if !satisfied {
                    found = Some(Awaited::InputBag {
                        input: i as u32,
                        edge: self.in_edges[i],
                        bag_len: sel_len,
                        received,
                        announced,
                        done_senders,
                        expected_senders: st.expected_senders,
                    });
                    break;
                }
            }
            found
        } else if let Some(&pos) = self.pending_outputs.front() {
            (!self.shared.config.pipelined && pos > self.released_frontier)
                .then_some(Awaited::BarrierRelease { pos })
        } else {
            None
        };
        Some(OpStall {
            op: self.op,
            name: self.name.to_string(),
            block: self.block,
            bag_len: self.current.as_ref().map(|a| a.len),
            awaited,
            pending_watchers,
        })
    }

    // --- Memory accounting ------------------------------------------------

    /// Garbage-collects buffered input bags with identifier length below
    /// `keep`, crediting the freed residency. An associated function so
    /// call sites can hold a mutable borrow of one input while reading the
    /// registry.
    fn gc_input(
        state: &mut InputState,
        keep: u32,
        mem: &crate::obs::mem::MemRegistry,
        machine: u16,
        op: OpId,
    ) {
        let (mut bags, mut elems, mut bytes) = (0u64, 0u64, 0u64);
        state.bufs.retain(|&l, b| {
            if l >= keep {
                true
            } else {
                bags += 1;
                elems += b.elems.len() as u64;
                bytes += b.elems.estimated_bytes();
                false
            }
        });
        if bags > 0 {
            mem.credit(MemClass::AwaitingInputs, machine, op, bags, elems, bytes);
        }
    }

    /// End-of-run input-buffer GC: once the path has exited and this host
    /// is fully idle, no future occurrence can select a buffered input bag
    /// (selection candidates only come from path appends), so everything
    /// still buffered — kept during the run for potential re-selection — is
    /// released. Late in-flight arrivals re-enter via `progress`, which runs
    /// the sweep again.
    fn exit_gc(&mut self) {
        for state in &mut self.inputs {
            let (mut bags, mut elems, mut bytes) = (0u64, 0u64, 0u64);
            for b in state.bufs.values() {
                bags += 1;
                elems += b.elems.len() as u64;
                bytes += b.elems.estimated_bytes();
            }
            if bags > 0 {
                state.bufs.clear();
                self.shared.mem.credit(
                    MemClass::AwaitingInputs,
                    self.machine,
                    self.op,
                    bags,
                    elems,
                    bytes,
                );
            }
        }
    }

    // --- Scheduling -------------------------------------------------------

    /// Works through pending output bags as far as data allows, then (when
    /// the run is over for this host) sweeps the input buffers.
    fn progress(&mut self, path: &ExecutionPath, out: &mut HostOut) -> Result<(), RuntimeError> {
        self.progress_inner(path, out)?;
        if path.exited() && self.idle() {
            self.exit_gc();
        }
        Ok(())
    }

    /// Works through pending output bags as far as data allows.
    fn progress_inner(
        &mut self,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        loop {
            if self.current.is_none() {
                let Some(&pos) = self.pending_outputs.front() else {
                    return Ok(());
                };
                if !self.shared.config.pipelined && pos > self.released_frontier {
                    return Ok(()); // superstep barrier
                }
                self.pending_outputs.pop_front();
                self.start_bag(pos, path, out)?;
                // The path may already extend past this occurrence
                // (pipelining): resolve what can be resolved right away.
                self.advance_watchers(path, out)?;
            }
            // Feed the active bag from whatever is buffered: first satisfy
            // gates, then emit sources, then drain streams.
            let n = self.inputs.len();
            for i in 0..n {
                self.try_gate(i, out)?;
            }
            if self.active_ready_to_stream() {
                if !self.current.as_ref().expect("active").sources_emitted {
                    self.current.as_mut().expect("active").sources_emitted = true;
                    self.emit_sources(out)?;
                }
                for i in 0..n {
                    if !self.gating[i] {
                        self.drain_stream(i, out)?;
                    }
                }
            }
            if !self.try_finalize(out)? {
                return Ok(());
            }
        }
    }

    fn active_ready_to_stream(&self) -> bool {
        self.current.as_ref().is_some_and(|a| a.gates_left == 0)
    }

    /// Starts the output bag for the occurrence at `pos`: selects input
    /// bags (5.2.3), garbage-collects superseded buffers, consults the
    /// hoisting cache, and initializes operator state.
    ///
    /// Stream-order invariant: `BagOpened` is recorded *before* any of
    /// this bag's `InputSelected`/`HoistHit` events, and the bag's
    /// `BagFinalized` after all of them — the span layer
    /// ([`crate::obs::span`]) associates those children with "the bag
    /// this `(machine, op)` has open right now", so the per-machine
    /// record order is load-bearing. (`SendResolved` is exempt: a
    /// conditional send may resolve after the bag closed, so it carries
    /// its own bag identifier instead.)
    fn start_bag(
        &mut self,
        pos: u32,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let len = pos + 1;
        self.count(OpCell::BagsStarted, 1);
        out.obs
            .record(out.net, self.op, EventKind::BagOpened { pos, bag_len: len });
        let is_phi = matches!(*self.kind, NodeKind::Phi);
        let n_inputs = self.in_edges.len();
        let mut sel: Vec<Option<u32>> = Vec::with_capacity(n_inputs);
        // Template lookup: a cached traversal of the same path suffix
        // replays the recorded selections in O(window) instead of
        // re-scanning the path — emitting the identical events and running
        // the identical GC, so results cannot differ (see
        // [`crate::template`] for the window soundness argument).
        let mut template_id = None;
        let mut send_hints: Vec<Option<SendHint>> = Vec::new();
        let mut replayed: Option<SelectionRecord> = None;
        if let Some(t) = self
            .templates
            .as_mut()
            .and_then(|c| c.lookup(path.blocks(), len))
            // A Φ template always records its winner; one that did not is
            // not replayed.
            .filter(|t| !is_phi || t.selection.phi_winner.is_some())
        {
            template_id = Some(t.id);
            send_hints = t
                .sends
                .iter()
                .map(|s| match s {
                    SendStatus::Recorded { slice, sent } => Some(SendHint {
                        slice: slice.clone(),
                        sent: *sent,
                        verified: 0,
                    }),
                    _ => None,
                })
                .collect();
            replayed = Some(t.selection.clone());
            // One suffix-key comparison replaces every selection scan.
            out.net.charge(self.shared.config.cost.replay_cost());
        }
        if self.templates.is_some() {
            let cell = match replayed {
                Some(_) => WorkerCell::TemplateHits,
                None => WorkerCell::TemplateMisses,
            };
            self.shared.telemetry.bump(self.machine, cell);
        }
        // Selection data collected on the slow path for recording.
        let mut rec_phi: Option<(usize, u32)> = None;
        let mut rec_inputs: Vec<SelSlot> = Vec::new();
        // What the retain-GC below keeps on *every* input: a Φ's buffered
        // bags older than the winner can never be selected again (candidate
        // prefixes grow monotonically). Other operators keep per input.
        let mut keep_all = None;
        if is_phi {
            let (win_idx, win_len) = match replayed.and_then(|r| r.phi_winner) {
                Some((win_idx, delta)) => (win_idx, len - delta),
                None => {
                    // Φ choice: the input whose producing block occurred latest.
                    let mut best: Option<(u32, usize)> = None;
                    for (i, &e) in self.in_edges.iter().enumerate() {
                        let c = self.shared.rules.select_input_len(e, path, pos);
                        // The backward scan walked from this occurrence down to
                        // the candidate's producer (or the whole prefix on a miss).
                        out.net.charge(
                            self.shared
                                .config
                                .cost
                                .scan_cost(u64::from(c.map_or(len, |l| len - l + 1))),
                        );
                        if let Some(l) = c {
                            match best {
                                Some((bl, _)) if bl >= l => {}
                                _ => best = Some((l, i)),
                            }
                        }
                    }
                    let (win_len, win_idx) = best.ok_or_else(|| {
                        RuntimeError::new(format!(
                            "phi `{}` has no available input at path position {pos}",
                            self.name
                        ))
                    })?;
                    rec_phi = Some((win_idx, len - win_len));
                    (win_idx, win_len)
                }
            };
            sel.extend((0..n_inputs).map(|i| (i == win_idx).then_some(win_len)));
            self.record_input_selected(self.in_edges[win_idx], win_len, len, out);
            keep_all = Some(win_len);
        } else {
            for (i, &e) in self.in_edges.iter().enumerate() {
                let l = match &replayed {
                    Some(r) => r.inputs[i].selected(len),
                    None => {
                        let l = self
                            .shared
                            .rules
                            .select_input_len(e, path, pos)
                            .ok_or_else(|| {
                                RuntimeError::new(format!(
                                    "input {i} of `{}` has no producer occurrence before \
                                     path position {pos} (invalid SSA?)",
                                    self.name
                                ))
                            })?;
                        // The backward scan examined every block between this
                        // occurrence and the selected producer occurrence.
                        out.net
                            .charge(self.shared.config.cost.scan_cost(u64::from(len - l + 1)));
                        // Loop-invariant producers (block in no loop → at most
                        // one occurrence per run) record their selection
                        // absolutely; everything else records a
                        // window-bounded delta.
                        let delta = len - l;
                        rec_inputs.push(
                            if (delta as usize) > template::WINDOW
                                && self.shared.rules.edges[e as usize].once
                            {
                                SelSlot::Absolute(l)
                            } else {
                                SelSlot::Delta(delta)
                            },
                        );
                        l
                    }
                };
                self.record_input_selected(e, l, len, out);
                sel.push(Some(l));
            }
        }
        for (state, own) in self.inputs.iter_mut().zip(&sel) {
            if let Some(keep) = keep_all.or(*own) {
                Self::gc_input(state, keep, &self.shared.mem, self.machine, self.op);
            }
        }

        // Loop-invariant hoisting: reuse kept build state if the hoisted
        // input's selected bag is unchanged (Sec. 5.3).
        let hoist_input = hoistable_input(&self.kind);
        let mut state = init_state(&self.kind);
        let mut reused = false;
        if let Some((bag_len, kept)) = self.kept.take() {
            // The entry leaves the cache either way: its residency becomes
            // the active bag's working state (re-charged as cache at
            // finalize), or the selection changed and it is dropped.
            let (elems, bytes) = kept.residency();
            self.shared
                .mem
                .credit(MemClass::HoistCache, self.machine, self.op, 1, elems, bytes);
            if hoist_input.is_some_and(|i| sel[i] == Some(bag_len)) {
                state = kept;
                reused = true;
                self.count(OpCell::HoistHits, 1);
                out.obs
                    .record(out.net, self.op, EventKind::HoistHit { pos, bag_len });
            }
        }

        // Record the slow-path traversal as a template, or — on replay —
        // reconcile the recorded hoist verdict with the live recomputation
        // (the hoist cache's contents are not path-determined, so replay
        // always trusts the live O(1) check; a disagreement counts as an
        // invalidation).
        let n_out_edges = self.out_edge_ids.len();
        if let Some(cache) = self.templates.as_mut() {
            match template_id {
                Some(id) => {
                    if cache.note_hoist(id, reused) {
                        self.shared
                            .telemetry
                            .bump(self.machine, WorkerCell::TemplateInvalidations);
                    }
                }
                None => {
                    template_id = cache.record(
                        path.blocks(),
                        len,
                        SelectionRecord {
                            phi_winner: rec_phi,
                            inputs: rec_inputs,
                            hoist_hit: reused,
                        },
                        n_out_edges,
                    );
                }
            }
        }

        // Gating bookkeeping; a reused hoisted input's gate is pre-satisfied.
        let mut gates_left = 0;
        let mut gate_done = vec![false; n_inputs];
        for (i, &g) in self.gating.iter().enumerate() {
            if !g || sel[i].is_none() || (reused && hoist_input == Some(i)) {
                gate_done[i] = true;
            } else {
                gates_left += 1;
            }
        }

        let n_captured = n_inputs.saturating_sub(self.data_arity);
        self.current = Some(Active {
            pos,
            len,
            sel,
            consumed: vec![0; n_inputs],
            gates_left,
            gate_done,
            captured: vec![Value::Unit; n_captured],
            state,
            write_name: None,
            sources_emitted: false,
            read_elems: None,
        });

        // Register the out-bag with per-edge send decisions.
        let mut edges = Vec::with_capacity(self.out_edge_ids.len());
        for (ei, &e) in self.out_edge_ids.iter().enumerate() {
            if self.shared.rules.edges[e as usize].immediate {
                edges.push(EdgeSend::streaming(&self.shared, e));
            } else {
                // The clock is only consulted when tracing records latency.
                let opened_ns = if out.obs.tracing() {
                    out.net.now_ns()
                } else {
                    0
                };
                // One conditionally-sent bag is now resident until the path
                // proves (or refutes) that its consumer runs.
                self.shared
                    .mem
                    .charge(MemClass::AwaitingBarrier, self.machine, self.op, 1, 0, 0);
                edges.push(EdgeSend::Undecided {
                    cursor: len,
                    buffer: Batch::new(),
                    opened_ns,
                    hint: send_hints.get(ei).and_then(Clone::clone),
                });
            }
        }
        self.outbags.insert(
            len,
            OutBag {
                edges,
                finalized: false,
            },
        );
        // Slow-path send resolutions of this bag fill into its template
        // (a hit traversal can also fill entries still unrecorded).
        if let Some(id) = template_id {
            self.recording_sends.insert(len, id);
        }
        Ok(())
    }

    /// Records which bag of input `edge` the bag of identifier length
    /// `len` selected, and by which prefix rule (5.2.3): the Φ choice, a
    /// same-block producer earlier in this very occurrence, or the latest
    /// earlier occurrence of the producing block.
    fn record_input_selected(&self, edge: EdgeId, bag_len: u32, len: u32, out: &mut HostOut) {
        if !out.obs.enabled() {
            return;
        }
        let r = &self.shared.rules.edges[edge as usize];
        let rule = if matches!(*self.kind, NodeKind::Phi) {
            InputRule::PhiLatest
        } else if r.src_block == r.dst_block && r.src_stmt < r.dst_stmt && bag_len == len {
            InputRule::SameBlock
        } else {
            InputRule::LatestOccurrence
        };
        out.obs.record(
            out.net,
            self.op,
            EventKind::InputSelected {
                edge,
                bag_len,
                rule,
            },
        );
    }

    // --- Input consumption ------------------------------------------------

    /// Gate-processes input `i` if it is a still-pending gate whose selected
    /// bag is complete.
    fn try_gate(&mut self, input: usize, out: &mut HostOut) -> Result<(), RuntimeError> {
        let Some(active) = &self.current else {
            return Ok(());
        };
        if !self.gating[input] || active.gate_done[input] {
            return Ok(());
        }
        let Some(sel_len) = active.sel[input] else {
            return Ok(());
        };
        let expected = self.inputs[input].expected_senders;
        let complete = self.inputs[input]
            .bufs
            .get(&sel_len)
            .is_some_and(|b| b.complete(expected));
        if !complete {
            return Ok(());
        }
        if self.pending_io.is_some() {
            return Ok(()); // disk read already in flight for this gate
        }
        self.process_gate(input, sel_len, out)
    }

    /// Consumes a completed gating input.
    fn process_gate(
        &mut self,
        input: usize,
        sel_len: u32,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let cost = self.shared.config.cost;
        let Some(InBuf { elems, .. }) = self.inputs[input].bufs.get(&sel_len) else {
            let name = &self.name;
            let what = format!("`{name}` has no bag of len {sel_len} on gating input {input}");
            return Err(RuntimeError::new(what));
        };
        if input >= self.data_arity {
            // Captured scalar: exactly one element.
            let v = single(elems, || {
                format!("captured scalar input {input} of `{}`", self.name)
            })?;
            let slot = input - self.data_arity;
            let active = self.current.as_mut().expect("active");
            active.captured[slot] = v;
            active.gate_done[input] = true;
            active.gates_left -= 1;
            return Ok(());
        }
        // The file-name gate of a plain readFile or a read-headed fused
        // chain kicks off the asynchronous partition read; the gate is
        // marked done when the simulated disk answers (`on_io_done`).
        let read_gate = input == 0
            && match &*self.kind {
                NodeKind::ReadFile => true,
                NodeKind::Fused { stages } => matches!(stages[0].kind, NodeKind::ReadFile),
                _ => false,
            };
        if read_gate {
            let name = file_name(&self.name, elems)?;
            let (part, parts) = (self.inst as usize, self.n_inst as usize);
            let fs = &self.shared.fs;
            let elems = through_rows(Batch::new(), |_| {
                fs.read_partition(&name, part, parts)
                    .map_err(|e| RuntimeError::new(e.to_string()))
            })?;
            let bytes = fs.partition_bytes(&name, part, parts).unwrap_or(0);
            // Disk I/O proceeds asynchronously: the CPU pays only a
            // deserialization share now; the data arrives after the
            // disk delay (loop pipelining overlaps this with compute
            // from other iteration steps).
            out.net.charge(cost.elem_cost(elems.len()) / 4);
            let delay = cost.io_cost(bytes);
            debug_assert!(self.pending_io.is_none(), "one read at a time");
            self.pending_io = Some(elems);
            let machine = self.machine;
            out.obs.record(
                out.net,
                self.op,
                EventKind::IoStarted {
                    bag_len: self.current.as_ref().expect("active").len,
                    delay_ns: delay,
                },
            );
            out.net
                .schedule(delay, machine, Msg::IoDone { op: self.op });
            return Ok(());
        }
        let active = self.current.as_mut().expect("active");
        // The buffer stays selectable by later occurrences: build state is
        // made from a copy.
        match (&*self.kind, input) {
            (NodeKind::WriteFile, 1) => {
                let name = file_name(&self.name, elems)?;
                out.net.charge(cost.io.open_latency_ns);
                active.write_name = Some(name);
            }
            (NodeKind::Join, 0) => {
                out.net.charge(cost.insert_cost(elems.len()));
                through_rows(elems.clone(), |rows| {
                    active.state = OpState::Build(kernel::JoinTable::build(rows));
                    Ok(Vec::new())
                })?;
            }
            (NodeKind::Cross, 1) => {
                out.net.charge(cost.elem_cost(elems.len()));
                let bytes = elems.estimated_bytes();
                through_rows(elems.clone(), |right| {
                    active.state = OpState::CrossRight { right, bytes };
                    Ok(Vec::new())
                })?;
            }
            (kind, input) => {
                return Err(RuntimeError::new(format!(
                    "unexpected gating input {input} for {}",
                    kind.mnemonic()
                )))
            }
        }
        active.gate_done[input] = true;
        active.gates_left -= 1;
        Ok(())
    }

    /// Emits the output of source-like operators (Singleton, LiteralBag)
    /// once all captured values are in; announces condition decisions.
    fn emit_sources(&mut self, out: &mut HostOut) -> Result<(), RuntimeError> {
        let cost = self.shared.config.cost;
        let kind = Arc::clone(&self.kind);
        match &*kind {
            NodeKind::Singleton { expr } => {
                let (captured, len) = {
                    let a = self.current.as_ref().expect("active");
                    (a.captured.clone(), a.len)
                };
                out.net.charge(cost.eval_cost(expr.node_count(), 1));
                let v = eval(expr, &captured).map_err(|e| RuntimeError::new(e.message))?;
                if let Some(ci) = self.condition {
                    let b = v.as_bool().ok_or_else(|| {
                        RuntimeError::new(format!(
                            "condition `{}` evaluated to non-bool {v:?}",
                            self.name
                        ))
                    })?;
                    let target = if b { ci.then_blk } else { ci.else_blk };
                    out.decisions.push((len, target));
                }
                let mut one = Batch::new();
                one.push(v);
                self.emit_all(one, out)?;
            }
            NodeKind::LiteralBag { elems } => {
                let captured = self.current.as_ref().expect("active").captured.clone();
                let mut vals = Batch::new();
                for e in elems {
                    out.net.charge(cost.eval_cost(e.node_count(), 1));
                    vals.push(eval(e, &captured).map_err(|e| RuntimeError::new(e.message))?);
                }
                self.emit_all(vals, out)?;
            }
            NodeKind::Fused { .. } => {
                // Read-headed chain: the parked disk elements run through
                // every stage in one pass, now that all gates are in.
                if let Some(elems) = self.current.as_mut().expect("active").read_elems.take() {
                    let produced = self.fused_transform(elems, out)?;
                    self.emit_all(produced, out)?;
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Runs a batch through every stage of a fused chain in one pass,
    /// batch-in/batch-out: each element-wise stage is the shared columnar
    /// kernel ([`kernel::map`] / [`kernel::flat_map`] / [`kernel::filter`]),
    /// so monomorphic runs stream through without per-element enum
    /// dispatch. The per-element traversal base is charged once for the
    /// whole chain (that is fusion's compute win); each stage then pays
    /// only for its own lambda.
    fn fused_transform(
        &mut self,
        mut batch: Batch,
        out: &mut HostOut,
    ) -> Result<Batch, RuntimeError> {
        let kind = Arc::clone(&self.kind);
        let NodeKind::Fused { stages } = &*kind else {
            return Err(RuntimeError::new(
                "fused_transform on non-fused".to_string(),
            ));
        };
        let cost = self.shared.config.cost;
        let captured = self.current.as_ref().expect("active").captured.clone();
        out.net.charge(cost.elem_cost(batch.len()));
        let mut cap_off = 0usize;
        for stage in stages.iter() {
            let caps = &captured[cap_off..cap_off + stage.captured];
            cap_off += stage.captured;
            if batch.is_empty() {
                continue;
            }
            match &stage.kind {
                // The source stage: its elements are already in `batch`.
                NodeKind::ReadFile => {}
                NodeKind::Map { expr } => {
                    out.net
                        .charge(cost.fused_expr_cost(expr.node_count(), batch.len()));
                    batch = kernel::map(expr, caps, &batch)
                        .map_err(|e| RuntimeError::new(e.message))?;
                }
                NodeKind::FlatMap { expr } => {
                    out.net
                        .charge(cost.fused_expr_cost(expr.node_count(), batch.len()));
                    batch = kernel::flat_map(expr, caps, &batch)
                        .map_err(|e| RuntimeError::new(e.message))?;
                }
                NodeKind::Filter { expr } => {
                    out.net
                        .charge(cost.fused_expr_cost(expr.node_count(), batch.len()));
                    batch = kernel::filter(expr, caps, &batch)
                        .map_err(|e| RuntimeError::new(e.message))?;
                }
                NodeKind::Alias | NodeKind::Phi => {}
                other => {
                    return Err(RuntimeError::new(format!(
                        "operator {} cannot be a fused stage",
                        other.mnemonic()
                    )))
                }
            }
        }
        Ok(batch)
    }

    /// Hands the whole unconsumed stretch of a stream input to the
    /// operator as one batch (a copy: the buffer stays selectable by later
    /// occurrences).
    fn drain_stream(&mut self, input: usize, out: &mut HostOut) -> Result<(), RuntimeError> {
        let (sel_len, start) = {
            let active = self.current.as_ref().expect("active");
            let Some(sel_len) = active.sel[input] else {
                return Ok(());
            };
            (sel_len, active.consumed[input])
        };
        let batch = {
            let Some(buf) = self.inputs[input].bufs.get(&sel_len) else {
                return Ok(());
            };
            if start >= buf.elems.len() {
                return Ok(());
            }
            buf.elems.tail(start)
        };
        self.current.as_mut().expect("active").consumed[input] = start + batch.len();
        self.process_stream(input, batch, out)
    }

    /// Feeds newly arrived stream elements to the operator: charges their
    /// cost, runs the kernel, and emits what it produces right away.
    fn process_stream(
        &mut self,
        input: usize,
        batch: Batch,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let kind = Arc::clone(&self.kind);
        let cost = self.shared.config.cost;
        let n = batch.len();
        let active = self.current.as_mut().expect("active");
        let captured = &active.captured;
        let kernel_err = |e: kernel::KernelError| RuntimeError::new(e.message);
        let produced = match (&*kind, &mut active.state) {
            // The element-wise transforms run through the shared columnar
            // kernels: one layout dispatch per run instead of one enum
            // inspection per element.
            (NodeKind::Map { expr }, _) => {
                out.net.charge(cost.eval_cost(expr.node_count(), n));
                kernel::map(expr, captured, &batch).map_err(kernel_err)?
            }
            (NodeKind::FlatMap { expr }, _) => {
                out.net.charge(cost.eval_cost(expr.node_count(), n));
                kernel::flat_map(expr, captured, &batch).map_err(kernel_err)?
            }
            (NodeKind::Filter { expr }, _) => {
                out.net.charge(cost.eval_cost(expr.node_count(), n));
                kernel::filter(expr, captured, &batch).map_err(kernel_err)?
            }
            (NodeKind::Join, OpState::Build(table)) => {
                debug_assert_eq!(input, 1, "probe side streams");
                out.net.charge(cost.probe_cost(n));
                through_rows(batch, |rows| Ok(table.probe(&rows)))?
            }
            (NodeKind::Cross, OpState::CrossRight { right, .. }) => {
                debug_assert_eq!(input, 0, "left side streams");
                out.net.charge(cost.elem_cost(n * right.len().max(1)));
                through_rows(batch, |rows| Ok(kernel::cross(&rows, right)))?
            }
            (NodeKind::Union | NodeKind::Alias | NodeKind::Phi, _) => {
                out.net.charge(cost.elem_cost(n));
                batch
            }
            // A map-headed fused chain streams its data input through every
            // stage in one pass.
            (NodeKind::Fused { .. }, _) => self.fused_transform(batch, out)?,
            // The blocking aggregations emit at finalize.
            (
                NodeKind::ReduceByKey { expr } | NodeKind::ReduceByKeyLocal { expr },
                OpState::Agg(fold),
            ) => {
                out.net.charge(cost.eval_cost(expr.node_count(), n));
                through_rows(batch, |rows| {
                    fold.push(expr, captured, &rows).map_err(kernel_err)?;
                    Ok(Vec::new())
                })?
            }
            (NodeKind::Reduce { expr, .. }, OpState::Fold(fold)) => {
                out.net.charge(cost.eval_cost(expr.node_count(), n));
                through_rows(batch, |rows| {
                    fold.push(expr, captured, &rows).map_err(kernel_err)?;
                    Ok(Vec::new())
                })?
            }
            (NodeKind::Distinct, OpState::Distinct(seen)) => {
                out.net.charge(cost.insert_cost(n));
                through_rows(batch, |rows| Ok(seen.push(&rows)))?
            }
            (NodeKind::OutputSink { tag }, _) => {
                out.net.charge(cost.elem_cost(n));
                out.obs.record(
                    out.net,
                    self.op,
                    EventKind::SinkWrote {
                        bag_len: active.len,
                        count: n as u64,
                    },
                );
                let fs = &self.shared.fs;
                through_rows(batch, |rows| {
                    fs.append(&format!("{OUTPUT_PREFIX}{tag}"), &rows);
                    Ok(Vec::new())
                })?
            }
            (NodeKind::WriteFile, _) => {
                debug_assert_eq!(input, 0, "data side streams");
                let name = active
                    .write_name
                    .as_ref()
                    .ok_or_else(|| RuntimeError::new("writeFile data before name".to_string()))?;
                out.net.charge(cost.io_stream_cost(batch.estimated_bytes()));
                let fs = &self.shared.fs;
                through_rows(batch, |rows| {
                    fs.append(name, &rows);
                    Ok(Vec::new())
                })?
            }
            // Sources have no stream input, and a keyed operator streams
            // only once the state of its kind is in place.
            (kind, _) => {
                return Err(RuntimeError::new(format!(
                    "operator {} cannot take stream data",
                    kind.mnemonic()
                )))
            }
        };
        self.emit_all(produced, out)
    }

    // --- Finalization -----------------------------------------------------

    /// Finalizes the active bag if every used input is complete and
    /// consumed. Returns whether finalization happened.
    fn try_finalize(&mut self, out: &mut HostOut) -> Result<bool, RuntimeError> {
        {
            let Some(active) = &self.current else {
                return Ok(false);
            };
            if active.gates_left > 0 {
                return Ok(false);
            }
            for (i, sel) in active.sel.iter().enumerate() {
                let Some(sel_len) = sel else { continue };
                if self.gating[i] {
                    continue; // gates already satisfied
                }
                let expected = self.inputs[i].expected_senders;
                match self.inputs[i].bufs.get(sel_len) {
                    Some(buf)
                        if buf.complete(expected) && active.consumed[i] == buf.elems.len() => {}
                    _ => return Ok(false),
                }
            }
        }
        // Final emissions of blocking aggregations.
        let final_emit = match &mut self.current.as_mut().expect("active").state {
            OpState::Agg(fold) => {
                through_rows(Batch::new(), |_| Ok(std::mem::take(fold).finish()))?
            }
            OpState::Fold(fold) => through_rows(Batch::new(), |_| {
                let v = std::mem::take(fold).finish();
                Ok(vec![v.map_err(|e| RuntimeError::new(e.message))?])
            })?,
            _ => Batch::new(),
        };
        self.emit_all(final_emit, out)?;
        // Sinks create their target even for empty bags, matching the
        // sequential semantics (an empty written file still exists).
        match &*self.kind {
            NodeKind::OutputSink { tag } => {
                self.shared.fs.append(&format!("{OUTPUT_PREFIX}{tag}"), &[]);
            }
            NodeKind::WriteFile => {
                if let Some(name) = &self.current.as_ref().expect("active").write_name {
                    self.shared.fs.append(name, &[]);
                }
            }
            _ => {}
        }

        let active = self.current.take().expect("active");
        // Keep hoistable build state for the next output bag (Sec. 5.3).
        let hoisted = hoistable_input(&self.kind).and_then(|i| active.sel[i]);
        if let Some(bag_len) = hoisted.filter(|_| self.shared.config.hoisting) {
            // Deliberately retained across output bags: charged to the
            // hoist-cache class (excluded from the leak verdict).
            let (elems, bytes) = active.state.residency();
            self.shared
                .mem
                .charge(MemClass::HoistCache, self.machine, self.op, 1, elems, bytes);
            self.kept = Some((bag_len, active.state));
        }

        // Mark the out-bag finalized and punctuate decided edges.
        if let Some(outbag) = self.outbags.get_mut(&active.len) {
            outbag.finalized = true;
        }
        self.count(OpCell::BagsFinished, 1);
        out.obs.record(
            out.net,
            self.op,
            EventKind::BagFinalized {
                pos: active.pos,
                bag_len: active.len,
            },
        );
        self.emit_done_where_possible(active.len, out);
        self.retire_outbags();

        if !self.shared.config.pipelined {
            out.computed.push(active.pos);
        }
        Ok(true)
    }

    // --- Emission & conditional sends --------------------------------------

    /// Emits a produced batch of the active bag onto every outgoing edge:
    /// an undecided edge buffers it, a streaming edge routes it by its
    /// partitioning ([`Host::route`]). The batch is cloned per edge, never
    /// taken apart element by element.
    fn emit_all(&mut self, mut batch: Batch, out: &mut HostOut) -> Result<(), RuntimeError> {
        if batch.is_empty() {
            return Ok(());
        }
        let n = batch.len();
        self.count(OpCell::ElementsOut, n as u64);
        let bag_len = self.current.as_ref().expect("active").len;
        if out.obs.enabled() {
            out.obs.record(
                out.net,
                self.op,
                EventKind::Emitted {
                    bag_len,
                    count: n as u64,
                },
            );
        }
        let cost = self.shared.config.cost;
        let n_edges = self.out_edge_ids.len();
        if n_edges == 0 {
            return Ok(());
        }
        out.net.charge(cost.ser_cost(n * n_edges));
        // One key hash per element, shared by every hash edge.
        let mut hashes = None;
        for ei in 0..n_edges {
            // The last edge takes the batch itself.
            let mine = if ei + 1 == n_edges {
                std::mem::take(&mut batch)
            } else {
                batch.clone()
            };
            match &mut OutBag::get(&mut self.outbags, &self.name, bag_len)?.edges[ei] {
                EdgeSend::Dropped => {}
                EdgeSend::Undecided { buffer, .. } => {
                    let bytes = mine.estimated_bytes();
                    buffer.append(mine);
                    self.shared.mem.charge(
                        MemClass::AwaitingBarrier,
                        self.machine,
                        self.op,
                        0,
                        n as u64,
                        bytes,
                    );
                }
                EdgeSend::Streaming { .. } => self.route(bag_len, ei, mine, &mut hashes, out)?,
            }
        }
        Ok(())
    }

    /// Routes a batch into a streaming edge's per-destination pending
    /// batches and ships every full `cost.batch_elems` chunk, so one
    /// message carries one full batch however finely the producer's input
    /// was chunked. A forward edge gives the whole batch to the peer
    /// instance, a gather edge to instance 0, a broadcast edge to every
    /// instance; a hash edge splits it once by `stable_hash(key) %
    /// instances` (`hashes` keeps the key hashes across one batch's edges).
    fn route(
        &mut self,
        bag_len: u32,
        ei: usize,
        batch: Batch,
        hashes: &mut Option<Vec<u64>>,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let edge = self.out_edge_ids[ei];
        let e = &self.shared.graph.edges[edge as usize];
        let dst_n = self.shared.graph.instances(e.dst, self.shared.machines) as usize;
        let (partitioning, inst) = (e.partitioning, self.inst as usize);
        let max_elems = self.shared.config.cost.batch_elems.max(1);
        let EdgeSend::Streaming {
            counts, pending, ..
        } = &mut OutBag::get(&mut self.outbags, &self.name, bag_len)?.edges[ei]
        else {
            return Ok(());
        };
        // Full chunks leave at once; the sub-batch remainder stays pending
        // until the bag finalizes.
        let mut ship: Vec<(u16, Batch)> = Vec::new();
        let mut give = |d: usize, part: Batch| {
            counts[d] += part.len() as u32;
            pending[d].append(part);
            while pending[d].len() >= max_elems {
                ship.push((d as u16, pending[d].split_to(max_elems)));
            }
        };
        match partitioning {
            Partitioning::Forward => give(inst.min(dst_n - 1), batch),
            Partitioning::Gather => give(0, batch),
            Partitioning::Broadcast => (0..dst_n).for_each(|d| give(d, batch.clone())),
            Partitioning::Hash if dst_n == 1 => give(0, batch),
            Partitioning::Hash => {
                let hashes = hashes.get_or_insert_with(|| batch.key_hashes());
                let parts = batch.partition(hashes, dst_n).into_iter();
                parts.enumerate().for_each(|(d, part)| give(d, part));
            }
        }
        for (d, chunk) in ship {
            self.send_batches(edge, d, bag_len, chunk, out);
        }
        Ok(())
    }

    /// Ships a batch to one destination instance in messages of at most
    /// `cost.batch_elems` elements, charging each message's **actual
    /// encoded wire size** to the network and the flow registry.
    fn send_batches(
        &self,
        edge: EdgeId,
        dst_inst: u16,
        bag_len: u32,
        mut batch: Batch,
        out: &mut HostOut,
    ) {
        let dst = self.shared.graph.edges[edge as usize].dst;
        let machine = self.shared.graph.placement(dst, dst_inst);
        let max_elems = self.shared.config.cost.batch_elems.max(1);
        while !batch.is_empty() {
            let chunk = batch.split_to(max_elems);
            let bytes = self
                .shared
                .config
                .cost
                .wire_bytes(chunk.encoded_len() as u64);
            self.shared
                .flow
                .msg_out(edge, self.machine, machine, chunk.len() as u64, bytes);
            out.net.send(
                machine,
                Msg::Data {
                    edge,
                    dst_inst,
                    bag_len,
                    batch: chunk,
                },
                bytes,
            );
        }
    }

    /// Records a conditional-output send/drop resolution (5.2.4), with
    /// open→decision latency when tracing (the clock is never read at
    /// lower levels).
    fn record_send_resolved(
        &self,
        edge: EdgeId,
        bag_len: u32,
        sent: bool,
        buffered: u64,
        opened_ns: u64,
        out: &mut HostOut,
    ) {
        if !out.obs.enabled() {
            return;
        }
        let latency_ns = if out.obs.tracing() {
            out.net.now_ns().saturating_sub(opened_ns)
        } else {
            0
        };
        out.obs.record(
            out.net,
            self.op,
            EventKind::SendResolved {
                edge,
                bag_len,
                sent,
                buffered,
                latency_ns,
            },
        );
    }

    /// Advances conditional-send watchers for every in-flight out-bag.
    fn advance_watchers(
        &mut self,
        path: &ExecutionPath,
        out: &mut HostOut,
    ) -> Result<(), RuntimeError> {
        let mut to_flush: Vec<(u32, usize, Batch)> = Vec::new();
        let mut resolved_any = false;
        // Bag order, not map order: concurrent in-flight bags share one
        // template, and the first resolution to fill a send entry wins —
        // iterating in bag order keeps that choice (and the invalidation
        // counters) deterministic across runs and drivers.
        let mut lens: Vec<u32> = self.outbags.keys().copied().collect();
        lens.sort_unstable();
        for bag_len in lens {
            let n_edges = self.out_edge_ids.len();
            for ei in 0..n_edges {
                let edge = self.out_edge_ids[ei];
                let (decision, next, buffered, buf_held, buf_bytes, opened_ns) = {
                    let outbag = OutBag::get(&mut self.outbags, &self.name, bag_len)?;
                    let EdgeSend::Undecided {
                        cursor,
                        buffer,
                        opened_ns,
                        hint,
                    } = &mut outbag.edges[ei]
                    else {
                        continue;
                    };
                    // Template replay: verify the recorded resolution slice
                    // incrementally. A full match applies the recorded
                    // verdict at exactly the append the slow path would
                    // resolve on; a divergence falls back to the scan from
                    // the verified (provably non-resolving) prefix.
                    let step = hint
                        .as_mut()
                        .map(|h| h.advance(path.blocks(), path.exited(), bag_len));
                    let (d, next) = match step {
                        Some(HintStep::Resolved { sent, next }) => (
                            if sent {
                                SendDecision::Send
                            } else {
                                SendDecision::Drop
                            },
                            next,
                        ),
                        Some(HintStep::Pending { cursor }) => (SendDecision::Undecided, cursor),
                        Some(HintStep::Mismatch { cursor: from }) => {
                            // A hint only exists on a template replay.
                            *hint = None;
                            self.shared
                                .telemetry
                                .bump(self.machine, WorkerCell::TemplateInvalidations);
                            self.shared.rules.decide_send(edge, path, bag_len, from)
                        }
                        None => {
                            let (d, next) =
                                self.shared.rules.decide_send(edge, path, bag_len, *cursor);
                            if d != SendDecision::Undecided {
                                // Fill the resolution into this bag's
                                // template, when one is recording: replayable
                                // iff it resolved on a block (not program
                                // exit) within the window.
                                if let (Some(&tid), Some(cache)) =
                                    (self.recording_sends.get(&bag_len), self.templates.as_mut())
                                {
                                    let r = &self.shared.rules.edges[edge as usize];
                                    let block_resolved = next > bag_len
                                        && match d {
                                            SendDecision::Send => true,
                                            _ => r.drop_mask[path.get(next - 1) as usize],
                                        };
                                    let status = if block_resolved
                                        && (next - bag_len) as usize <= template::WINDOW
                                    {
                                        SendStatus::Recorded {
                                            slice: path.blocks()[bag_len as usize..next as usize]
                                                .into(),
                                            sent: d == SendDecision::Send,
                                        }
                                    } else {
                                        SendStatus::Poisoned
                                    };
                                    cache.fill_send(tid, ei, status);
                                }
                            }
                            (d, next)
                        }
                    };
                    let buf_held = buffer.len() as u64;
                    let buf_bytes = buffer.estimated_bytes();
                    let buffered = if d == SendDecision::Send {
                        std::mem::take(buffer)
                    } else {
                        Batch::new()
                    };
                    (d, next, buffered, buf_held, buf_bytes, *opened_ns)
                };
                let outbag = OutBag::get(&mut self.outbags, &self.name, bag_len)?;
                match decision {
                    SendDecision::Undecided => {
                        if let EdgeSend::Undecided { cursor, .. } = &mut outbag.edges[ei] {
                            *cursor = next;
                        }
                        continue;
                    }
                    SendDecision::Drop => outbag.edges[ei] = EdgeSend::Dropped,
                    SendDecision::Send => {
                        outbag.edges[ei] = EdgeSend::streaming(&self.shared, edge);
                        to_flush.push((bag_len, ei, buffered));
                    }
                }
                self.shared.mem.credit(
                    MemClass::AwaitingBarrier,
                    self.machine,
                    self.op,
                    1,
                    buf_held,
                    buf_bytes,
                );
                resolved_any = true;
                let sent = decision == SendDecision::Send;
                self.record_send_resolved(edge, bag_len, sent, buf_held, opened_ns, out);
            }
        }
        for (bag_len, ei, buffered) in to_flush {
            out.net
                .charge(self.shared.config.cost.ser_cost(buffered.len()));
            self.route(bag_len, ei, buffered, &mut None, out)?;
        }
        if resolved_any {
            let lens: Vec<u32> = self
                .outbags
                .iter()
                .filter(|(_, b)| b.finalized)
                .map(|(&l, _)| l)
                .collect();
            for l in lens {
                self.emit_done_where_possible(l, out);
            }
            self.retire_outbags();
        }
        Ok(())
    }

    /// Drops retired out-bags, along with their template send-recording
    /// registrations.
    fn retire_outbags(&mut self) {
        let recording = &mut self.recording_sends;
        self.outbags.retain(|len, b| {
            let keep = !b.retired();
            if !keep {
                recording.remove(len);
            }
            keep
        });
    }

    /// Sends end-of-bag punctuation on every decided edge of a finalized
    /// bag that hasn't sent it yet, flushing the edge's sub-batch pending
    /// remainder first so the punctuation counts are already on the wire.
    fn emit_done_where_possible(&mut self, bag_len: u32, out: &mut HostOut) {
        let n_edges = self.out_edge_ids.len();
        for ei in 0..n_edges {
            let edge = self.out_edge_ids[ei];
            let (counts, leftover): (Vec<u32>, Vec<Batch>) = {
                let Some(outbag) = self.outbags.get_mut(&bag_len) else {
                    return;
                };
                if !outbag.finalized {
                    return;
                }
                match &mut outbag.edges[ei] {
                    EdgeSend::Streaming {
                        counts,
                        pending,
                        done_sent,
                    } if !*done_sent => {
                        *done_sent = true;
                        (counts.clone(), std::mem::take(pending))
                    }
                    _ => continue,
                }
            };
            for (d, rest) in leftover.into_iter().enumerate() {
                self.send_batches(edge, d as u16, bag_len, rest, out);
            }
            if out.obs.enabled() {
                out.obs.record(
                    out.net,
                    self.op,
                    EventKind::PunctuationSent {
                        edge,
                        bag_len,
                        count: counts.iter().map(|&c| c as u64).sum(),
                    },
                );
            }
            let e = &self.shared.graph.edges[edge as usize];
            let dst = e.dst;
            // A Forward sender only ever feeds its own peer instance; all
            // other partitionings may have sent anywhere, so they punctuate
            // every destination (receivers expect exactly
            // `senders_per_dst` punctuations).
            let targets: Vec<u16> = match e.partitioning {
                Partitioning::Forward => {
                    let dst_n = counts.len() as u16;
                    vec![self.inst.min(dst_n - 1)]
                }
                _ => (0..counts.len() as u16).collect(),
            };
            for d in targets {
                let machine = self.shared.graph.placement(dst, d);
                self.shared.flow.msg_out(edge, self.machine, machine, 0, 24);
                out.net.send(
                    machine,
                    Msg::BagDone {
                        edge,
                        dst_inst: d,
                        bag_len,
                        count: counts[d as usize],
                    },
                    24,
                );
            }
        }
    }
}

/// The host's one row boundary. The keyed kernels (`JoinTable` build and
/// probe, `KeyedFold`/`Fold` push, `DedupSet`, `cross`), the sinks'
/// `fs.append` and the `read_partition` source still take and give
/// `Vec<Value>`; a bag changes form between [`Batch`] and rows here and
/// nowhere else in the host (`scripts/check.sh` holds it to that). Moving
/// those kernels onto columns removes it.
fn through_rows(
    batch: Batch,
    f: impl FnOnce(Vec<Value>) -> Result<Vec<Value>, RuntimeError>,
) -> Result<Batch, RuntimeError> {
    f(batch.into_values()).map(Batch::from_values)
}

/// The one element of a scalar bag (a captured scalar, a file name);
/// `what` names the bag when it holds another count.
fn single(elems: &Batch, what: impl FnOnce() -> String) -> Result<Value, RuntimeError> {
    match elems.first() {
        Some(v) if elems.len() == 1 => Ok(v),
        _ => Err(RuntimeError::new(format!(
            "{} holds {} elements",
            what(),
            elems.len()
        ))),
    }
}

/// The file name a readFile/writeFile gate of operator `op` carries.
fn file_name(op: &str, elems: &Batch) -> Result<String, RuntimeError> {
    let v = single(elems, || format!("file name bag for `{op}`"))?;
    let name = v.as_str().map(str::to_string);
    name.ok_or_else(|| {
        RuntimeError::new(format!("file name for `{op}` must be a string, got {v:?}"))
    })
}

/// Which inputs must be fully collected before streaming can begin.
fn gating_flags(kind: &NodeKind, n_inputs: usize) -> Vec<bool> {
    let mut flags = vec![false; n_inputs];
    match kind {
        NodeKind::ReadFile => {
            flags[0] = true;
        }
        NodeKind::WriteFile => {
            if n_inputs > 1 {
                flags[1] = true;
            }
        }
        NodeKind::Map { .. }
        | NodeKind::FlatMap { .. }
        | NodeKind::Filter { .. }
        | NodeKind::ReduceByKey { .. }
        | NodeKind::ReduceByKeyLocal { .. }
        | NodeKind::Reduce { .. } => {
            for f in flags.iter_mut().skip(1) {
                *f = true; // captured scalars
            }
        }
        NodeKind::Join => {
            flags[0] = true; // build side
        }
        NodeKind::Cross => {
            if n_inputs > 1 {
                flags[1] = true; // collected side
            }
        }
        NodeKind::Singleton { .. } | NodeKind::LiteralBag { .. } => {
            for f in flags.iter_mut() {
                *f = true;
            }
        }
        // A read-headed chain gates on its file name like a plain readFile;
        // captured scalars of every stage gate like a map's.
        NodeKind::Fused { stages } => {
            if matches!(stages[0].kind, NodeKind::ReadFile) {
                flags[0] = true;
            }
            for f in flags.iter_mut().skip(1) {
                *f = true;
            }
        }
        NodeKind::Union
        | NodeKind::Distinct
        | NodeKind::Alias
        | NodeKind::Phi
        | NodeKind::OutputSink { .. } => {}
    }
    flags
}

/// The input whose collected bag is loop-invariant-hoistable build state
/// (Sec. 5.3): a join's build side, a cross's collected side.
fn hoistable_input(kind: &NodeKind) -> Option<usize> {
    match kind {
        NodeKind::Join => Some(0),
        NodeKind::Cross => Some(1),
        _ => None,
    }
}

/// The state an output bag starts with. A join's or a cross's build state
/// comes later, from its gate or from the hoist cache.
fn init_state(kind: &NodeKind) -> OpState {
    match kind {
        NodeKind::ReduceByKey { .. } | NodeKind::ReduceByKeyLocal { .. } => {
            OpState::Agg(kernel::KeyedFold::default())
        }
        // The fold is seeded with the empty-bag value when one exists
        // (sum/count); `.reduce(..)` starts from the first element.
        NodeKind::Reduce { init, .. } => OpState::Fold(kernel::Fold::new(init.clone())),
        NodeKind::Distinct => OpState::Distinct(kernel::DedupSet::default()),
        _ => OpState::Simple,
    }
}
