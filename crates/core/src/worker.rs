//! The per-machine worker: the **control-flow manager** (Sec. 5.2.1) plus
//! all bag operator hosts placed on this machine, plus (on machine 0, in
//! non-pipelined mode) the superstep barrier.
//!
//! The control-flow manager replicates the global execution path: it extends
//! it locally through unconditional jumps and learns conditional-jump
//! outcomes from broadcast `Decision` messages. Every path append is pushed
//! to the local hosts, which is how operators watch the path evolve.

use crate::graph::OpId;
use crate::host::{Host, HostOut};
use crate::obs::live::WorkerCell;
use crate::obs::{EventKind, ObsBuf, OP_NONE};
use crate::path::ExecutionPath;
use crate::relay::{Relay, ReliableNet};
use crate::rt::{EngineShared, Msg, Net, RuntimeError};
use mitos_ir::nir::Terminator;
use mitos_ir::BlockId;
use std::collections::HashMap;
use std::sync::Arc;

/// Superstep barrier state (machine 0, non-pipelined mode).
struct Barrier {
    /// Positions `< frontier` are fully computed; `<= frontier` may start.
    frontier: u32,
    /// Completion counts per path position.
    completions: HashMap<u32, u32>,
    /// Total instances per basic block (completions expected per
    /// occurrence).
    expected_per_block: Vec<u32>,
}

/// One worker actor: everything that runs on one simulated machine.
pub struct Worker {
    machine: u16,
    shared: Arc<EngineShared>,
    path: ExecutionPath,
    pending_decisions: HashMap<u32, BlockId>,
    hosts: Vec<Host>,
    host_of_op: HashMap<OpId, usize>,
    barrier: Option<Barrier>,
    /// First fatal error; once set, the worker discards further messages.
    pub error: Option<RuntimeError>,
    /// Observability buffer (events + metrics); drained at join via
    /// [`Worker::take_obs`].
    obs: ObsBuf,
    /// At-least-once delivery state; active only when the configured
    /// [`crate::rt::FaultPlan`] injects network faults with recovery on.
    relay: Relay,
}

impl Worker {
    /// Builds the worker for `machine`, instantiating the hosts placed
    /// there.
    pub fn new(shared: Arc<EngineShared>, machine: u16) -> Worker {
        let mut hosts = Vec::new();
        let mut host_of_op = HashMap::new();
        for op in 0..shared.graph.nodes.len() as OpId {
            let n = shared.graph.instances(op, shared.machines);
            for inst in 0..n {
                if shared.graph.placement(op, inst) == machine {
                    host_of_op.insert(op, hosts.len());
                    hosts.push(Host::new(shared.clone(), op, inst));
                }
            }
        }
        let barrier = if machine == 0 && !shared.config.pipelined {
            let mut expected_per_block = vec![0u32; shared.graph.func.block_count()];
            for (op, node) in shared.graph.nodes.iter().enumerate() {
                expected_per_block[node.block as usize] +=
                    shared.graph.instances(op as OpId, shared.machines) as u32;
            }
            Some(Barrier {
                frontier: 0,
                completions: HashMap::new(),
                expected_per_block,
            })
        } else {
            None
        };
        let obs = ObsBuf::new(shared.config.obs, machine);
        let relay = Relay::new(
            machine,
            shared.machines,
            shared.config.faults.net_faults_active() && shared.config.faults.retransmit,
        );
        Worker {
            machine,
            shared,
            path: ExecutionPath::new(),
            pending_decisions: HashMap::new(),
            hosts,
            host_of_op,
            barrier,
            error: None,
            obs,
            relay,
        }
    }

    /// Drains this worker's observability buffer (called once, at join).
    pub fn take_obs(&mut self) -> ObsBuf {
        std::mem::take(&mut self.obs)
    }

    /// Read access to the replicated execution path (tests compare it with
    /// the reference interpreter's path).
    pub fn path(&self) -> &ExecutionPath {
        &self.path
    }

    /// Whether every host on this machine is idle.
    pub fn idle(&self) -> bool {
        self.path.exited() && self.hosts.iter().all(Host::idle)
    }

    /// Handles one delivered message.
    pub fn handle(&mut self, msg: Msg, net: &mut dyn Net) {
        if self.error.is_some() {
            return;
        }
        // The always-on flight recorder is the one record of a handled
        // message: its count and last timestamp feed live snapshots and
        // the stall watchdog. It never touches the net, so it charges zero
        // virtual time.
        let now = net.now_ns();
        self.shared.flight.record(self.machine, now, &msg);
        let result = if self.relay.enabled() {
            self.handle_reliable(msg, net)
        } else {
            self.ingest(msg, net)
        };
        if let Err(e) = result {
            self.error = Some(e);
        }
    }

    /// Counts and dispatches one logical message (post-dedup when the
    /// recovery protocol is active).
    fn ingest(&mut self, msg: Msg, net: &mut dyn Net) -> Result<(), RuntimeError> {
        // Receive-side flow accounting sits after the dedup filter: its
        // message total is the run's `data_messages`, retransmissions and
        // duplicates included.
        match &msg {
            Msg::Data { edge, batch, .. } => {
                self.shared
                    .flow
                    .msg_in(*edge, self.machine, batch.len() as u64);
            }
            Msg::BagDone { edge, .. } => self.shared.flow.msg_in(*edge, self.machine, 0),
            _ => {}
        }
        self.dispatch(msg, net)
    }

    /// Relay interception under network faults: unwraps, dedups, and acks
    /// envelopes, retires acks, services retransmission timers, and routes
    /// everything this worker sends back through the relay so outgoing
    /// guarded traffic is wrapped too.
    fn handle_reliable(&mut self, msg: Msg, net: &mut dyn Net) -> Result<(), RuntimeError> {
        // The relay is taken out of `self` so a `ReliableNet` can borrow it
        // alongside `self` inside dispatch; restored on every path. The
        // shared handle is cloned for the same reason: `ReliableNet` holds
        // the flow registry across the `&mut self` ingest call.
        let shared = self.shared.clone();
        let mut relay = std::mem::take(&mut self.relay);
        let result = match msg {
            Msg::Reliable { src, seq, payload } => {
                if relay.accept(net, src, seq, &shared.mem) {
                    let mut rnet = ReliableNet {
                        inner: net,
                        relay: &mut relay,
                        flow: &shared.flow,
                        mem: &shared.mem,
                    };
                    self.ingest(*payload, &mut rnet)
                } else {
                    self.obs
                        .record(net, OP_NONE, EventKind::DuplicateDropped { peer: src, seq });
                    self.shared
                        .telemetry
                        .bump(self.machine, WorkerCell::DupsDropped);
                    Ok(())
                }
            }
            Msg::Ack { peer, seq } => {
                relay.on_ack(peer, seq, &self.shared.flow, &self.shared.mem);
                Ok(())
            }
            Msg::RetryTick { peer } => {
                match relay.on_tick(net, peer, &self.shared.config.faults, &self.shared.flow) {
                    Ok(resent) => {
                        for (peer, seq, attempt, step) in resent {
                            self.obs.record(
                                net,
                                OP_NONE,
                                EventKind::RetransmitSent {
                                    peer,
                                    seq,
                                    attempt,
                                    step,
                                },
                            );
                            self.shared
                                .telemetry
                                .bump(self.machine, WorkerCell::Retransmits);
                        }
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            }
            other => {
                let mut rnet = ReliableNet {
                    inner: net,
                    relay: &mut relay,
                    flow: &shared.flow,
                    mem: &shared.mem,
                };
                self.ingest(other, &mut rnet)
            }
        };
        self.relay = relay;
        result
    }

    fn dispatch(&mut self, msg: Msg, net: &mut dyn Net) -> Result<(), RuntimeError> {
        let mut decisions: Vec<(u32, BlockId)> = Vec::new();
        let mut computed: Vec<u32> = Vec::new();
        match msg {
            Msg::Start => {
                let pos = self.path.append(0);
                debug_assert_eq!(pos, 0);
                self.shared
                    .telemetry
                    .position(self.machine, 0, self.path.len());
                self.obs
                    .record(net, OP_NONE, EventKind::PathAppended { pos, block: 0 });
                self.notify_append(pos, 0, net, &mut decisions, &mut computed)?;
                self.advance(net, &mut decisions, &mut computed)?;
            }
            Msg::Decision { index, block, ctx } => {
                // Remote receipt of a broadcast decision: tie our receipt
                // span back to the decider's span via the wire context.
                self.obs.record(
                    net,
                    OP_NONE,
                    EventKind::DecisionReceived {
                        pos: index,
                        block,
                        parent: ctx.parent,
                    },
                );
                self.pending_decisions.insert(index, block);
                self.advance(net, &mut decisions, &mut computed)?;
            }
            Msg::Data {
                edge,
                dst_inst,
                bag_len,
                batch,
            } => {
                let dst = self.shared.graph.edges[edge as usize].dst;
                debug_assert_eq!(self.shared.graph.placement(dst, dst_inst), self.machine);
                let hi = *self.host_of_op.get(&dst).ok_or_else(|| {
                    RuntimeError::new(format!("no host for op {dst} on machine {}", self.machine))
                })?;
                let mut out = HostOut {
                    net,
                    decisions: &mut decisions,
                    computed: &mut computed,
                    obs: &mut self.obs,
                };
                self.hosts[hi].on_data(edge, bag_len, batch, &self.path, &mut out)?;
            }
            Msg::BagDone {
                edge,
                dst_inst,
                bag_len,
                count,
            } => {
                let dst = self.shared.graph.edges[edge as usize].dst;
                debug_assert_eq!(self.shared.graph.placement(dst, dst_inst), self.machine);
                let hi = *self.host_of_op.get(&dst).ok_or_else(|| {
                    RuntimeError::new(format!("no host for op {dst} on machine {}", self.machine))
                })?;
                let mut out = HostOut {
                    net,
                    decisions: &mut decisions,
                    computed: &mut computed,
                    obs: &mut self.obs,
                };
                self.hosts[hi].on_done(edge, bag_len, count, &self.path, &mut out)?;
            }
            Msg::BagComputed { pos } => {
                self.barrier_completion(pos, net)?;
            }
            Msg::IoDone { op } => {
                let hi = *self.host_of_op.get(&op).ok_or_else(|| {
                    RuntimeError::new(format!("no host for op {op} on machine {}", self.machine))
                })?;
                let mut out = HostOut {
                    net,
                    decisions: &mut decisions,
                    computed: &mut computed,
                    obs: &mut self.obs,
                };
                self.hosts[hi].on_io_done(&self.path, &mut out)?;
            }
            Msg::Release { pos } => {
                for hi in 0..self.hosts.len() {
                    let mut out = HostOut {
                        net,
                        decisions: &mut decisions,
                        computed: &mut computed,
                        obs: &mut self.obs,
                    };
                    self.hosts[hi].on_release(pos, &self.path, &mut out)?;
                }
            }
            Msg::Reliable { .. } | Msg::Ack { .. } | Msg::RetryTick { .. } => {
                // Intercepted in handle_reliable; reaching dispatch means an
                // envelope arrived with the recovery protocol disabled.
                return Err(RuntimeError::new(
                    "relay protocol message reached a worker whose recovery protocol is off",
                ));
            }
        }
        self.drain_effects(net, decisions, computed)
    }

    /// Applies and broadcasts decisions emitted by local hosts, ships
    /// completion notifications, and loops until quiescent.
    fn drain_effects(
        &mut self,
        net: &mut dyn Net,
        mut decisions: Vec<(u32, BlockId)>,
        mut computed: Vec<u32>,
    ) -> Result<(), RuntimeError> {
        loop {
            for pos in std::mem::take(&mut computed) {
                if self.machine == 0 {
                    self.barrier_completion(pos, net)?;
                } else {
                    net.send(0, Msg::BagComputed { pos }, 16);
                }
            }
            if decisions.is_empty() {
                return Ok(());
            }
            let mut new_decisions: Vec<(u32, BlockId)> = Vec::new();
            for (index, block) in std::mem::take(&mut decisions) {
                // Broadcast to every other control-flow manager... The
                // Decide span id is deterministic (step + machine only),
                // so every receiver can recompute and verify it.
                self.shared
                    .telemetry
                    .bump(self.machine, WorkerCell::Decisions);
                let parent = crate::obs::span::span_id(
                    index,
                    self.machine,
                    crate::obs::span::SpanKind::Decide,
                    0,
                );
                self.obs.record(
                    net,
                    OP_NONE,
                    EventKind::DecisionBroadcast { pos: index, block },
                );
                if !self.shared.config.faults.withhold_decisions {
                    let ctx = crate::obs::span::SpanCtx {
                        step: index,
                        parent,
                    };
                    for m in 0..self.shared.machines {
                        if m != self.machine {
                            net.send(m, Msg::Decision { index, block, ctx }, 16);
                        }
                    }
                }
                // ...and apply locally.
                self.pending_decisions.insert(index, block);
                self.advance(net, &mut new_decisions, &mut computed)?;
            }
            decisions = new_decisions;
        }
    }

    /// Extends the path through unconditional jumps and buffered decisions.
    fn advance(
        &mut self,
        net: &mut dyn Net,
        decisions: &mut Vec<(u32, BlockId)>,
        computed: &mut Vec<u32>,
    ) -> Result<(), RuntimeError> {
        loop {
            if self.path.is_empty() || self.path.exited() {
                return Ok(());
            }
            let last = self.path.get(self.path.len() - 1);
            let next = match &self.shared.graph.func.blocks[last as usize].term {
                Terminator::Jump(t) => *t,
                Terminator::Exit => {
                    self.path.mark_exited();
                    for hi in 0..self.hosts.len() {
                        let mut out = HostOut {
                            net,
                            decisions,
                            computed,
                            obs: &mut self.obs,
                        };
                        self.hosts[hi].on_exit(&self.path, &mut out)?;
                    }
                    return Ok(());
                }
                Terminator::Branch { .. } => {
                    match self.pending_decisions.remove(&self.path.len()) {
                        Some(t) => t,
                        None => return Ok(()), // wait for the condition node
                    }
                }
            };
            if self.path.len() >= self.shared.config.max_path_len {
                return Err(RuntimeError::new(format!(
                    "execution path exceeded {} blocks; non-terminating loop?",
                    self.shared.config.max_path_len
                )));
            }
            let pos = self.path.append(next);
            self.shared
                .telemetry
                .position(self.machine, next, self.path.len());
            self.obs
                .record(net, OP_NONE, EventKind::PathAppended { pos, block: next });
            self.notify_append(pos, next, net, decisions, computed)?;
            if self.barrier.is_some() {
                // Blocks without operators complete vacuously; let the
                // frontier pass them.
                self.barrier_advance(net)?;
            }
        }
    }

    fn notify_append(
        &mut self,
        pos: u32,
        block: BlockId,
        net: &mut dyn Net,
        decisions: &mut Vec<(u32, BlockId)>,
        computed: &mut Vec<u32>,
    ) -> Result<(), RuntimeError> {
        for hi in 0..self.hosts.len() {
            let mut out = HostOut {
                net,
                decisions,
                computed,
                obs: &mut self.obs,
            };
            self.hosts[hi].on_path_append(pos, block, &self.path, &mut out)?;
        }
        Ok(())
    }

    /// Barrier bookkeeping (machine 0, non-pipelined): counts completions
    /// per position and releases the frontier in order.
    fn barrier_completion(&mut self, pos: u32, net: &mut dyn Net) -> Result<(), RuntimeError> {
        let Some(barrier) = &mut self.barrier else {
            return Err(RuntimeError::new(
                "BagComputed received without a barrier (pipelined mode?)",
            ));
        };
        *barrier.completions.entry(pos).or_insert(0) += 1;
        self.barrier_advance(net)
    }

    /// Advances the barrier frontier over fully computed positions. Also
    /// called after the path extends, because a newly appended block with
    /// zero operators completes vacuously.
    fn barrier_advance(&mut self, net: &mut dyn Net) -> Result<(), RuntimeError> {
        let Some(barrier) = &mut self.barrier else {
            return Ok(());
        };
        // Advance the frontier over fully computed positions.
        let mut released = Vec::new();
        loop {
            let f = barrier.frontier;
            if f >= self.path.len() {
                break; // block at f not yet known
            }
            let block = self.path.get(f);
            let expected = barrier.expected_per_block[block as usize];
            let got = barrier.completions.get(&f).copied().unwrap_or(0);
            debug_assert!(got <= expected);
            if got < expected {
                break;
            }
            barrier.completions.remove(&f);
            barrier.frontier += 1;
            released.push(barrier.frontier);
        }
        for f in released {
            // Models the per-superstep synchronization overhead
            // (Flink's FLINK-3322 constant when emulating Flink).
            net.charge(self.shared.config.extra_step_overhead_ns);
            self.obs
                .record(net, OP_NONE, EventKind::StepReleased { pos: f });
            for m in 0..self.shared.machines {
                if m != self.machine {
                    net.send(m, Msg::Release { pos: f }, 16);
                }
            }
            // Local hosts learn synchronously.
            let mut decisions = Vec::new();
            let mut computed = Vec::new();
            for hi in 0..self.hosts.len() {
                let mut out = HostOut {
                    net,
                    decisions: &mut decisions,
                    computed: &mut computed,
                    obs: &mut self.obs,
                };
                self.hosts[hi].on_release(f, &self.path, &mut out)?;
            }
            self.drain_effects(net, decisions, computed)?;
        }
        Ok(())
    }

    /// Introspects this worker's control-flow state (and each blocked
    /// host's, via [`Host::stall_info`]) for the stall watchdog
    /// ([`crate::obs::watchdog::diagnose`]).
    pub fn stall_info(&self) -> crate::obs::watchdog::WorkerStall {
        let exited = self.path.exited();
        let depth = self.path.len();
        let current_block = if depth > 0 {
            self.path.get(depth - 1)
        } else {
            0
        };
        let awaiting_decision = if !exited && depth > 0 {
            match self.shared.graph.func.blocks[current_block as usize].term {
                Terminator::Branch { .. } if !self.pending_decisions.contains_key(&depth) => {
                    // Name the condition node that should have broadcast
                    // the decision for this conditional jump.
                    let cond = self
                        .shared
                        .graph
                        .nodes
                        .iter()
                        .find(|n| n.condition.is_some() && n.block == current_block)
                        .map(|n| n.name.to_string())
                        .unwrap_or_else(|| format!("<block {current_block} condition>"));
                    Some((depth, cond))
                }
                _ => None,
            }
        } else {
            None
        };
        crate::obs::watchdog::WorkerStall {
            machine: self.machine,
            exited,
            path_depth: depth,
            current_block,
            awaiting_decision,
            ops: self.hosts.iter().filter_map(Host::stall_info).collect(),
        }
    }
}
