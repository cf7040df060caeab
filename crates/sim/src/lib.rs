//! # mitos-sim
//!
//! A deterministic discrete-event simulator of a commodity cluster: the
//! substrate every engine in this reproduction executes on, standing in for
//! the 26-machine testbed of the paper's evaluation (see `DESIGN.md`).
//!
//! The model:
//!
//! * **Machines** are serial CPU resources. Each delivered message occupies
//!   its destination machine for a base cost plus whatever the handler
//!   charges via [`SimCtx::charge`]; messages queue FIFO per machine.
//! * **The network** delivers messages with a base latency plus a
//!   bytes/bandwidth term, plus optional seeded jitter. Same-machine sends
//!   pay only a small local latency.
//! * **The world** ([`World`]) owns all actor state and dispatches messages
//!   by [`ActorId`]; actors are message-driven state machines, so the same
//!   logic can also run on real threads (the runtime crate does exactly
//!   that).
//!
//! The simulation is fully deterministic for a given seed: event ties are
//! broken by sequence number, and all randomness comes from one PRNG.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Virtual time, in nanoseconds.
pub type Time = u64;

/// Index of a simulated machine.
pub type MachineId = u16;

/// Address of an actor: a machine plus a per-engine local index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ActorId {
    /// The machine hosting the actor.
    pub machine: MachineId,
    /// Engine-defined local actor index.
    pub index: u32,
}

impl ActorId {
    /// Creates an actor id.
    pub fn new(machine: MachineId, index: u32) -> ActorId {
        ActorId { machine, index }
    }
}

/// Cluster parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of machines.
    pub machines: u16,
    /// Base one-way network latency between distinct machines (ns).
    pub net_latency_ns: u64,
    /// Network bandwidth in bytes per microsecond (per message; links are
    /// not modelled as contended).
    pub net_bytes_per_us: u64,
    /// Delivery latency for same-machine messages (ns).
    pub local_latency_ns: u64,
    /// Fixed CPU cost of dispatching any message (ns), before charges.
    pub dispatch_cost_ns: u64,
    /// Extra network latency jitter: each remote send pays a uniform random
    /// 0..=jitter_pct percent on top of its latency. Drives the paper's
    /// Challenge 3 ("irregular processing delays") in tests.
    pub jitter_pct: u8,
    /// PRNG seed; same seed, same execution.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        // Gigabit Ethernet-ish: ~150 µs effective one-way latency (paper's
        // testbed, incl. the software stack), 125 B/µs ≈ 1 Gbit/s.
        SimConfig {
            machines: 4,
            net_latency_ns: 150_000,
            net_bytes_per_us: 125,
            local_latency_ns: 2_000,
            dispatch_cost_ns: 2_000,
            jitter_pct: 10,
            seed: 0xB1605,
        }
    }
}

impl SimConfig {
    /// Config with a given machine count, other parameters default.
    pub fn with_machines(machines: u16) -> SimConfig {
        SimConfig {
            machines,
            ..SimConfig::default()
        }
    }
}

/// A timed window during which a machine processes no messages. Arrivals
/// queue in its inbox and drain when the window closes (no loss).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PauseWindow {
    /// The paused machine.
    pub machine: MachineId,
    /// Start of the window (virtual ns, inclusive).
    pub from_ns: Time,
    /// End of the window (virtual ns, exclusive).
    pub until_ns: Time,
}

/// A timed symmetric link partition: messages between `a` and `b` that
/// depart inside the window are dropped (both directions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// One side of the severed link.
    pub a: MachineId,
    /// The other side.
    pub b: MachineId,
    /// Start of the window (virtual ns, inclusive).
    pub from_ns: Time,
    /// End of the window (virtual ns, exclusive).
    pub until_ns: Time,
}

/// What the fault schedule does to one physical remote message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Drop the message.
    Drop,
    /// Deliver the message and a second copy `extra_delay_ns` later.
    Duplicate {
        /// Extra delay of the duplicate copy relative to the original.
        extra_delay_ns: u64,
    },
    /// Delay delivery by `extra_delay_ns`, letting later sends overtake it.
    Reorder {
        /// Extra delay added on top of the normal delivery latency.
        extra_delay_ns: u64,
    },
}

/// splitmix64 finalizer: the fault schedule's only source of randomness,
/// shared verbatim by the simulator and the threaded driver so the same
/// seed yields the same per-link verdict sequence on both.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// Uniform in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded, deterministic fault-injection schedule.
///
/// The verdict for the k-th physical message on a link is a pure function
/// of `(seed, src, dst, k)` — no simulator RNG state is consumed — so the
/// same plan produces a bit-identical fault schedule on every run, and
/// retransmitted copies (new k) get fresh verdicts, which is what lets an
/// at-least-once protocol make progress under any drop probability below
/// one.
///
/// Network faults (drop / duplicate / reorder / partitions) apply only to
/// remote, non-timer messages. Pauses and slowdowns model machine-side
/// delays and lose nothing. The default plan is inert: a run with it is
/// bit-identical to a run without.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault schedule (independent of [`SimConfig::seed`]).
    pub seed: u64,
    /// Per-message drop probability on remote links, in `[0, 1]`.
    pub drop: f64,
    /// Per-message duplication probability on remote links.
    pub duplicate: f64,
    /// Per-message reordering probability on remote links.
    pub reorder: f64,
    /// Bound on the extra delay given to reordered messages and duplicate
    /// copies (ns).
    pub reorder_delay_ns: u64,
    /// Timed symmetric link partitions.
    pub partitions: Vec<Partition>,
    /// Timed per-machine processing pauses.
    pub pauses: Vec<PauseWindow>,
    /// Per-machine CPU slowdown factors (`(machine, factor)`, factor ≥ 1):
    /// every message costs `factor` times as much on that machine.
    pub slowdowns: Vec<(MachineId, u32)>,
    /// Whether the runtime's recovery protocol (acks, dedup, retransmit)
    /// may run. With this off, injected loss goes unrecovered and the
    /// stall watchdog is expected to fire.
    pub retransmit: bool,
    /// Withhold all condition-decision broadcasts (the CLI's
    /// `--fault-withhold-decisions`): the canonical unrecoverable
    /// control-plane fault.
    pub withhold_decisions: bool,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA017,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_delay_ns: 500_000,
            partitions: Vec::new(),
            pauses: Vec::new(),
            slowdowns: Vec::new(),
            retransmit: true,
            withhold_decisions: false,
        }
    }
}

impl FaultPlan {
    /// An inert plan (no faults).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sets the fault-schedule seed.
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Sets the per-message drop probability.
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        self.drop = p;
        self
    }

    /// Sets the per-message duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> FaultPlan {
        self.duplicate = p;
        self
    }

    /// Sets the per-message reordering probability.
    pub fn with_reorder(mut self, p: f64) -> FaultPlan {
        self.reorder = p;
        self
    }

    /// Sets the extra-delay bound for reordered/duplicated copies.
    pub fn with_reorder_delay_ns(mut self, ns: u64) -> FaultPlan {
        self.reorder_delay_ns = ns;
        self
    }

    /// Adds a timed symmetric partition between `a` and `b`.
    pub fn with_partition(
        mut self,
        a: MachineId,
        b: MachineId,
        from_ns: Time,
        until_ns: Time,
    ) -> FaultPlan {
        self.partitions.push(Partition {
            a,
            b,
            from_ns,
            until_ns,
        });
        self
    }

    /// Adds a timed processing pause on `machine`.
    pub fn with_pause(mut self, machine: MachineId, from_ns: Time, until_ns: Time) -> FaultPlan {
        self.pauses.push(PauseWindow {
            machine,
            from_ns,
            until_ns,
        });
        self
    }

    /// Adds a CPU slowdown factor for `machine`.
    pub fn with_slowdown(mut self, machine: MachineId, factor: u32) -> FaultPlan {
        self.slowdowns.push((machine, factor));
        self
    }

    /// Enables or disables the runtime recovery protocol.
    pub fn with_retransmit(mut self, on: bool) -> FaultPlan {
        self.retransmit = on;
        self
    }

    /// Withholds condition-decision broadcasts.
    pub fn with_withhold_decisions(mut self, on: bool) -> FaultPlan {
        self.withhold_decisions = on;
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.net_faults_active()
            || !self.pauses.is_empty()
            || !self.slowdowns.is_empty()
            || self.withhold_decisions
    }

    /// Whether any network-level fault (drop / duplicate / reorder /
    /// partition) is configured — i.e. whether messages can be lost or
    /// multiplied and the runtime needs its recovery protocol.
    pub fn net_faults_active(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0 || self.reorder > 0.0 || !self.partitions.is_empty()
    }

    /// The verdict for the `k`-th physical message sent from `src` to
    /// `dst`. Pure in `(seed, src, dst, k)`.
    pub fn verdict(&self, src: MachineId, dst: MachineId, k: u64) -> Verdict {
        let link = ((src as u64) << 17) | ((dst as u64) << 1) | 1;
        let h0 = mix64(self.seed ^ mix64(link).wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let h1 = mix64(h0 ^ 0xD6E8_FEB8_6659_FD93);
        let h2 = mix64(h1 ^ 0xA5A5_A5A5_A5A5_A5A5);
        let bound = self.reorder_delay_ns.max(1);
        if unit(h0) < self.drop {
            Verdict::Drop
        } else if unit(h1) < self.duplicate {
            Verdict::Duplicate {
                extra_delay_ns: h2 % bound,
            }
        } else if unit(h2) < self.reorder {
            Verdict::Reorder {
                extra_delay_ns: (h2 >> 7) % bound + 1,
            }
        } else {
            Verdict::Deliver
        }
    }

    /// Whether the link `a`–`b` is partitioned at time `t_ns`.
    pub fn partitioned(&self, a: MachineId, b: MachineId, t_ns: Time) -> bool {
        self.partitions.iter().any(|p| {
            ((p.a == a && p.b == b) || (p.a == b && p.b == a))
                && p.from_ns <= t_ns
                && t_ns < p.until_ns
        })
    }

    /// If `machine` is paused at `t_ns`, the time the pause ends.
    pub fn pause_until(&self, machine: MachineId, t_ns: Time) -> Option<Time> {
        self.pauses
            .iter()
            .filter(|p| p.machine == machine && p.from_ns <= t_ns && t_ns < p.until_ns)
            .map(|p| p.until_ns)
            .max()
    }

    /// CPU cost multiplier for `machine` (1 when not slowed).
    pub fn slowdown_factor(&self, machine: MachineId) -> u64 {
        self.slowdowns
            .iter()
            .filter(|(m, _)| *m == machine)
            .map(|(_, f)| *f as u64)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// One-line human-readable description for stall reports and errors.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.drop > 0.0 {
            parts.push(format!("drop {:.2}", self.drop));
        }
        if self.duplicate > 0.0 {
            parts.push(format!("duplicate {:.2}", self.duplicate));
        }
        if self.reorder > 0.0 {
            parts.push(format!("reorder {:.2}", self.reorder));
        }
        if !self.partitions.is_empty() {
            parts.push(format!("{} partition window(s)", self.partitions.len()));
        }
        if !self.pauses.is_empty() {
            parts.push(format!("{} pause window(s)", self.pauses.len()));
        }
        if !self.slowdowns.is_empty() {
            parts.push(format!("{} slowed machine(s)", self.slowdowns.len()));
        }
        if self.withhold_decisions {
            parts.push("decision broadcasts withheld".to_string());
        }
        if !self.retransmit {
            parts.push("recovery protocol disabled".to_string());
        }
        if parts.is_empty() {
            parts.push("none".to_string());
        }
        format!("{} (fault seed {:#x})", parts.join(", "), self.seed)
    }
}

/// The engine state driven by the simulator: owns all actors and handles
/// one delivered message at a time.
pub trait World {
    /// Message type exchanged between actors.
    type Msg;

    /// Handles a message delivered to `dest`. Use `ctx` to send messages,
    /// charge CPU time, and set timers.
    fn handle(&mut self, dest: ActorId, msg: Self::Msg, ctx: &mut SimCtx<Self::Msg>);
}

/// Side-effect collector handed to [`World::handle`].
pub struct SimCtx<'a, M> {
    now: Time,
    machines: u16,
    charged_ns: u64,
    outbox: &'a mut Vec<Outgoing<M>>,
}

struct Outgoing<M> {
    to: ActorId,
    msg: M,
    bytes: u64,
    /// Explicit delay for timers; `None` means network delivery.
    timer_delay: Option<Time>,
}

impl<M> SimCtx<'_, M> {
    /// The current virtual time (start of this message's processing).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of machines in the cluster.
    pub fn machines(&self) -> u16 {
        self.machines
    }

    /// Sends a message; `bytes` drives the bandwidth term of the delivery
    /// delay (use 0 for small control messages).
    pub fn send(&mut self, to: ActorId, msg: M, bytes: u64) {
        self.outbox.push(Outgoing {
            to,
            msg,
            bytes,
            timer_delay: None,
        });
    }

    /// Delivers `msg` to `to` after `delay`, without network modelling.
    pub fn schedule(&mut self, delay: Time, to: ActorId, msg: M) {
        self.outbox.push(Outgoing {
            to,
            msg,
            bytes: 0,
            timer_delay: Some(delay),
        });
    }

    /// Charges `cpu_ns` of processing time to the current machine for this
    /// message. Subsequent messages on the machine queue behind it.
    pub fn charge(&mut self, cpu_ns: u64) {
        self.charged_ns = self.charged_ns.saturating_add(cpu_ns);
    }
}

/// Statistics of a finished simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimReport {
    /// Virtual time when the last machine went idle.
    pub end_time: Time,
    /// Messages delivered.
    pub messages: u64,
    /// Total bytes shipped between distinct machines.
    pub remote_bytes: u64,
    /// Total CPU nanoseconds charged across machines.
    pub cpu_ns: u64,
    /// Largest inbox depth observed on any machine.
    pub max_inbox: usize,
    /// Remote messages dropped by the fault plan (including partitions).
    pub faults_dropped: u64,
    /// Remote messages duplicated by the fault plan.
    pub faults_duplicated: u64,
    /// Remote messages delayed past later sends by the fault plan.
    pub faults_reordered: u64,
}

enum Event<M> {
    Arrive { to: ActorId, msg: M },
    Process { machine: MachineId },
}

struct Machine<M> {
    inbox: VecDeque<(ActorId, M)>,
    busy_until: Time,
    /// Whether a Process event is already queued for this machine.
    scheduled: bool,
}

/// The discrete-event simulator.
pub struct Sim<W: World> {
    config: SimConfig,
    world: W,
    queue: BinaryHeap<Reverse<(Time, u64, usize)>>,
    events: Vec<Option<Event<W::Msg>>>,
    machines: Vec<Machine<W::Msg>>,
    seq: u64,
    now: Time,
    rng: StdRng,
    report: SimReport,
    outbox: Vec<Outgoing<W::Msg>>,
    faults: FaultPlan,
    /// Physical messages sent per (src, dst) link, keying the fault
    /// schedule. Only maintained while network faults are active.
    link_seq: HashMap<(MachineId, MachineId), u64>,
    /// Clones a message for duplication faults; installed by
    /// [`Sim::set_fault_plan`], whose `Clone` bound makes it available.
    cloner: Option<MsgCloner<W::Msg>>,
}

/// Clones a message for duplication faults (see [`Sim::set_fault_plan`]).
type MsgCloner<M> = fn(&M) -> M;

impl<W: World> Sim<W> {
    /// Creates a simulator over `world`.
    pub fn new(config: SimConfig, world: W) -> Sim<W> {
        assert!(config.machines > 0, "need at least one machine");
        let machines = (0..config.machines)
            .map(|_| Machine {
                inbox: VecDeque::new(),
                busy_until: 0,
                scheduled: false,
            })
            .collect();
        Sim {
            world,
            queue: BinaryHeap::new(),
            events: Vec::new(),
            machines,
            seq: 0,
            now: 0,
            rng: StdRng::seed_from_u64(config.seed),
            report: SimReport::default(),
            outbox: Vec::new(),
            faults: FaultPlan::default(),
            link_seq: HashMap::new(),
            cloner: None,
            config,
        }
    }

    /// Installs a fault-injection plan (before `run`). Requires `Clone`
    /// messages because duplication faults materialize a second copy. The
    /// default plan is inert; with one installed, verdicts come from the
    /// plan's own hash schedule, so the simulator's jitter PRNG stream —
    /// and therefore a fault-free run — is unaffected.
    pub fn set_fault_plan(&mut self, plan: FaultPlan)
    where
        W::Msg: Clone,
    {
        self.cloner = Some(|m| m.clone());
        self.faults = plan;
    }

    /// Injects an initial message at time 0 (before `run`).
    pub fn inject(&mut self, to: ActorId, msg: W::Msg) {
        self.push_event(0, Event::Arrive { to, msg });
    }

    /// The current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulator, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Runs until no events remain; returns the run statistics.
    pub fn run(&mut self) -> SimReport {
        self.run_sampled(0, |_, _, _| {})
    }

    /// Like [`Sim::run`], additionally invoking `sample` between events
    /// whenever virtual time first reaches each positive multiple of
    /// `interval_ns` (an `interval_ns` of 0 disables sampling entirely).
    /// The sampler also receives the current per-machine inbox depths
    /// (one entry per machine), so callers can observe queue build-up.
    ///
    /// Sampling is an observer: it runs outside any message handler,
    /// charges no CPU, schedules no events, and therefore perturbs neither
    /// virtual time nor event order — a run with sampling produces a
    /// bit-identical [`SimReport`] to one without. Because event order is
    /// deterministic, the sample times and the world states they observe
    /// are deterministic too.
    pub fn run_sampled(
        &mut self,
        interval_ns: Time,
        mut sample: impl FnMut(Time, &W, &[usize]),
    ) -> SimReport {
        // Safety valve against runaway engines: no realistic workload in
        // this repo approaches this; hitting it is a bug, not a long run.
        let max_events: u64 = 2_000_000_000;
        let mut processed: u64 = 0;
        let mut next_sample = interval_ns;
        let mut depths: Vec<usize> = vec![0; self.machines.len()];
        while let Some(Reverse((t, _, slot))) = self.queue.pop() {
            let event = self.events[slot].take().expect("event taken once");
            if interval_ns > 0 {
                while next_sample <= t {
                    for (d, m) in depths.iter_mut().zip(&self.machines) {
                        *d = m.inbox.len();
                    }
                    sample(next_sample, &self.world, &depths);
                    next_sample += interval_ns;
                }
            }
            self.now = t;
            processed += 1;
            assert!(
                processed < max_events,
                "simulation exceeded {max_events} events; runaway engine?"
            );
            match event {
                Event::Arrive { to, msg } => {
                    let m = &mut self.machines[to.machine as usize];
                    m.inbox.push_back((to, msg));
                    self.report.max_inbox = self.report.max_inbox.max(m.inbox.len());
                    if !m.scheduled {
                        m.scheduled = true;
                        let start = t.max(m.busy_until);
                        self.push_event(
                            start,
                            Event::Process {
                                machine: to.machine,
                            },
                        );
                    }
                }
                Event::Process { machine } => {
                    if let Some(until) = self.faults.pause_until(machine, t) {
                        // The machine is paused: arrivals keep queueing,
                        // processing resumes when the window closes.
                        self.push_event(until, Event::Process { machine });
                        continue;
                    }
                    let m = &mut self.machines[machine as usize];
                    let Some((dest, msg)) = m.inbox.pop_front() else {
                        m.scheduled = false;
                        continue;
                    };
                    self.report.messages += 1;
                    let mut ctx = SimCtx {
                        now: t,
                        machines: self.config.machines,
                        charged_ns: 0,
                        outbox: &mut self.outbox,
                    };
                    self.world.handle(dest, msg, &mut ctx);
                    let charged = ctx.charged_ns;
                    let cost = (self.config.dispatch_cost_ns + charged)
                        * self.faults.slowdown_factor(machine);
                    self.report.cpu_ns += cost;
                    let done = t + cost;
                    let m = &mut self.machines[machine as usize];
                    m.busy_until = done;
                    self.report.end_time = self.report.end_time.max(done);
                    if m.inbox.is_empty() {
                        m.scheduled = false;
                    } else {
                        self.push_event(done, Event::Process { machine });
                    }
                    // Dispatch collected sends, departing at `done`.
                    let outgoing = std::mem::take(&mut self.outbox);
                    for out in outgoing {
                        let arrival = match out.timer_delay {
                            // Timers are local clock events, exempt from
                            // network fault injection.
                            Some(delay) => done + delay,
                            None if out.to.machine == machine => {
                                done + self.config.local_latency_ns
                            }
                            None => {
                                let base = self.config.net_latency_ns
                                    + (out.bytes * 1000) / self.config.net_bytes_per_us.max(1);
                                let jitter = if self.config.jitter_pct > 0 {
                                    let pct = self.rng.gen_range(0..=self.config.jitter_pct as u64);
                                    base * pct / 100
                                } else {
                                    0
                                };
                                self.report.remote_bytes += out.bytes;
                                let mut arrival = done + base + jitter;
                                if self.faults.net_faults_active() {
                                    let k = {
                                        let c = self
                                            .link_seq
                                            .entry((machine, out.to.machine))
                                            .or_insert(0);
                                        let k = *c;
                                        *c += 1;
                                        k
                                    };
                                    if self.faults.partitioned(machine, out.to.machine, done) {
                                        self.report.faults_dropped += 1;
                                        continue;
                                    }
                                    match self.faults.verdict(machine, out.to.machine, k) {
                                        Verdict::Deliver => {}
                                        Verdict::Drop => {
                                            self.report.faults_dropped += 1;
                                            continue;
                                        }
                                        Verdict::Duplicate { extra_delay_ns } => {
                                            if let Some(clone) = self.cloner {
                                                self.report.faults_duplicated += 1;
                                                self.push_event(
                                                    arrival + extra_delay_ns,
                                                    Event::Arrive {
                                                        to: out.to,
                                                        msg: clone(&out.msg),
                                                    },
                                                );
                                            }
                                        }
                                        Verdict::Reorder { extra_delay_ns } => {
                                            self.report.faults_reordered += 1;
                                            arrival += extra_delay_ns;
                                        }
                                    }
                                }
                                arrival
                            }
                        };
                        self.push_event(
                            arrival,
                            Event::Arrive {
                                to: out.to,
                                msg: out.msg,
                            },
                        );
                    }
                }
            }
        }
        self.report
    }

    fn push_event(&mut self, t: Time, event: Event<W::Msg>) {
        let slot = self.events.len();
        self.events.push(Some(event));
        self.queue.push(Reverse((t, self.seq, slot)));
        self.seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial world: every message is (hops_left, cpu_cost); it charges
    /// the cost and forwards to the next machine while hops remain. It logs
    /// (time, actor, hops) per delivery.
    struct Relay {
        log: Vec<(Time, ActorId, u32)>,
        bytes: u64,
    }

    #[derive(Clone)]
    struct Hop {
        hops_left: u32,
        cpu: u64,
    }

    impl World for Relay {
        type Msg = Hop;
        fn handle(&mut self, dest: ActorId, msg: Hop, ctx: &mut SimCtx<Hop>) {
            self.log.push((ctx.now(), dest, msg.hops_left));
            ctx.charge(msg.cpu);
            if msg.hops_left > 0 {
                let next = ActorId::new((dest.machine + 1) % ctx.machines(), 0);
                ctx.send(
                    next,
                    Hop {
                        hops_left: msg.hops_left - 1,
                        cpu: msg.cpu,
                    },
                    self.bytes,
                );
            }
        }
    }

    fn quiet(machines: u16) -> SimConfig {
        SimConfig {
            machines,
            net_latency_ns: 1000,
            net_bytes_per_us: 1000,
            local_latency_ns: 10,
            dispatch_cost_ns: 0,
            jitter_pct: 0,
            seed: 1,
        }
    }

    #[test]
    fn latency_and_cpu_accumulate() {
        let mut sim = Sim::new(
            quiet(2),
            Relay {
                log: vec![],
                bytes: 0,
            },
        );
        sim.inject(
            ActorId::new(0, 0),
            Hop {
                hops_left: 2,
                cpu: 500,
            },
        );
        let report = sim.run();
        let log = &sim.world().log;
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].0, 0);
        assert_eq!(log[1].0, 500 + 1000, "cpu then latency");
        assert_eq!(log[2].0, 2 * (500 + 1000));
        assert_eq!(report.messages, 3);
        assert_eq!(report.cpu_ns, 3 * 500);
        assert_eq!(report.end_time, 2 * 1500 + 500);
    }

    #[test]
    fn bandwidth_term_applies_to_remote_sends() {
        let mut sim = Sim::new(
            quiet(2),
            Relay {
                log: vec![],
                bytes: 2000, // 2000 B at 1000 B/us = 2 us = 2000 ns
            },
        );
        sim.inject(
            ActorId::new(0, 0),
            Hop {
                hops_left: 1,
                cpu: 0,
            },
        );
        sim.run();
        let log = &sim.world().log;
        assert_eq!(log[1].0, 1000 + 2000);
    }

    #[test]
    fn machine_serializes_messages() {
        // Two messages to the same machine, each costing 100: the second
        // starts only after the first finishes.
        struct Busy {
            started_at: Vec<Time>,
        }
        impl World for Busy {
            type Msg = ();
            fn handle(&mut self, _dest: ActorId, _msg: (), ctx: &mut SimCtx<()>) {
                self.started_at.push(ctx.now());
                ctx.charge(100);
            }
        }
        let mut sim = Sim::new(quiet(1), Busy { started_at: vec![] });
        sim.inject(ActorId::new(0, 0), ());
        sim.inject(ActorId::new(0, 1), ());
        sim.run();
        assert_eq!(sim.world().started_at, vec![0, 100]);
    }

    #[test]
    fn distinct_machines_run_in_parallel() {
        struct Busy;
        impl World for Busy {
            type Msg = ();
            fn handle(&mut self, _dest: ActorId, _msg: (), ctx: &mut SimCtx<()>) {
                ctx.charge(1000);
            }
        }
        let mut sim = Sim::new(quiet(2), Busy);
        sim.inject(ActorId::new(0, 0), ());
        sim.inject(ActorId::new(1, 0), ());
        let report = sim.run();
        assert_eq!(report.end_time, 1000, "parallel, not 2000");
        assert_eq!(report.cpu_ns, 2000);
    }

    #[test]
    fn timers_fire_after_delay() {
        struct Timed {
            fired: Vec<Time>,
        }
        #[derive(Clone)]
        enum Msg {
            Start,
            Alarm,
        }
        impl World for Timed {
            type Msg = Msg;
            fn handle(&mut self, dest: ActorId, msg: Msg, ctx: &mut SimCtx<Msg>) {
                match msg {
                    Msg::Start => ctx.schedule(5000, dest, Msg::Alarm),
                    Msg::Alarm => self.fired.push(ctx.now()),
                }
            }
        }
        let mut sim = Sim::new(quiet(1), Timed { fired: vec![] });
        sim.inject(ActorId::new(0, 0), Msg::Start);
        sim.run();
        assert_eq!(sim.world().fired, vec![5000]);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run_with_seed = |seed: u64| -> Vec<(Time, ActorId, u32)> {
            let mut config = quiet(3);
            config.jitter_pct = 50;
            config.seed = seed;
            let mut sim = Sim::new(
                config,
                Relay {
                    log: vec![],
                    bytes: 100,
                },
            );
            sim.inject(
                ActorId::new(0, 0),
                Hop {
                    hops_left: 6,
                    cpu: 10,
                },
            );
            sim.run();
            sim.into_world().log
        };
        assert_eq!(run_with_seed(7), run_with_seed(7));
        assert_ne!(run_with_seed(7), run_with_seed(8), "jitter varies by seed");
    }

    #[test]
    fn jitter_bounded_by_pct() {
        let mut config = quiet(2);
        config.jitter_pct = 10;
        let mut sim = Sim::new(
            config,
            Relay {
                log: vec![],
                bytes: 0,
            },
        );
        sim.inject(
            ActorId::new(0, 0),
            Hop {
                hops_left: 1,
                cpu: 0,
            },
        );
        sim.run();
        let t = sim.world().log[1].0;
        assert!((1000..=1100).contains(&t), "got {t}");
    }

    #[test]
    fn report_counts_remote_bytes_only() {
        struct LocalAndRemote;
        impl World for LocalAndRemote {
            type Msg = u32;
            fn handle(&mut self, dest: ActorId, msg: u32, ctx: &mut SimCtx<u32>) {
                if msg == 0 {
                    ctx.send(ActorId::new(dest.machine, 1), 1, 500); // local
                    ctx.send(ActorId::new(1, 0), 1, 700); // remote
                }
            }
        }
        let mut sim = Sim::new(quiet(2), LocalAndRemote);
        sim.inject(ActorId::new(0, 0), 0);
        let report = sim.run();
        assert_eq!(report.remote_bytes, 700);
        assert_eq!(report.messages, 3);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run_with = |fault_seed: u64| {
            let mut sim = Sim::new(
                quiet(3),
                Relay {
                    log: vec![],
                    bytes: 100,
                },
            );
            sim.set_fault_plan(
                FaultPlan::new()
                    .with_seed(fault_seed)
                    .with_drop(0.3)
                    .with_duplicate(0.3)
                    .with_reorder(0.3),
            );
            sim.inject(
                ActorId::new(0, 0),
                Hop {
                    hops_left: 40,
                    cpu: 10,
                },
            );
            let report = sim.run();
            (report, sim.into_world().log)
        };
        let (r1, l1) = run_with(7);
        let (r2, l2) = run_with(7);
        assert_eq!(r1, r2);
        assert_eq!(l1, l2);
        assert!(
            r1.faults_dropped + r1.faults_duplicated + r1.faults_reordered > 0,
            "plan injected nothing: {r1:?}"
        );
        let (r3, _) = run_with(8);
        assert_ne!(
            (r1.faults_dropped, r1.faults_duplicated, r1.faults_reordered),
            (r3.faults_dropped, r3.faults_duplicated, r3.faults_reordered),
            "fault schedule should vary by seed"
        );
    }

    #[test]
    fn inert_plan_is_bit_identical_to_no_plan() {
        let run = |plan: Option<FaultPlan>| {
            let mut config = quiet(3);
            config.jitter_pct = 25;
            let mut sim = Sim::new(
                config,
                Relay {
                    log: vec![],
                    bytes: 64,
                },
            );
            if let Some(p) = plan {
                sim.set_fault_plan(p);
            }
            sim.inject(
                ActorId::new(0, 0),
                Hop {
                    hops_left: 12,
                    cpu: 50,
                },
            );
            let report = sim.run();
            (report, sim.into_world().log)
        };
        assert_eq!(run(None), run(Some(FaultPlan::new())));
    }

    #[test]
    fn drop_one_severs_the_chain() {
        let mut sim = Sim::new(
            quiet(2),
            Relay {
                log: vec![],
                bytes: 0,
            },
        );
        sim.set_fault_plan(FaultPlan::new().with_drop(1.0));
        sim.inject(
            ActorId::new(0, 0),
            Hop {
                hops_left: 5,
                cpu: 0,
            },
        );
        let report = sim.run();
        assert_eq!(sim.world().log.len(), 1, "first hop only (injected)");
        assert_eq!(report.faults_dropped, 1);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let mut sim = Sim::new(
            quiet(2),
            Relay {
                log: vec![],
                bytes: 0,
            },
        );
        sim.set_fault_plan(FaultPlan::new().with_duplicate(1.0).with_drop(0.0));
        sim.inject(
            ActorId::new(0, 0),
            Hop {
                hops_left: 1,
                cpu: 0,
            },
        );
        let report = sim.run();
        // Injected message + original delivery + duplicate copy.
        assert_eq!(sim.world().log.len(), 3);
        assert_eq!(report.faults_duplicated, 1);
    }

    #[test]
    fn partition_window_drops_only_inside_window() {
        let mut sim = Sim::new(
            quiet(2),
            Relay {
                log: vec![],
                bytes: 0,
            },
        );
        // The first remote send departs at t=0; partition 0..1 ns covers it.
        sim.set_fault_plan(FaultPlan::new().with_partition(0, 1, 0, 1));
        sim.inject(
            ActorId::new(0, 0),
            Hop {
                hops_left: 3,
                cpu: 0,
            },
        );
        let report = sim.run();
        assert_eq!(report.faults_dropped, 1);
        assert_eq!(sim.world().log.len(), 1);
    }

    #[test]
    fn pause_window_defers_processing_without_loss() {
        struct Busy {
            started_at: Vec<Time>,
        }
        impl World for Busy {
            type Msg = ();
            fn handle(&mut self, _dest: ActorId, _msg: (), ctx: &mut SimCtx<()>) {
                self.started_at.push(ctx.now());
            }
        }
        let mut sim = Sim::new(quiet(1), Busy { started_at: vec![] });
        sim.set_fault_plan(FaultPlan::new().with_pause(0, 0, 4000));
        sim.inject(ActorId::new(0, 0), ());
        sim.run();
        assert_eq!(sim.world().started_at, vec![4000], "processed after pause");
    }

    #[test]
    fn slowdown_scales_per_message_cost() {
        struct Busy;
        impl World for Busy {
            type Msg = ();
            fn handle(&mut self, _dest: ActorId, _msg: (), ctx: &mut SimCtx<()>) {
                ctx.charge(100);
            }
        }
        let mut sim = Sim::new(quiet(1), Busy);
        sim.set_fault_plan(FaultPlan::new().with_slowdown(0, 3));
        sim.inject(ActorId::new(0, 0), ());
        let report = sim.run();
        assert_eq!(report.end_time, 300);
    }

    #[test]
    fn verdicts_are_pure_in_seed_link_and_index() {
        let plan = FaultPlan::new()
            .with_seed(42)
            .with_drop(0.2)
            .with_duplicate(0.2)
            .with_reorder(0.2);
        for k in 0..64 {
            assert_eq!(plan.verdict(0, 1, k), plan.verdict(0, 1, k));
        }
        let other = plan.clone().with_seed(43);
        assert!(
            (0..256).any(|k| plan.verdict(0, 1, k) != other.verdict(0, 1, k)),
            "different seeds should give different schedules"
        );
        assert!(
            (0..256).any(|k| plan.verdict(0, 1, k) != plan.verdict(1, 0, k)),
            "links should have independent schedules"
        );
    }

    #[test]
    fn dispatch_cost_applies_per_message() {
        struct Nop;
        impl World for Nop {
            type Msg = ();
            fn handle(&mut self, _dest: ActorId, _msg: (), _ctx: &mut SimCtx<()>) {}
        }
        let mut config = quiet(1);
        config.dispatch_cost_ns = 50;
        let mut sim = Sim::new(config, Nop);
        sim.inject(ActorId::new(0, 0), ());
        sim.inject(ActorId::new(0, 0), ());
        let report = sim.run();
        assert_eq!(report.end_time, 100);
    }
}
