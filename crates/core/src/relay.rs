//! At-least-once delivery for fault-injection runs.
//!
//! With network faults active (see [`crate::rt::FaultPlan`]), every remote
//! **guarded** message — data-plane [`Msg::Data`]/[`Msg::BagDone`] and
//! control-plane [`Msg::Decision`]/[`Msg::BagComputed`]/[`Msg::Release`] —
//! is wrapped in a sequence-numbered [`Msg::Reliable`] envelope. The
//! protocol:
//!
//! * **Sender**: assigns a per-peer sequence number and keeps the payload
//!   in an unacked buffer with its own retransmission deadline, stamped on
//!   [`Net::now_ns`]'s clock (RFC 6298 §5). A self-addressed
//!   [`Msg::RetryTick`] fires at the earliest deadline toward a peer and
//!   resends only the payloads whose deadline has passed, never ones still
//!   in flight. A payload's first timeout is [`BASE_BACKOFF_NS`], and
//!   each of its resends doubles its own next one (capped at
//!   `BASE_BACKOFF_NS << MAX_SHIFT`), so acks of other payloads never
//!   shorten its budget. A payload resent [`MAX_ATTEMPTS`] times without
//!   an ack gives up with a [`RuntimeError`] naming the peer and that
//!   payload.
//! * **Receiver**: always acks `(src, seq)` — even for duplicates, since
//!   the original ack may itself have been lost — and delivers a payload at
//!   most once, deduplicating by `(src, seq)` with a compacting watermark.
//!
//! Retransmitted envelopes are new physical messages, so the fault
//! schedule (pure in the per-link send index) gives them fresh verdicts:
//! under any drop probability below one, delivery eventually succeeds.
//! Because the runtime is already tolerant of *reordered* logical traffic
//! (input bags complete by element counts, barrier releases take maxima,
//! decisions are buffered by path index), exactly-once delivery in order
//! is not required — dedup alone restores correctness.
//!
//! The whole layer is inert (never instantiated, zero envelope bytes) when
//! no network faults are configured, keeping fault-free runs bit-identical
//! to builds without it.

use crate::graph::EdgeId;
use crate::obs::event::OP_NONE;
use crate::obs::flow::FlowRegistry;
use crate::obs::mem::{MemClass, MemRegistry, DEDUP_ENTRY_BYTES, ENVELOPE_BYTES};
use crate::rt::{FaultPlan, Msg, Net, RuntimeError};
use std::collections::{BTreeMap, HashSet};

/// A payload's first retransmission timeout (ns; virtual under the
/// simulator, wall under threads). Doubles per resend of that payload up
/// to `BASE_BACKOFF_NS << MAX_SHIFT`.
pub const BASE_BACKOFF_NS: u64 = 1_500_000;
/// Cap on the exponential backoff shift (max timeout = base × 2⁶).
const MAX_SHIFT: u32 = 6;
/// Retransmissions of one payload before giving up with an error.
pub const MAX_ATTEMPTS: u32 = 30;

/// An unacknowledged guarded payload awaiting retransmission.
#[derive(Debug)]
struct Pending {
    msg: Msg,
    bytes: u64,
    /// Retransmission deadline (ns, on [`Net::now_ns`]'s clock).
    due: u64,
    /// Retransmissions of this payload so far.
    attempts: u32,
}

/// The deadline of a payload sent at `now` after `attempts` resends.
fn due_after(now: u64, attempts: u32) -> u64 {
    now + (BASE_BACKOFF_NS << attempts.min(MAX_SHIFT))
}

/// Per-worker state of the at-least-once delivery protocol: send-side
/// sequence numbers and unacked buffers, receive-side dedup, and counters.
#[derive(Debug, Default)]
pub struct Relay {
    machine: u16,
    enabled: bool,
    /// Next sequence number per peer.
    next_seq: Vec<u64>,
    /// Unacked payloads per peer, ordered by sequence number.
    unacked: Vec<BTreeMap<u64, Pending>>,
    /// Due time of the earliest RetryTick in flight per peer (`u64::MAX`:
    /// none).
    armed: Vec<u64>,
    /// Receive side: delivered sequence numbers above the watermark.
    seen: Vec<HashSet<u64>>,
    /// Receive side: every seq below this has been delivered.
    delivered_below: Vec<u64>,
    /// Duplicate deliveries discarded by this worker.
    pub dups_dropped: u64,
}

/// Whether the relay guards `msg`: all inter-worker data- and
/// control-plane traffic. `Start` is driver-injected, `IoDone` is a local
/// timer, and the relay's own `Reliable`/`Ack`/`RetryTick` never re-wrap.
fn guarded(msg: &Msg) -> bool {
    matches!(
        msg,
        Msg::Decision { .. }
            | Msg::Data { .. }
            | Msg::BagDone { .. }
            | Msg::BagComputed { .. }
            | Msg::Release { .. }
    )
}

/// The data-plane edge a guarded payload travels on, if any — the key
/// under which the flow registry accounts relay inflight windows and
/// retransmitted bytes.
fn data_edge(msg: &Msg) -> Option<EdgeId> {
    match msg {
        Msg::Data { edge, .. } | Msg::BagDone { edge, .. } => Some(*edge),
        _ => None,
    }
}

/// Short payload name for give-up diagnostics.
fn payload_kind(msg: &Msg) -> &'static str {
    match msg {
        Msg::Start => "start",
        Msg::Decision { .. } => "decision broadcast",
        Msg::Data { .. } => "data batch",
        Msg::BagDone { .. } => "end-of-bag punctuation",
        Msg::BagComputed { .. } => "barrier bag-computed",
        Msg::Release { .. } => "barrier release",
        Msg::IoDone { .. } => "io completion",
        Msg::Reliable { .. } => "reliable envelope",
        Msg::Ack { .. } => "ack",
        Msg::RetryTick { .. } => "retry tick",
    }
}

impl Relay {
    /// Creates the relay for `machine` in a cluster of `machines`.
    /// Disabled relays pass every send through untouched.
    pub fn new(machine: u16, machines: u16, enabled: bool) -> Relay {
        let n = machines as usize;
        Relay {
            machine,
            enabled,
            next_seq: vec![0; n],
            unacked: (0..n).map(|_| BTreeMap::new()).collect(),
            armed: vec![u64::MAX; n],
            seen: (0..n).map(|_| HashSet::new()).collect(),
            delivered_below: vec![0; n],
            dups_dropped: 0,
        }
    }

    /// Whether the protocol is on (network faults active and recovery
    /// enabled).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sends through `net`, wrapping remote guarded payloads in a
    /// sequence-numbered envelope, stamping the payload's retransmission
    /// deadline and arming a timer for it unless an earlier one is armed.
    /// Data-plane payloads entering the unacked buffer grow their edge's
    /// inflight window in `flow`; every buffered envelope charges its
    /// payload-plus-envelope bytes to [`MemClass::RelayBuf`] in `mem`.
    pub fn send_via(
        &mut self,
        net: &mut dyn Net,
        machine: u16,
        msg: Msg,
        bytes: u64,
        flow: &FlowRegistry,
        mem: &MemRegistry,
    ) {
        if !self.enabled || machine == self.machine || !guarded(&msg) {
            net.send(machine, msg, bytes);
            return;
        }
        let m = machine as usize;
        let seq = self.next_seq[m];
        self.next_seq[m] += 1;
        net.send(
            machine,
            Msg::Reliable {
                src: self.machine,
                seq,
                payload: Box::new(msg.clone()),
            },
            bytes + ENVELOPE_BYTES,
        );
        if let Some(edge) = data_edge(&msg) {
            flow.inflight_inc(edge, self.machine);
        }
        let elems = match &msg {
            Msg::Data { batch, .. } => batch.len() as u64,
            _ => 0,
        };
        mem.charge(
            MemClass::RelayBuf,
            self.machine,
            OP_NONE,
            1,
            elems,
            bytes + ENVELOPE_BYTES,
        );
        let now = net.now_ns();
        let due = due_after(now, 0);
        self.unacked[m].insert(
            seq,
            Pending {
                msg,
                bytes,
                due,
                attempts: 0,
            },
        );
        self.arm(net, machine, due, now);
    }

    /// Arms a RetryTick toward `peer` to fire at `due`, unless one already
    /// fires no later.
    fn arm(&mut self, net: &mut dyn Net, peer: u16, due: u64, now: u64) {
        let m = peer as usize;
        if due >= self.armed[m] {
            return;
        }
        self.armed[m] = due;
        net.timer(
            due.saturating_sub(now),
            self.machine,
            Msg::RetryTick { peer },
        );
    }

    /// Receive side: acks `(src, seq)` and returns whether the payload is
    /// fresh (deliver it) or a duplicate (discard it). Fresh entries
    /// charge [`MemClass::DedupTable`] residency in `mem`; watermark
    /// compaction credits it back, so a gap-free run holds the table at
    /// zero.
    pub fn accept(&mut self, net: &mut dyn Net, src: u16, seq: u64, mem: &MemRegistry) -> bool {
        net.send(
            src,
            Msg::Ack {
                peer: self.machine,
                seq,
            },
            ENVELOPE_BYTES,
        );
        let s = src as usize;
        if seq < self.delivered_below[s] || !self.seen[s].insert(seq) {
            self.dups_dropped += 1;
            return false;
        }
        mem.charge(
            MemClass::DedupTable,
            self.machine,
            OP_NONE,
            1,
            0,
            DEDUP_ENTRY_BYTES,
        );
        // Compact the dense prefix into the watermark.
        let mut compacted = 0u64;
        while self.seen[s].remove(&self.delivered_below[s]) {
            self.delivered_below[s] += 1;
            compacted += 1;
        }
        if compacted > 0 {
            mem.credit(
                MemClass::DedupTable,
                self.machine,
                OP_NONE,
                compacted,
                0,
                compacted * DEDUP_ENTRY_BYTES,
            );
        }
        true
    }

    /// Send side: an ack from `peer` retires the pending payload (and
    /// shrinks its edge's inflight window in `flow` and its
    /// [`MemClass::RelayBuf`] residency in `mem`).
    pub fn on_ack(&mut self, peer: u16, seq: u64, flow: &FlowRegistry, mem: &MemRegistry) {
        let m = peer as usize;
        if let Some(pending) = self.unacked[m].remove(&seq) {
            if let Some(edge) = data_edge(&pending.msg) {
                flow.inflight_dec(edge, self.machine);
            }
            let elems = match &pending.msg {
                Msg::Data { batch, .. } => batch.len() as u64,
                _ => 0,
            };
            mem.credit(
                MemClass::RelayBuf,
                self.machine,
                OP_NONE,
                1,
                elems,
                pending.bytes + ENVELOPE_BYTES,
            );
        }
    }

    /// A retransmission timer fired for `peer`: re-sends the payloads
    /// whose deadline has passed, re-stamps each with its own doubled
    /// timeout, and re-arms for the earliest deadline left. A tick that
    /// fires before the armed one was superseded by it and does nothing.
    /// Returns `(peer, seq, attempt, step)` per retransmitted envelope for
    /// observability — `attempt` counts that payload's retransmissions and
    /// `step` is the decision index when the payload is a
    /// [`Msg::Decision`] and `u32::MAX` otherwise, so the span layer can
    /// count decision-delivery attempts — or an error once a due payload
    /// has spent its [`MAX_ATTEMPTS`] (naming `faults`, the injected plan).
    /// Data-plane resends charge their envelope bytes to the edge's
    /// retransmission counters in `flow`.
    pub fn on_tick(
        &mut self,
        net: &mut dyn Net,
        peer: u16,
        faults: &FaultPlan,
        flow: &FlowRegistry,
    ) -> Result<Vec<(u16, u64, u32, u32)>, RuntimeError> {
        let m = peer as usize;
        let now = net.now_ns();
        if now < self.armed[m] {
            return Ok(Vec::new());
        }
        self.armed[m] = u64::MAX;
        let mut earliest = u64::MAX;
        let mut recorded = Vec::new();
        for (&seq, pending) in self.unacked[m].iter_mut() {
            if pending.due > now {
                earliest = earliest.min(pending.due);
                continue;
            }
            if pending.attempts == MAX_ATTEMPTS {
                return Err(self.give_up(peer, seq, faults));
            }
            pending.attempts += 1;
            pending.due = due_after(now, pending.attempts);
            earliest = earliest.min(pending.due);
            let step = match &pending.msg {
                Msg::Decision { index, .. } => *index,
                _ => u32::MAX,
            };
            if let Some(edge) = data_edge(&pending.msg) {
                flow.retransmit(edge, self.machine, pending.bytes + ENVELOPE_BYTES);
            }
            net.send(
                peer,
                Msg::Reliable {
                    src: self.machine,
                    seq,
                    payload: Box::new(pending.msg.clone()),
                },
                pending.bytes + ENVELOPE_BYTES,
            );
            recorded.push((peer, seq, pending.attempts, step));
        }
        self.arm(net, peer, earliest, now);
        Ok(recorded)
    }

    /// The error for payload `seq` toward `peer` having spent its
    /// retransmission budget: names the peer, the oldest unacked payload
    /// (and `seq`, if it is another) and the injected fault plan.
    fn give_up(&self, peer: u16, seq: u64, faults: &FaultPlan) -> RuntimeError {
        let unacked = &self.unacked[peer as usize];
        let kind = |s: u64| payload_kind(&unacked[&s].msg);
        let oldest = *unacked.keys().next().expect("seq is unacked");
        let mut stuck = format!("oldest is {} #{oldest}", kind(oldest));
        if oldest != seq {
            stuck += &format!(", {} #{seq} spent the budget", kind(seq));
        }
        RuntimeError::new(format!(
            "machine {} gave up after {MAX_ATTEMPTS} retransmission rounds to machine {peer}: \
             {} message(s) unacknowledged, {stuck}; injected faults: {}",
            self.machine,
            unacked.len(),
            faults.summary(),
        ))
    }
}

/// A [`Net`] adapter routing worker sends through the relay, so host and
/// control-flow-manager code needs no fault awareness at all.
pub struct ReliableNet<'a> {
    /// The underlying transport.
    pub inner: &'a mut dyn Net,
    /// The owning worker's relay state.
    pub relay: &'a mut Relay,
    /// Per-edge flow accounting for inflight windows and retransmissions.
    pub flow: &'a FlowRegistry,
    /// Residency accounting for the relay's retransmit buffer.
    pub mem: &'a MemRegistry,
}

impl Net for ReliableNet<'_> {
    fn send(&mut self, machine: u16, msg: Msg, bytes: u64) {
        self.relay
            .send_via(self.inner, machine, msg, bytes, self.flow, self.mem);
    }

    fn charge(&mut self, ns: u64) {
        self.inner.charge(ns);
    }

    fn schedule(&mut self, delay_ns: u64, machine: u16, msg: Msg) {
        self.inner.schedule(delay_ns, machine, msg);
    }

    fn timer(&mut self, delay_ns: u64, machine: u16, msg: Msg) {
        self.inner.timer(delay_ns, machine, msg);
    }

    fn now_ns(&mut self) -> u64 {
        self.inner.now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Records every send and timer; `now` is the clock each test
    /// advances by hand.
    #[derive(Default)]
    struct CaptureNet {
        sent: Vec<(u16, Msg)>,
        timers: Vec<(u64, u16, Msg)>,
        now: u64,
    }

    impl Net for CaptureNet {
        fn send(&mut self, machine: u16, msg: Msg, _bytes: u64) {
            self.sent.push((machine, msg));
        }
        fn charge(&mut self, _ns: u64) {}
        fn schedule(&mut self, _delay_ns: u64, machine: u16, msg: Msg) {
            self.sent.push((machine, msg));
        }
        fn timer(&mut self, delay_ns: u64, machine: u16, msg: Msg) {
            self.timers.push((delay_ns, machine, msg));
        }
        fn now_ns(&mut self) -> u64 {
            self.now
        }
    }

    fn decision() -> Msg {
        Msg::Decision {
            index: 3,
            block: 1,
            ctx: crate::obs::span::SpanCtx::default(),
        }
    }

    fn flow() -> FlowRegistry {
        FlowRegistry::new(2, 4)
    }

    fn mem() -> MemRegistry {
        MemRegistry::new(2, 4)
    }

    fn faults() -> FaultPlan {
        FaultPlan::new().with_drop(1.0).with_seed(7)
    }

    #[test]
    fn disabled_relay_passes_sends_through() {
        let mut relay = Relay::new(0, 2, false);
        let mut net = CaptureNet::default();
        relay.send_via(&mut net, 1, decision(), 16, &flow(), &mem());
        assert!(matches!(net.sent[0].1, Msg::Decision { .. }));
        assert!(net.timers.is_empty());
    }

    #[test]
    fn guarded_remote_sends_are_wrapped_and_armed() {
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        relay.send_via(&mut net, 1, decision(), 16, &flow(), &mem());
        relay.send_via(&mut net, 1, decision(), 16, &flow(), &mem());
        match (&net.sent[0].1, &net.sent[1].1) {
            (Msg::Reliable { seq: 0, src: 0, .. }, Msg::Reliable { seq: 1, .. }) => {}
            other => panic!("expected two envelopes, got {other:?}"),
        }
        assert_eq!(net.timers.len(), 1, "one tick per peer, not per message");
        assert_eq!(net.timers[0].0, BASE_BACKOFF_NS);
    }

    #[test]
    fn local_and_unguarded_sends_bypass_the_relay() {
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        relay.send_via(&mut net, 0, decision(), 16, &flow(), &mem()); // local
        relay.send_via(&mut net, 1, Msg::Start, 0, &flow(), &mem()); // unguarded
        assert!(matches!(net.sent[0].1, Msg::Decision { .. }));
        assert!(matches!(net.sent[1].1, Msg::Start));
        assert!(net.timers.is_empty());
    }

    #[test]
    fn receiver_acks_and_dedups() {
        let mut relay = Relay::new(1, 2, true);
        let mut net = CaptureNet::default();
        let mreg = mem();
        assert!(relay.accept(&mut net, 0, 0, &mreg));
        assert!(!relay.accept(&mut net, 0, 0, &mreg), "duplicate discarded");
        assert!(relay.accept(&mut net, 0, 2, &mreg), "gaps are fine");
        assert!(relay.accept(&mut net, 0, 1, &mreg));
        assert!(
            !relay.accept(&mut net, 0, 1, &mreg),
            "below-watermark duplicate"
        );
        assert_eq!(relay.dups_dropped, 2);
        assert_eq!(net.sent.len(), 5, "every delivery is acked, even dups");
        assert!(net
            .sent
            .iter()
            .all(|(m, s)| *m == 0 && matches!(s, Msg::Ack { peer: 1, .. })));
        assert_eq!(relay.delivered_below[0], 3, "watermark compacts");
        assert!(relay.seen[0].is_empty());
        let table = mreg.report().class_total(MemClass::DedupTable);
        assert_eq!(
            (table.live, table.bytes),
            (0, 0),
            "compacted table holds no residency"
        );
    }

    #[test]
    fn ticks_retransmit_until_acked_with_backoff() {
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        let reg = flow();
        let mreg = mem();
        relay.send_via(&mut net, 1, decision(), 16, &reg, &mreg);
        net.sent.clear();
        net.timers.clear();
        net.now = BASE_BACKOFF_NS;
        let resent = relay.on_tick(&mut net, 1, &faults(), &reg).unwrap();
        assert_eq!(resent, vec![(1, 0, 1, 3)], "step = the decision's index");
        assert_eq!(net.sent.len(), 1);
        assert_eq!(net.timers.len(), 1);
        assert_eq!(net.timers[0].0, BASE_BACKOFF_NS << 1, "backoff doubled");

        net.now += BASE_BACKOFF_NS << 1;
        let resent = relay.on_tick(&mut net, 1, &faults(), &reg).unwrap();
        assert_eq!(resent, vec![(1, 0, 2, 3)], "second attempt");
        assert_eq!(net.timers[1].0, BASE_BACKOFF_NS << 2, "doubled again");

        relay.on_ack(1, 0, &reg, &mreg);
        net.sent.clear();
        net.timers.clear();
        net.now += BASE_BACKOFF_NS << 2;
        let resent = relay.on_tick(&mut net, 1, &faults(), &reg).unwrap();
        assert!(resent.is_empty(), "nothing unacked, tick disarms");
        assert!(net.sent.is_empty());
        assert!(net.timers.is_empty(), "nothing left to arm for");
    }

    #[test]
    fn a_timeout_resends_only_the_payloads_it_is_due_for() {
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        let reg = flow();
        let mreg = mem();
        relay.send_via(&mut net, 1, decision(), 16, &reg, &mreg);
        net.now = BASE_BACKOFF_NS - 500_000;
        relay.send_via(&mut net, 1, decision(), 16, &reg, &mreg);
        assert_eq!(net.timers.len(), 1, "the first payload's tick fires first");
        net.timers.clear();

        net.now = BASE_BACKOFF_NS;
        let resent = relay.on_tick(&mut net, 1, &faults(), &reg).unwrap();
        assert_eq!(resent, vec![(1, 0, 1, 3)], "seq 1 is still in flight");
        assert_eq!(
            net.timers[0].0,
            BASE_BACKOFF_NS - 500_000,
            "re-armed for seq 1's own deadline"
        );

        net.now = 2 * BASE_BACKOFF_NS - 500_000;
        let resent = relay.on_tick(&mut net, 1, &faults(), &reg).unwrap();
        assert_eq!(resent, vec![(1, 1, 1, 3)], "seq 1 timed out in its turn");
    }

    #[test]
    fn a_payload_backs_off_on_its_own_resends_only() {
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        let reg = flow();
        let mreg = mem();
        relay.send_via(&mut net, 1, decision(), 16, &reg, &mreg);
        net.now = BASE_BACKOFF_NS;
        relay.on_tick(&mut net, 1, &faults(), &reg).unwrap();
        assert_eq!(relay.unacked[1][&0].due, 3 * BASE_BACKOFF_NS, "doubled");
        relay.send_via(&mut net, 1, decision(), 16, &reg, &mreg);
        assert_eq!(
            relay.unacked[1][&1].due,
            2 * BASE_BACKOFF_NS,
            "a new payload starts at the base while an older one backs off"
        );

        relay.on_ack(1, 1, &reg, &mreg);
        assert_eq!(
            relay.unacked[1][&0].due,
            3 * BASE_BACKOFF_NS,
            "another payload's ack leaves this one's timeout alone"
        );
        net.timers.clear();
        net.now = 2 * BASE_BACKOFF_NS;
        let resent = relay.on_tick(&mut net, 1, &faults(), &reg).unwrap();
        assert!(resent.is_empty(), "seq 1 was acked, seq 0 is not due");
        assert_eq!(net.timers[0].0, BASE_BACKOFF_NS, "re-armed for seq 0");

        net.timers.clear();
        net.now = 3 * BASE_BACKOFF_NS;
        let resent = relay.on_tick(&mut net, 1, &faults(), &reg).unwrap();
        assert_eq!(resent, vec![(1, 0, 2, 3)], "seq 0's second resend");
        assert_eq!(net.timers[0].0, BASE_BACKOFF_NS << 2, "doubled again");
    }

    /// A slow peer working through a FIFO backlog acks one payload every
    /// 2 ms, so acks keep arriving while the tail of the backlog waits
    /// 200 ms for its turn. Each queued payload must back off on its own
    /// resends — a handful over those 200 ms — and the relay must not
    /// spend the tail's budget at the base timeout because the acks of
    /// other payloads keep arriving.
    #[test]
    fn acks_for_a_backlog_do_not_burn_a_queued_payloads_budget() {
        const BACKLOG: u64 = 100;
        const ACK_EVERY_NS: u64 = 2 * crate::rt::NS_PER_MS;
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        let reg = flow();
        let mreg = mem();
        for _ in 0..BACKLOG {
            relay.send_via(&mut net, 1, decision(), 16, &reg, &mreg);
        }
        let mut ticks: Vec<u64> = Vec::new();
        let mut resends = vec![0u32; BACKLOG as usize];
        for seq in 0..BACKLOG {
            let ack_at = (seq + 1) * ACK_EVERY_NS;
            loop {
                ticks.extend(net.timers.drain(..).map(|(delay, _, _)| net.now + delay));
                ticks.sort_unstable();
                match ticks.first() {
                    Some(&t) if t < ack_at => {
                        ticks.remove(0);
                        net.now = t;
                        let resent = relay
                            .on_tick(&mut net, 1, &faults(), &reg)
                            .expect("a peer that keeps acking is never given up on");
                        for (_, s, _, _) in resent {
                            resends[s as usize] += 1;
                        }
                    }
                    _ => break,
                }
            }
            net.now = ack_at;
            relay.on_ack(1, seq, &reg, &mreg);
        }
        assert!(relay.unacked[1].is_empty(), "the backlog drained");
        // Timeouts at 1.5, 4.5, 10.5, 22.5, 46.5, 94.5 and 190.5 ms.
        assert_eq!(resends[BACKLOG as usize - 1], 7, "{resends:?}");
    }

    /// A steady stream never drains the unacked buffer: one payload every
    /// 100 µs, each acked 250 µs after it is sent, except that the first
    /// copy of every 20th payload is lost (its resend is acked 250 µs
    /// later). Each loss must cost one base timeout, not a backoff that
    /// climbed while the stream kept the buffer full.
    #[test]
    fn a_steady_stream_recovers_each_loss_within_one_base_timeout() {
        const GAP_NS: u64 = 100_000;
        const ACK_DELAY_NS: u64 = 250_000;
        const RUN_NS: u64 = 500_000_000;
        const ACK: u8 = 0;
        const TICK: u8 = 1;
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        let reg = flow();
        let mreg = mem();
        let lost = |seq: u64| seq.is_multiple_of(20);
        // Pending acks and ticks, earliest first: (time, kind, seq).
        let mut events: BinaryHeap<Reverse<(u64, u8, u64)>> = BinaryHeap::new();
        let mut resent_at: Vec<Option<u64>> = Vec::new();
        let mut sent = 0u64;
        loop {
            let send_at = sent * GAP_NS;
            let event = events.peek().map(|Reverse(e)| *e);
            let now = match event {
                Some((t, _, _)) if send_at >= RUN_NS || t <= send_at => t,
                _ if send_at < RUN_NS => send_at,
                _ => break,
            };
            net.now = now;
            match event {
                Some((t, kind, seq)) if t == now => {
                    events.pop();
                    if kind == ACK {
                        relay.on_ack(1, seq, &reg, &mreg);
                    } else {
                        let resent = relay
                            .on_tick(&mut net, 1, &faults(), &reg)
                            .expect("the relay never gives up");
                        for (_, seq, _, _) in resent {
                            resent_at[seq as usize].get_or_insert(now);
                            events.push(Reverse((now + ACK_DELAY_NS, ACK, seq)));
                        }
                    }
                }
                _ => {
                    relay.send_via(&mut net, 1, decision(), 16, &reg, &mreg);
                    if !lost(sent) {
                        events.push(Reverse((now + ACK_DELAY_NS, ACK, sent)));
                    }
                    resent_at.push(None);
                    sent += 1;
                }
            }
            for (delay, _, _) in net.timers.drain(..) {
                events.push(Reverse((now + delay, TICK, 0)));
            }
            net.sent.clear();
        }
        assert_eq!(sent, RUN_NS / GAP_NS);
        assert!(relay.unacked[1].is_empty(), "every payload acked");
        for seq in (0..sent).filter(|&s| lost(s)) {
            let resent = resent_at[seq as usize].expect("every lost payload is resent");
            assert!(
                resent - seq * GAP_NS <= BASE_BACKOFF_NS,
                "payload {seq} resent {} µs after its first send",
                (resent - seq * GAP_NS) / 1_000
            );
        }
    }

    #[test]
    fn data_resends_charge_per_edge_flow_counters() {
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        let reg = flow();
        let mreg = mem();
        let data = Msg::Data {
            edge: 2,
            dst_inst: 0,
            bag_len: 1,
            batch: mitos_lang::Batch::new(),
        };
        relay.send_via(&mut net, 1, data, 40, &reg, &mreg);
        let buf = mreg.report().class_total(MemClass::RelayBuf);
        assert_eq!(buf.live, 1, "one unacked envelope resident");
        assert_eq!(buf.bytes, 40 + ENVELOPE_BYTES);
        net.now = BASE_BACKOFF_NS;
        let resent = relay.on_tick(&mut net, 1, &faults(), &reg).unwrap();
        assert_eq!(resent.len(), 1);
        relay.on_ack(1, 0, &reg, &mreg);
        let report = reg.report();
        let edge = &report.edges[2];
        assert_eq!(edge.retrans_msgs(), 1);
        assert_eq!(edge.retrans_bytes(), 40 + 24, "resend pays envelope too");
        assert_eq!(edge.inflight_hwm(), 1, "window peaked at one unacked msg");
        let report2 = reg.report();
        assert_eq!(
            report2.edges[2].retrans_bytes(),
            64,
            "ack retired the window without disturbing retransmit totals"
        );
        let buf = mreg.report().class_total(MemClass::RelayBuf);
        assert_eq!((buf.live, buf.bytes), (0, 0), "ack drained the buffer");
        assert_eq!(
            mreg.report().class_total(MemClass::RelayBuf).bytes_hwm,
            40 + ENVELOPE_BYTES,
            "peak survives the drain"
        );
    }

    #[test]
    fn exhausted_attempts_error_names_the_fault() {
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        let reg = flow();
        relay.send_via(&mut net, 1, decision(), 16, &reg, &mem());
        let mut resends = 0;
        let err = loop {
            net.now = relay.armed[1];
            match relay.on_tick(&mut net, 1, &faults(), &reg) {
                Ok(resent) => resends += resent.len() as u32,
                Err(e) => break e,
            }
        };
        assert_eq!(resends, MAX_ATTEMPTS, "the budget is per payload");
        assert!(
            net.now > 2_000 * crate::rt::NS_PER_MS,
            "the backoff climbs under silence: gave up after {} ms",
            net.now / crate::rt::NS_PER_MS
        );
        let msg = &err.message;
        assert!(
            msg.contains("gave up after 30 retransmission rounds to machine 1"),
            "{msg}"
        );
        assert!(msg.contains("oldest is decision broadcast #0;"), "{msg}");
        assert!(msg.contains("drop 1.00 (fault seed 0x7)"), "{msg}");
    }

    #[test]
    fn give_up_names_a_younger_payload_that_spent_the_budget() {
        let mut relay = Relay::new(0, 2, true);
        let mut net = CaptureNet::default();
        let reg = flow();
        let data = Msg::Data {
            edge: 2,
            dst_inst: 0,
            bag_len: 1,
            batch: mitos_lang::Batch::new(),
        };
        relay.send_via(&mut net, 1, decision(), 16, &reg, &mem());
        relay.send_via(&mut net, 1, data, 40, &reg, &mem());
        relay.unacked[1].get_mut(&0).unwrap().due = u64::MAX;
        relay.unacked[1].get_mut(&1).unwrap().attempts = MAX_ATTEMPTS;
        net.now = BASE_BACKOFF_NS;
        let err = relay
            .on_tick(&mut net, 1, &faults(), &reg)
            .expect_err("seq 1 is out of budget");
        assert!(
            err.message.contains(
                "2 message(s) unacknowledged, oldest is decision broadcast #0, \
                 data batch #1 spent the budget;"
            ),
            "{}",
            err.message
        );
    }

    /// The dedup table must stay bounded by the compaction watermark on a
    /// long run, not grow monotonically: entries above the watermark are
    /// exactly the out-of-order gap, and a dense delivery drains the table
    /// back to empty.
    #[test]
    fn dedup_table_is_bounded_by_the_watermark() {
        let mut relay = Relay::new(1, 2, true);
        let mut net = CaptureNet::default();
        let mreg = mem();
        // Seeded xorshift over delivery order: deliver seqs in windows of
        // 16, each window shuffled deterministically, with duplicates
        // sprinkled in — a long reordered-and-duplicated stream.
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut step = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut max_table = 0usize;
        for window in 0..64u64 {
            let base = window * 16;
            let mut seqs: Vec<u64> = (base..base + 16).collect();
            // Fisher-Yates with the seeded generator.
            for i in (1..seqs.len()).rev() {
                let j = (step() % (i as u64 + 1)) as usize;
                seqs.swap(i, j);
            }
            for &seq in &seqs {
                relay.accept(&mut net, 0, seq, &mreg);
                if step() % 4 == 0 {
                    relay.accept(&mut net, 0, seq, &mreg); // duplicate
                }
                max_table = max_table.max(relay.seen[0].len());
                assert!(
                    relay.seen[0].len() <= 16,
                    "table exceeded the reorder window: {} entries",
                    relay.seen[0].len()
                );
            }
            // A window boundary is a dense prefix: compaction must have
            // folded everything into the watermark.
            assert!(
                relay.seen[0].is_empty(),
                "dense prefix not compacted at window {window}"
            );
            assert_eq!(relay.delivered_below[0], base + 16);
        }
        assert!(max_table > 1, "shuffle produced no reordering to test");
        let table = mreg.report().class_total(MemClass::DedupTable);
        assert_eq!((table.live, table.bytes), (0, 0), "drained to watermark");
        assert!(
            table.bytes_hwm >= DEDUP_ENTRY_BYTES,
            "peak recorded while the gap was open"
        );
    }
}
