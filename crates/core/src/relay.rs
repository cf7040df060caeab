//! At-least-once delivery for fault-injection runs.
//!
//! With network faults active (see [`crate::rt::FaultPlan`]), every remote
//! **guarded** message — data-plane [`Msg::Data`]/[`Msg::BagDone`] and
//! control-plane [`Msg::Decision`]/[`Msg::BagComputed`]/[`Msg::Release`] —
//! is wrapped in a sequence-numbered [`Msg::Reliable`] envelope. The
//! protocol:
//!
//! * **Sender**: assigns a per-peer sequence number, keeps the payload in
//!   an unacked buffer, and arms a self-addressed [`Msg::RetryTick`] timer.
//!   Each tick retransmits everything still unacked toward that peer and
//!   re-arms with exponential backoff; after [`MAX_ATTEMPTS`] rounds it
//!   gives up with a [`RuntimeError`] naming the peer and the stuck
//!   payloads.
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
use crate::rt::{Msg, Net, RuntimeError};
use std::collections::{BTreeMap, HashSet};

/// First retransmission backoff (ns; virtual under the simulator, wall
/// under threads). Doubles per round up to `BASE_BACKOFF_NS << MAX_SHIFT`.
pub const BASE_BACKOFF_NS: u64 = 1_500_000;
/// Cap on the exponential backoff shift (max backoff = base × 2⁶).
const MAX_SHIFT: u32 = 6;
/// Retransmission rounds per peer before giving up with an error.
pub const MAX_ATTEMPTS: u32 = 30;

/// An unacknowledged guarded payload awaiting retransmission.
#[derive(Debug)]
struct Pending {
    msg: Msg,
    bytes: u64,
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
    /// Retransmission rounds taken since the peer's buffer last drained.
    attempts: Vec<u32>,
    /// Whether a RetryTick is already in flight for the peer.
    tick_armed: Vec<bool>,
    /// Receive side: delivered sequence numbers above the watermark.
    seen: Vec<HashSet<u64>>,
    /// Receive side: every seq below this has been delivered.
    delivered_below: Vec<u64>,
    /// Envelopes retransmitted by this worker.
    pub retransmits: u64,
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
            attempts: vec![0; n],
            tick_armed: vec![false; n],
            seen: (0..n).map(|_| HashSet::new()).collect(),
            delivered_below: vec![0; n],
            retransmits: 0,
            dups_dropped: 0,
        }
    }

    /// Whether the protocol is on (network faults active and recovery
    /// enabled).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sends through `net`, wrapping remote guarded payloads in a
    /// sequence-numbered envelope and arming the retransmission timer.
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
        self.unacked[m].insert(seq, Pending { msg, bytes });
        self.arm(net, machine);
    }

    /// Arms one RetryTick toward `peer` unless one is already in flight.
    fn arm(&mut self, net: &mut dyn Net, peer: u16) {
        let m = peer as usize;
        if self.tick_armed[m] {
            return;
        }
        self.tick_armed[m] = true;
        let shift = self.attempts[m].min(MAX_SHIFT);
        net.timer(
            BASE_BACKOFF_NS << shift,
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
        if self.unacked[m].is_empty() {
            self.attempts[m] = 0;
        }
    }

    /// A retransmission timer fired for `peer`: re-sends everything still
    /// unacked and re-arms with backoff. Returns `(peer, seq, attempt,
    /// step)` per retransmitted envelope for observability — `step` is the
    /// decision index when the payload is a [`Msg::Decision`] and
    /// `u32::MAX` otherwise, so the span layer can count decision-delivery
    /// attempts — or an error once the attempt budget is exhausted
    /// (`fault_note` names the injected plan). Data-plane resends charge
    /// their envelope bytes to the edge's retransmission counters in
    /// `flow`.
    pub fn on_tick(
        &mut self,
        net: &mut dyn Net,
        peer: u16,
        fault_note: &str,
        flow: &FlowRegistry,
    ) -> Result<Vec<(u16, u64, u32, u32)>, RuntimeError> {
        let m = peer as usize;
        self.tick_armed[m] = false;
        if self.unacked[m].is_empty() {
            return Ok(Vec::new());
        }
        self.attempts[m] += 1;
        if self.attempts[m] > MAX_ATTEMPTS {
            let (first_seq, first) = self.unacked[m].iter().next().expect("non-empty");
            return Err(RuntimeError::new(format!(
                "machine {} gave up after {} retransmission rounds to machine {peer}: \
                 {} message(s) unacknowledged, oldest is {} #{first_seq}; injected faults: {}",
                self.machine,
                MAX_ATTEMPTS,
                self.unacked[m].len(),
                payload_kind(&first.msg),
                fault_note,
            )));
        }
        let attempt = self.attempts[m];
        let resend: Vec<(u64, Msg, u64)> = self.unacked[m]
            .iter()
            .map(|(s, p)| (*s, p.msg.clone(), p.bytes))
            .collect();
        let mut recorded = Vec::with_capacity(resend.len());
        for (seq, msg, bytes) in resend {
            let step = match &msg {
                Msg::Decision { index, .. } => *index,
                _ => u32::MAX,
            };
            if let Some(edge) = data_edge(&msg) {
                flow.retransmit(edge, self.machine, bytes + ENVELOPE_BYTES);
            }
            net.send(
                peer,
                Msg::Reliable {
                    src: self.machine,
                    seq,
                    payload: Box::new(msg),
                },
                bytes + ENVELOPE_BYTES,
            );
            self.retransmits += 1;
            recorded.push((peer, seq, attempt, step));
        }
        self.arm(net, peer);
        Ok(recorded)
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

    #[derive(Default)]
    struct CaptureNet {
        sent: Vec<(u16, Msg)>,
        timers: Vec<(u64, u16, Msg)>,
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
            0
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
        let table = mreg.snapshot().class_total(MemClass::DedupTable);
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
        let resent = relay.on_tick(&mut net, 1, "drop 1.00", &reg).unwrap();
        assert_eq!(resent, vec![(1, 0, 1, 3)], "step = the decision's index");
        assert_eq!(net.sent.len(), 1);
        assert_eq!(net.timers.len(), 1);
        assert_eq!(net.timers[0].0, BASE_BACKOFF_NS << 1, "backoff doubled");
        assert_eq!(relay.retransmits, 1);

        relay.on_ack(1, 0, &reg, &mreg);
        net.sent.clear();
        let resent = relay.on_tick(&mut net, 1, "drop 1.00", &reg).unwrap();
        assert!(resent.is_empty(), "nothing unacked, tick disarms");
        assert!(net.sent.is_empty());
        assert_eq!(relay.attempts[1], 0, "attempts reset after drain");
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
        let buf = mreg.snapshot().class_total(MemClass::RelayBuf);
        assert_eq!(buf.live, 1, "one unacked envelope resident");
        assert_eq!(buf.bytes, 40 + ENVELOPE_BYTES);
        relay.on_tick(&mut net, 1, "drop 1.00", &reg).unwrap();
        relay.on_ack(1, 0, &reg, &mreg);
        let report = reg.snapshot();
        let edge = &report.edges[2];
        assert_eq!(edge.retrans_msgs(), 1);
        assert_eq!(edge.retrans_bytes(), 40 + 24, "resend pays envelope too");
        assert_eq!(edge.inflight_hwm(), 1, "window peaked at one unacked msg");
        let report2 = reg.snapshot();
        assert_eq!(
            report2.edges[2].retrans_bytes(),
            64,
            "ack retired the window without disturbing retransmit totals"
        );
        let buf = mreg.snapshot().class_total(MemClass::RelayBuf);
        assert_eq!((buf.live, buf.bytes), (0, 0), "ack drained the buffer");
        assert_eq!(
            mreg.snapshot().class_total(MemClass::RelayBuf).bytes_hwm,
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
        let mut last = Ok(Vec::new());
        for _ in 0..=MAX_ATTEMPTS {
            last = relay.on_tick(&mut net, 1, "drop 1.00 (fault seed 0x7)", &reg);
        }
        let err = last.expect_err("attempt budget exhausted");
        assert!(err.message.contains("gave up"), "{}", err.message);
        assert!(
            err.message.contains("decision broadcast"),
            "{}",
            err.message
        );
        assert!(err.message.contains("drop 1.00"), "{}", err.message);
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
        let table = mreg.snapshot().class_total(MemClass::DedupTable);
        assert_eq!((table.live, table.bytes), (0, 0), "drained to watermark");
        assert!(
            table.bytes_hwm >= DEDUP_ENTRY_BYTES,
            "peak recorded while the gap was open"
        );
    }
}
