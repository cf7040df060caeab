//! Always-on per-worker flight recorder: a fixed-size lock-free ring of
//! the last few protocol messages each worker handled, captured even at
//! [`crate::obs::ObsLevel::Off`].
//!
//! Design constraints (and how they are met):
//! - **Fixed memory**: one lane of [`FLIGHT_SLOTS`] slots per machine,
//!   allocated once at engine start — `machines × 64 × 16` bytes, never
//!   grown.
//! - **Zero virtual time**: recording never touches [`crate::rt::Net`],
//!   so the simulator's clock is unaffected *by construction*.
//! - **Lock-free**: each lane has a single writer (its worker), so a
//!   relaxed `fetch_add` cursor plus relaxed slot stores suffice; the
//!   dumper may observe a torn `(t_ns, word)` pair for the slot being
//!   overwritten at that instant, which is acceptable for a post-mortem
//!   aid and documented in the dump header.
//!
//! Dumps are attached to [`crate::obs::watchdog::StallReport`] and the
//! fault post-mortems, so a stalled or crashed run always shows the last
//! few messages every worker saw — regardless of the obs level.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::obs::fmt_ns;
use crate::rt::Msg;

/// Ring capacity per worker lane. 64 events × 16 bytes = 1 KiB per
/// worker, enough to cover several protocol steps of history.
pub const FLIGHT_SLOTS: usize = 64;

/// Message codes packed into the high byte of a slot word.
const CODE_DECISION: u64 = 1;
const CODE_DATA: u64 = 2;
const CODE_BAG_DONE: u64 = 3;
const CODE_BAG_COMPUTED: u64 = 4;
const CODE_RELEASE: u64 = 5;
const CODE_IO_DONE: u64 = 6;
const CODE_RELIABLE: u64 = 7;
const CODE_ACK: u64 = 8;
const CODE_RETRY_TICK: u64 = 9;
const CODE_START: u64 = 10;

/// One ring slot: timestamp + packed `code << 56 | detail` word.
#[derive(Debug)]
struct Slot {
    t_ns: AtomicU64,
    word: AtomicU64,
}

/// One worker's ring: a monotone cursor plus [`FLIGHT_SLOTS`] slots.
#[derive(Debug)]
struct Lane {
    cursor: AtomicU64,
    slots: Box<[Slot]>,
}

/// The engine-wide flight recorder: one lane per machine, shared
/// through [`crate::rt::EngineShared`].
#[derive(Debug)]
pub struct FlightRecorder {
    lanes: Vec<Lane>,
}

impl FlightRecorder {
    /// Allocates one lane per machine.
    pub fn new(machines: u16) -> FlightRecorder {
        let lanes = (0..machines)
            .map(|_| Lane {
                cursor: AtomicU64::new(0),
                slots: (0..FLIGHT_SLOTS)
                    .map(|_| Slot {
                        t_ns: AtomicU64::new(0),
                        word: AtomicU64::new(0),
                    })
                    .collect(),
            })
            .collect();
        FlightRecorder { lanes }
    }

    /// Records one handled message into `machine`'s lane. Never reads the
    /// clock itself — `now_ns` is the caller's already-read timestamp —
    /// and never touches the [`crate::rt::Net`], so recording charges
    /// zero virtual time. Single branch + two relaxed stores.
    #[inline]
    pub fn record(&self, machine: u16, now_ns: u64, msg: &Msg) {
        let Some(lane) = self.lanes.get(machine as usize) else {
            return;
        };
        let (code, detail) = encode(msg);
        let i = lane.cursor.fetch_add(1, Ordering::Relaxed) as usize % FLIGHT_SLOTS;
        lane.slots[i].t_ns.store(now_ns, Ordering::Relaxed);
        lane.slots[i]
            .word
            .store((code << 56) | (detail & ((1 << 56) - 1)), Ordering::Relaxed);
    }

    /// Decodes every lane's ring, oldest event first, one line per
    /// machine: `m3: decision(2)@1.20ms | data(5)@1.21ms | ...`.
    /// Reads are relaxed, so a slot being overwritten concurrently may
    /// render torn — acceptable for a post-mortem aid.
    pub fn dump_lines(&self) -> Vec<String> {
        self.lanes
            .iter()
            .enumerate()
            .map(|(m, lane)| {
                let written = lane.cursor.load(Ordering::Relaxed);
                let n = (written as usize).min(FLIGHT_SLOTS);
                let start = written as usize - n;
                let entries: Vec<String> = (start..written as usize)
                    .map(|j| {
                        let slot = &lane.slots[j % FLIGHT_SLOTS];
                        let t = slot.t_ns.load(Ordering::Relaxed);
                        let word = slot.word.load(Ordering::Relaxed);
                        let detail = word & ((1 << 56) - 1);
                        format!("{}({detail})@{}", code_name(word >> 56), fmt_ns(t))
                    })
                    .collect();
                if entries.is_empty() {
                    format!("m{m}: (no events)")
                } else {
                    format!("m{m}: {}", entries.join(" | "))
                }
            })
            .collect()
    }
}

/// Packs a message into `(code, detail)`: the detail operand is the
/// field most useful in a post-mortem (step index, bag length, seq, …).
fn encode(msg: &Msg) -> (u64, u64) {
    match msg {
        Msg::Start => (CODE_START, 0),
        Msg::Decision { index, .. } => (CODE_DECISION, *index as u64),
        Msg::Data { bag_len, .. } => (CODE_DATA, *bag_len as u64),
        Msg::BagDone { bag_len, .. } => (CODE_BAG_DONE, *bag_len as u64),
        Msg::BagComputed { pos, .. } => (CODE_BAG_COMPUTED, *pos as u64),
        Msg::Release { pos } => (CODE_RELEASE, *pos as u64),
        Msg::IoDone { op, .. } => (CODE_IO_DONE, *op as u64),
        Msg::Reliable { seq, .. } => (CODE_RELIABLE, *seq),
        Msg::Ack { seq, .. } => (CODE_ACK, *seq),
        Msg::RetryTick { peer } => (CODE_RETRY_TICK, *peer as u64),
    }
}

fn code_name(code: u64) -> &'static str {
    match code {
        CODE_DECISION => "decision",
        CODE_DATA => "data",
        CODE_BAG_DONE => "bag_done",
        CODE_BAG_COMPUTED => "bag_computed",
        CODE_RELEASE => "release",
        CODE_IO_DONE => "io_done",
        CODE_RELIABLE => "reliable",
        CODE_ACK => "ack",
        CODE_RETRY_TICK => "retry_tick",
        CODE_START => "start",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_dumps_in_order() {
        let rec = FlightRecorder::new(2);
        rec.record(0, 100, &Msg::Release { pos: 7 });
        rec.record(0, 200, &Msg::RetryTick { peer: 0 });
        rec.record(1, 150, &Msg::Release { pos: 3 });
        let lines = rec.dump_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("release(7)@100ns | retry_tick(0)@200ns"));
        assert!(lines[1].contains("release(3)@150ns"));
    }

    #[test]
    fn ring_keeps_only_last_slots() {
        let rec = FlightRecorder::new(1);
        for i in 0..(FLIGHT_SLOTS as u32 + 10) {
            rec.record(0, i as u64, &Msg::Release { pos: i });
        }
        let lines = rec.dump_lines();
        // The first 10 entries were overwritten.
        assert!(!lines[0].contains("release(0)@"));
        assert!(lines[0].contains(&format!("release({})", FLIGHT_SLOTS as u32 + 9)));
        assert_eq!(lines[0].matches("release(").count(), FLIGHT_SLOTS);
    }

    #[test]
    fn out_of_range_machine_is_ignored() {
        let rec = FlightRecorder::new(1);
        rec.record(9, 1, &Msg::RetryTick { peer: 0 });
        let lines = rec.dump_lines();
        assert_eq!(lines.len(), 1);
    }
}
