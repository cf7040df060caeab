//! Memory/state telemetry: per-machine, per-retention-class residency
//! accounting with retention attribution, always on like the
//! [`crate::obs::flow::FlowRegistry`].
//!
//! Every bag buffer the runtime retains is charged to exactly one
//! [`MemClass`] when it grows and credited when Release-based GC (or the
//! relay's ack/compaction machinery) frees it:
//!
//! * [`MemClass::AwaitingInputs`] — buffered input bags in
//!   `Host::inputs` (charged in `on_data`/`on_done`, credited by the
//!   `start_bag` retain-GC and the end-of-run sweep);
//! * [`MemClass::AwaitingBarrier`] — elements parked on undecided
//!   conditional output edges (charged in `emit_all`, credited when
//!   `advance_watchers` resolves the edge to Send or Drop);
//! * [`MemClass::HoistCache`] — the deliberate loop-invariant cache
//!   (`Host::kept` build tables), the one class allowed to stay resident
//!   after a clean run;
//! * [`MemClass::RelayBuf`] — unacked envelopes in the relay's
//!   retransmit buffer (charged in `Relay::send_via`, credited on ack);
//! * [`MemClass::DedupTable`] — `(src, seq)` dedup entries above the
//!   relay's compaction watermark.
//!
//! Design constraints, matching the flow registry and flight recorder:
//! - **Zero virtual time**: no charge/credit touches [`crate::rt::Net`],
//!   so accounting cannot move a simulated result.
//! - **Sharded single writers**: each `(machine, class)` shard is written
//!   only by that machine's worker thread, so relaxed atomics suffice.
//!
//! High-water marks are maintained inline on every charge (default runs
//! never tick) and refreshed from the gauges on the drivers' existing
//! sampling ticks via [`MemRegistry::sample`]. A [`MemReport`] snapshot
//! is attached to [`crate::engine::EngineResult::mem`], rendered by
//! `mitos mem`, the residency rows in `explain`, the DOT residency heat
//! overlay, the `mitos_mem_*` Prometheus series and the `--watch`
//! peak-resident line; retained-state attribution lines land in
//! [`crate::obs::watchdog::StallReport::retained`]. The headline
//! correctness payoff is the **leak detector**:
//! [`MemReport::non_cache_resident`] must be zero after a fault-free run,
//! and the relay classes must drain to their compaction watermark at
//! quiescence under faults.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::LogicalGraph;
use crate::obs::event::OP_NONE;
use crate::obs::flow::fmt_bytes;

/// All counter traffic is single-writer-per-shard (or commutative adds),
/// so relaxed ordering is sufficient everywhere.
const RELAXED: Ordering = Ordering::Relaxed;

/// Approximate bytes of one `(src, seq)` dedup-table entry.
pub const DEDUP_ENTRY_BYTES: u64 = 8;

/// Per-envelope overhead of a relay [`crate::rt::Msg::Reliable`] wrapper,
/// matching the wire-byte surcharge the relay itself pays.
pub const ENVELOPE_BYTES: u64 = 24;

/// Why a resident bag (or bag-shaped buffer) is still in memory — the
/// retention attribution axis of the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemClass {
    /// Buffered input bags a host keeps for assembly and possible
    /// re-selection (loop-invariant inputs select an old occurrence).
    AwaitingInputs = 0,
    /// Elements parked on a conditional output edge whose send/drop
    /// decision has not arrived yet.
    AwaitingBarrier = 1,
    /// The deliberate loop-invariant cache: a Join build table or Cross
    /// side kept across bag instances by hoisting.
    HoistCache = 2,
    /// Unacknowledged envelopes in the relay's retransmit buffer.
    RelayBuf = 3,
    /// `(src, seq)` entries above the relay dedup watermark.
    DedupTable = 4,
}

/// Number of [`MemClass`] variants (shard array size).
pub const MEM_CLASSES: usize = 5;

impl MemClass {
    /// Every class, in shard order.
    pub const ALL: [MemClass; MEM_CLASSES] = [
        MemClass::AwaitingInputs,
        MemClass::AwaitingBarrier,
        MemClass::HoistCache,
        MemClass::RelayBuf,
        MemClass::DedupTable,
    ];

    /// Stable human-readable label (also the Prometheus `class` label).
    pub fn label(self) -> &'static str {
        match self {
            MemClass::AwaitingInputs => "awaiting-inputs",
            MemClass::AwaitingBarrier => "awaiting-barrier",
            MemClass::HoistCache => "hoist-cache",
            MemClass::RelayBuf => "relay-buf",
            MemClass::DedupTable => "dedup-table",
        }
    }

    /// Whether residency in this class after a clean run is deliberate
    /// (excluded from the leak detector).
    pub fn is_cache(self) -> bool {
        matches!(self, MemClass::HoistCache)
    }
}

/// Gauges for one `(machine, class)` shard. Single writer: that machine's
/// worker thread.
#[derive(Debug, Default)]
struct ClassShard {
    live: AtomicU64,
    elems: AtomicU64,
    bytes: AtomicU64,
    bytes_hwm: AtomicU64,
}

/// One machine's shards plus its all-class resident total.
#[derive(Debug, Default)]
struct MachineShard {
    classes: [ClassShard; MEM_CLASSES],
    resident: AtomicU64,
    resident_hwm: AtomicU64,
}

/// Saturating decrement: a credit without a matching charge (never
/// expected) must not wrap the gauge.
fn sat_sub(gauge: &AtomicU64, v: u64) {
    let _ = gauge.fetch_update(RELAXED, RELAXED, |x| Some(x.saturating_sub(v)));
}

fn raise_hwm(hwm: &AtomicU64, now: u64) {
    if now > hwm.load(RELAXED) {
        hwm.store(now, RELAXED);
    }
}

/// The engine-wide memory-accounting registry, shared through
/// [`crate::rt::EngineShared`] next to the flow registry.
#[derive(Debug)]
pub struct MemRegistry {
    machines: Vec<MachineShard>,
    /// Per-`(machine, op)` resident bytes, machine-major — operator
    /// attribution for the DOT residency heat overlay.
    op_bytes: Vec<AtomicU64>,
    op_bytes_hwm: Vec<AtomicU64>,
    ops: usize,
}

impl MemRegistry {
    /// Allocates per-`(machine, class)` and per-`(machine, op)` shards for
    /// a graph with `ops` operators on `machines` machines.
    pub fn new(machines: u16, ops: usize) -> MemRegistry {
        let n = machines as usize;
        MemRegistry {
            machines: (0..n).map(|_| MachineShard::default()).collect(),
            op_bytes: (0..n * ops).map(|_| AtomicU64::new(0)).collect(),
            op_bytes_hwm: (0..n * ops).map(|_| AtomicU64::new(0)).collect(),
            ops,
        }
    }

    /// Charges `bags` live bags, `elems` elements and `bytes` approximate
    /// bytes of residency to `(machine, class)`, attributing the bytes to
    /// operator `op` for the heat overlay ([`OP_NONE`] for machine-level
    /// state like the relay's buffers). High-water marks update inline so
    /// peaks are captured even on runs without sampling ticks.
    #[inline]
    pub fn charge(
        &self,
        class: MemClass,
        machine: u16,
        op: u32,
        bags: u64,
        elems: u64,
        bytes: u64,
    ) {
        let Some(shard) = self.machines.get(machine as usize) else {
            return;
        };
        let c = &shard.classes[class as usize];
        c.live.fetch_add(bags, RELAXED);
        c.elems.fetch_add(elems, RELAXED);
        raise_hwm(&c.bytes_hwm, c.bytes.fetch_add(bytes, RELAXED) + bytes);
        raise_hwm(
            &shard.resident_hwm,
            shard.resident.fetch_add(bytes, RELAXED) + bytes,
        );
        if op != OP_NONE {
            let idx = machine as usize * self.ops + op as usize;
            if let (Some(g), Some(h)) = (self.op_bytes.get(idx), self.op_bytes_hwm.get(idx)) {
                raise_hwm(h, g.fetch_add(bytes, RELAXED) + bytes);
            }
        }
    }

    /// Credits residency back on Release/GC — the inverse of
    /// [`MemRegistry::charge`], with the same `(class, machine, op)` key.
    #[inline]
    pub fn credit(
        &self,
        class: MemClass,
        machine: u16,
        op: u32,
        bags: u64,
        elems: u64,
        bytes: u64,
    ) {
        let Some(shard) = self.machines.get(machine as usize) else {
            return;
        };
        let c = &shard.classes[class as usize];
        sat_sub(&c.live, bags);
        sat_sub(&c.elems, elems);
        sat_sub(&c.bytes, bytes);
        sat_sub(&shard.resident, bytes);
        if op != OP_NONE {
            if let Some(g) = self.op_bytes.get(machine as usize * self.ops + op as usize) {
                sat_sub(g, bytes);
            }
        }
    }

    /// One sample from a driver's existing sampling loop: refreshes every
    /// high-water mark from its gauge. Never touches the
    /// [`crate::rt::Net`], so sampling stays free of virtual time.
    pub fn sample(&self) {
        for shard in &self.machines {
            for c in &shard.classes {
                raise_hwm(&c.bytes_hwm, c.bytes.load(RELAXED));
            }
            raise_hwm(&shard.resident_hwm, shard.resident.load(RELAXED));
        }
        for (g, h) in self.op_bytes.iter().zip(&self.op_bytes_hwm) {
            raise_hwm(h, g.load(RELAXED));
        }
    }

    /// The `--watch` peak-resident cell: `(current resident bytes, peak)`
    /// across all machines and classes. `None` until any state was
    /// resident, keeping quiet watch tables byte-stable.
    pub fn watch_cell(&self) -> Option<(u64, u64)> {
        let cur: u64 = self.machines.iter().map(|s| s.resident.load(RELAXED)).sum();
        let peak: u64 = self
            .machines
            .iter()
            .map(|s| s.resident_hwm.load(RELAXED))
            .sum();
        (peak > 0).then_some((cur, peak))
    }

    /// An immutable snapshot of every gauge and watermark. Relaxed reads
    /// over single-writer shards: taken after the drivers join (or at a
    /// stall), when the writers have quiesced.
    pub fn snapshot(&self) -> MemReport {
        let machines = self
            .machines
            .iter()
            .map(|s| MachineMem {
                classes: s
                    .classes
                    .iter()
                    .map(|c| ClassMem {
                        live: c.live.load(RELAXED),
                        elems: c.elems.load(RELAXED),
                        bytes: c.bytes.load(RELAXED),
                        bytes_hwm: c.bytes_hwm.load(RELAXED),
                    })
                    .collect(),
                resident: s.resident.load(RELAXED),
                resident_hwm: s.resident_hwm.load(RELAXED),
            })
            .collect();
        let mut op_bytes = vec![0u64; self.ops];
        let mut op_bytes_hwm = vec![0u64; self.ops];
        for m in 0..self.machines.len() {
            for op in 0..self.ops {
                op_bytes[op] += self.op_bytes[m * self.ops + op].load(RELAXED);
                op_bytes_hwm[op] += self.op_bytes_hwm[m * self.ops + op].load(RELAXED);
            }
        }
        MemReport {
            machines,
            op_bytes,
            op_bytes_hwm,
        }
    }
}

/// Residency totals of one `(machine, class)` shard (or an aggregation of
/// several).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassMem {
    /// Live bags (or bag-shaped buffers: relay envelopes, dedup entries).
    pub live: u64,
    /// Resident elements.
    pub elems: u64,
    /// Approximate resident bytes.
    pub bytes: u64,
    /// High-water mark of `bytes`.
    pub bytes_hwm: u64,
}

impl ClassMem {
    fn add(&mut self, other: &ClassMem) {
        self.live += other.live;
        self.elems += other.elems;
        self.bytes += other.bytes;
        self.bytes_hwm += other.bytes_hwm;
    }
}

/// One machine's complete residency totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MachineMem {
    /// Per-class shards, indexed by [`MemClass`] discriminant.
    pub classes: Vec<ClassMem>,
    /// Current resident bytes across all classes.
    pub resident: u64,
    /// High-water mark of `resident`.
    pub resident_hwm: u64,
}

/// An immutable snapshot of the whole registry — the value behind
/// [`crate::engine::EngineResult::mem`] and `Outcome::mem()`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemReport {
    /// Per-machine totals, indexed by machine.
    pub machines: Vec<MachineMem>,
    /// Current resident bytes per operator (summed over machines).
    pub op_bytes: Vec<u64>,
    /// Peak resident bytes per operator (summed over machines).
    pub op_bytes_hwm: Vec<u64>,
}

impl MemReport {
    /// Current resident bytes across all machines and classes.
    pub fn resident_total(&self) -> u64 {
        self.machines.iter().map(|m| m.resident).sum()
    }

    /// Peak resident bytes (sum of per-machine high-water marks).
    pub fn peak_resident(&self) -> u64 {
        self.machines.iter().map(|m| m.resident_hwm).sum()
    }

    /// Aggregated totals of one class across machines (`bytes_hwm` is the
    /// sum of per-machine peaks).
    pub fn class_total(&self, class: MemClass) -> ClassMem {
        let mut total = ClassMem::default();
        for m in &self.machines {
            if let Some(c) = m.classes.get(class as usize) {
                total.add(c);
            }
        }
        total
    }

    /// The leak detector: everything currently resident outside the
    /// deliberate caches ([`MemClass::is_cache`]). A fault-free run must
    /// end with this at zero — buffered inputs swept at exit, barrier
    /// buffers resolved, relay buffers acked, dedup tables compacted.
    pub fn non_cache_resident(&self) -> ClassMem {
        let mut total = ClassMem::default();
        for class in MemClass::ALL {
            if !class.is_cache() {
                let c = self.class_total(class);
                total.live += c.live;
                total.elems += c.elems;
                total.bytes += c.bytes;
            }
        }
        total
    }

    /// Whether the run ended leak-free: zero live bags and bytes outside
    /// the deliberate caches.
    pub fn leak_free(&self) -> bool {
        let r = self.non_cache_resident();
        r.live == 0 && r.bytes == 0
    }

    /// Retained-state attribution lines for
    /// [`crate::obs::watchdog::StallReport`]: one per `(machine, class)`
    /// with live residency, machines in order. Empty when nothing is
    /// resident, keeping healthy reports byte-stable.
    pub fn retained_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (m, shard) in self.machines.iter().enumerate() {
            for class in MemClass::ALL {
                let Some(c) = shard.classes.get(class as usize) else {
                    continue;
                };
                if c.live == 0 && c.bytes == 0 {
                    continue;
                }
                lines.push(format!(
                    "m{m} {}: {} bag(s), {} elem(s), {}{}",
                    class.label(),
                    c.live,
                    c.elems,
                    fmt_bytes(c.bytes),
                    if class.is_cache() {
                        " (deliberate)"
                    } else {
                        ""
                    },
                ));
            }
        }
        lines
    }

    /// Operators ordered by peak resident bytes (hottest first, ties
    /// toward the lowest id), omitting operators that never held state.
    pub fn ops_by_peak(&self) -> Vec<(u32, u64, u64)> {
        let mut ops: Vec<(u32, u64, u64)> = self
            .op_bytes_hwm
            .iter()
            .enumerate()
            .filter(|&(_, &peak)| peak > 0)
            .map(|(op, &peak)| (op as u32, peak, self.op_bytes[op]))
            .collect();
        ops.sort_by_key(|&(op, peak, _)| (std::cmp::Reverse(peak), op));
        ops
    }

    /// The `mitos mem` text report: residency by class, the leak-detector
    /// verdict, per-machine totals, and the top operators by peak
    /// resident bytes.
    pub fn render(&self, graph: &LogicalGraph) -> String {
        let mut out = String::new();
        out.push_str("state residency by class:\n");
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>10} {:>10} {:>10}",
            "class", "live bags", "elements", "bytes", "peak"
        );
        for class in MemClass::ALL {
            let c = self.class_total(class);
            let _ = writeln!(
                out,
                "{:<18} {:>10} {:>10} {:>10} {:>10}",
                class.label(),
                c.live,
                c.elems,
                fmt_bytes(c.bytes),
                fmt_bytes(c.bytes_hwm),
            );
        }
        let _ = writeln!(
            out,
            "total resident: {} (peak {})",
            fmt_bytes(self.resident_total()),
            fmt_bytes(self.peak_resident()),
        );
        let nc = self.non_cache_resident();
        if self.leak_free() {
            out.push_str("non-cache resident: 0 bags, 0B (leak-free)\n");
        } else {
            let _ = writeln!(
                out,
                "non-cache resident: {} bag(s), {} — retained state outside deliberate caches",
                nc.live,
                fmt_bytes(nc.bytes),
            );
        }
        out.push_str("\nper-machine:\n");
        let _ = writeln!(out, "{:>8} {:>12} {:>12}", "machine", "resident", "peak");
        for (m, shard) in self.machines.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>8} {:>12} {:>12}",
                format!("m{m}"),
                fmt_bytes(shard.resident),
                fmt_bytes(shard.resident_hwm),
            );
        }
        let ops = self.ops_by_peak();
        if !ops.is_empty() {
            out.push_str("\ntop operators by peak resident bytes:\n");
            for (op, peak, now) in ops {
                let name = graph.nodes.get(op as usize).map_or("?", |n| &*n.name);
                let _ = writeln!(
                    out,
                    "{:<28} {:>10} (now {})",
                    name,
                    fmt_bytes(peak),
                    fmt_bytes(now),
                );
            }
        }
        out
    }

    /// Per-class residency rows for the `explain` report. Empty output
    /// when no state was ever resident, keeping existing explain output
    /// byte-stable.
    pub fn explain_rows(&self) -> String {
        if self.peak_resident() == 0 {
            return String::new();
        }
        let mut out = String::new();
        out.push_str("\nstate residency (memory):\n");
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>10} {:>10}",
            "class", "live bags", "bytes", "peak"
        );
        for class in MemClass::ALL {
            let c = self.class_total(class);
            if c.bytes_hwm == 0 && c.live == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<18} {:>10} {:>10} {:>10}",
                class.label(),
                c.live,
                fmt_bytes(c.bytes),
                fmt_bytes(c.bytes_hwm),
            );
        }
        let _ = writeln!(
            out,
            "peak resident {} across {} machine(s); {}",
            fmt_bytes(self.peak_resident()),
            self.machines.len(),
            if self.leak_free() {
                "leak-free".to_string()
            } else {
                let nc = self.non_cache_resident();
                format!("{} non-cache bag(s) retained", nc.live)
            },
        );
        out
    }

    /// `mitos_mem_*` Prometheus series in text exposition format,
    /// appended to the phase histograms and flow series under
    /// `--metrics-out`.
    pub fn prometheus(&self, graph: &LogicalGraph) -> String {
        let mut out = String::new();
        out.push_str("# HELP mitos_mem_resident_bytes Resident state bytes per machine and retention class.\n");
        out.push_str("# TYPE mitos_mem_resident_bytes gauge\n");
        for (m, shard) in self.machines.iter().enumerate() {
            for class in MemClass::ALL {
                let c = &shard.classes[class as usize];
                let _ = writeln!(
                    out,
                    "mitos_mem_resident_bytes{{machine=\"{m}\",class=\"{}\"}} {}",
                    class.label(),
                    c.bytes
                );
            }
        }
        out.push_str("# HELP mitos_mem_resident_bytes_peak High-water mark of resident bytes per machine and class.\n");
        out.push_str("# TYPE mitos_mem_resident_bytes_peak gauge\n");
        for (m, shard) in self.machines.iter().enumerate() {
            for class in MemClass::ALL {
                let c = &shard.classes[class as usize];
                let _ = writeln!(
                    out,
                    "mitos_mem_resident_bytes_peak{{machine=\"{m}\",class=\"{}\"}} {}",
                    class.label(),
                    c.bytes_hwm
                );
            }
        }
        out.push_str(
            "# HELP mitos_mem_resident_bags Live resident bags per machine and retention class.\n",
        );
        out.push_str("# TYPE mitos_mem_resident_bags gauge\n");
        for (m, shard) in self.machines.iter().enumerate() {
            for class in MemClass::ALL {
                let c = &shard.classes[class as usize];
                let _ = writeln!(
                    out,
                    "mitos_mem_resident_bags{{machine=\"{m}\",class=\"{}\"}} {}",
                    class.label(),
                    c.live
                );
            }
        }
        out.push_str("# HELP mitos_mem_machine_resident_bytes Resident state bytes per machine, all classes.\n");
        out.push_str("# TYPE mitos_mem_machine_resident_bytes gauge\n");
        for (m, shard) in self.machines.iter().enumerate() {
            let _ = writeln!(
                out,
                "mitos_mem_machine_resident_bytes{{machine=\"{m}\"}} {}",
                shard.resident
            );
        }
        out.push_str("# HELP mitos_mem_op_resident_bytes_peak Peak resident bytes per operator.\n");
        out.push_str("# TYPE mitos_mem_op_resident_bytes_peak gauge\n");
        for (op, peak, _) in self.ops_by_peak() {
            let name = graph.nodes.get(op as usize).map_or("?", |n| &*n.name);
            let _ = writeln!(
                out,
                "mitos_mem_op_resident_bytes_peak{{op=\"{op}\",name=\"{name}\"}} {peak}"
            );
        }
        out
    }

    /// Serializes the report as deterministic JSON (hand-rolled, no
    /// external dependencies) — the machine-readable counterpart of
    /// [`MemReport::render`], embedded in `mitos explain --json`.
    pub fn to_json(&self, graph: &LogicalGraph) -> String {
        let nc = self.non_cache_resident();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"resident_bytes\":{},\"peak_resident_bytes\":{},\"leak_free\":{},\
             \"non_cache_bags\":{},\"non_cache_bytes\":{},\"classes\":[",
            self.resident_total(),
            self.peak_resident(),
            self.leak_free(),
            nc.live,
            nc.bytes,
        );
        for (i, class) in MemClass::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let c = self.class_total(class);
            let _ = write!(
                out,
                "{{\"class\":{},\"live\":{},\"elems\":{},\"bytes\":{},\"peak_bytes\":{}}}",
                super::json_str(class.label()),
                c.live,
                c.elems,
                c.bytes,
                c.bytes_hwm,
            );
        }
        out.push_str("],\"machines\":[");
        for (m, shard) in self.machines.iter().enumerate() {
            if m > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"machine\":{m},\"resident_bytes\":{},\"peak_bytes\":{}}}",
                shard.resident, shard.resident_hwm,
            );
        }
        out.push_str("],\"ops\":[");
        for (i, (op, peak, now)) in self.ops_by_peak().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = graph.nodes.get(op as usize).map_or("?", |n| &*n.name);
            let _ = write!(
                out,
                "{{\"op\":{op},\"name\":{},\"peak_bytes\":{peak},\"bytes\":{now}}}",
                super::json_str(name),
            );
        }
        out.push_str("]}");
        out
    }
}

/// Approximate heap bytes of a slice of values — the same estimator the
/// cost model uses for wire bytes, without the per-batch envelope.
pub fn elems_bytes(elems: &[mitos_lang::Value]) -> u64 {
    elems.iter().map(mitos_lang::Value::estimated_bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph() -> LogicalGraph {
        let func = mitos_ir::compile_str(
            r#"
            b = readFile("f").map(x => (x % 2, 1)).reduceByKey((a, b) => a + b);
            output(b.count(), "n");
            "#,
        )
        .unwrap();
        LogicalGraph::build(&func).unwrap()
    }

    #[test]
    fn charges_credit_and_track_peaks() {
        let reg = MemRegistry::new(2, 4);
        reg.charge(MemClass::AwaitingInputs, 0, 1, 2, 10, 100);
        reg.charge(MemClass::AwaitingInputs, 0, 1, 1, 5, 50);
        reg.charge(MemClass::HoistCache, 1, 2, 1, 3, 30);
        reg.credit(MemClass::AwaitingInputs, 0, 1, 1, 5, 50);
        let r = reg.snapshot();
        let ai = r.class_total(MemClass::AwaitingInputs);
        assert_eq!((ai.live, ai.elems, ai.bytes), (2, 10, 100));
        assert_eq!(ai.bytes_hwm, 150, "peak captured inline, before credit");
        assert_eq!(r.resident_total(), 130);
        assert_eq!(r.peak_resident(), 180);
        assert_eq!(r.op_bytes[1], 100);
        assert_eq!(r.op_bytes_hwm[1], 150);
        assert_eq!(r.machines[1].resident, 30);
        assert!(!r.leak_free(), "awaiting-inputs still resident");
        reg.credit(MemClass::AwaitingInputs, 0, 1, 2, 10, 100);
        let r = reg.snapshot();
        assert!(r.leak_free(), "only the hoist cache remains");
        assert_eq!(r.resident_total(), 30);
    }

    #[test]
    fn credits_saturate_instead_of_wrapping() {
        let reg = MemRegistry::new(1, 1);
        reg.charge(MemClass::RelayBuf, 0, OP_NONE, 1, 0, 40);
        reg.credit(MemClass::RelayBuf, 0, OP_NONE, 2, 5, 100);
        let r = reg.snapshot();
        let c = r.class_total(MemClass::RelayBuf);
        assert_eq!((c.live, c.elems, c.bytes), (0, 0, 0));
        assert_eq!(r.resident_total(), 0);
    }

    #[test]
    fn sample_refreshes_watermarks_and_watch_cell() {
        let reg = MemRegistry::new(1, 2);
        assert_eq!(reg.watch_cell(), None, "nothing resident yet");
        reg.charge(MemClass::AwaitingBarrier, 0, 0, 1, 4, 64);
        reg.sample();
        assert_eq!(reg.watch_cell(), Some((64, 64)));
        reg.credit(MemClass::AwaitingBarrier, 0, 0, 1, 4, 64);
        assert_eq!(reg.watch_cell(), Some((0, 64)), "peak survives the credit");
    }

    #[test]
    fn retained_lines_stay_empty_when_drained() {
        let reg = MemRegistry::new(2, 1);
        assert!(reg.snapshot().retained_lines().is_empty());
        reg.charge(MemClass::DedupTable, 1, OP_NONE, 3, 0, 24);
        reg.charge(MemClass::HoistCache, 0, 0, 1, 2, 20);
        let lines = reg.snapshot().retained_lines();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert!(lines[0].contains("hoist-cache") && lines[0].contains("(deliberate)"));
        assert!(lines[1].contains("m1 dedup-table: 3 bag(s)"), "{lines:?}");
        reg.credit(MemClass::DedupTable, 1, OP_NONE, 3, 0, 24);
        let lines = reg.snapshot().retained_lines();
        assert_eq!(lines.len(), 1, "dedup drained to watermark: {lines:?}");
    }

    #[test]
    fn render_prometheus_and_json_cover_classes_and_ops() {
        let graph = toy_graph();
        let reg = MemRegistry::new(2, graph.nodes.len());
        reg.charge(MemClass::AwaitingInputs, 0, 0, 1, 40, 400);
        let r = reg.snapshot();
        let text = r.render(&graph);
        assert!(text.contains("state residency by class"), "{text}");
        assert!(text.contains("awaiting-inputs"), "{text}");
        assert!(text.contains("400B"), "{text}");
        assert!(
            text.contains("top operators by peak resident bytes"),
            "{text}"
        );
        let prom = r.prometheus(&graph);
        assert!(
            prom.contains("# TYPE mitos_mem_resident_bytes gauge"),
            "{prom}"
        );
        assert!(
            prom.contains("mitos_mem_resident_bytes{machine=\"0\",class=\"awaiting-inputs\"} 400"),
            "{prom}"
        );
        assert!(
            prom.contains("mitos_mem_op_resident_bytes_peak{op=\"0\""),
            "{prom}"
        );
        let json = r.to_json(&graph);
        assert!(json.starts_with("{\"resident_bytes\":"), "{json}");
        assert!(json.contains("\"class\":\"awaiting-inputs\""), "{json}");
        assert!(json.contains("\"leak_free\":false"), "{json}");
        let rows = r.explain_rows();
        assert!(rows.contains("state residency (memory)"), "{rows}");
        // A quiet report contributes nothing to explain.
        assert_eq!(
            MemRegistry::new(2, graph.nodes.len())
                .snapshot()
                .explain_rows(),
            ""
        );
        reg.credit(MemClass::AwaitingInputs, 0, 0, 1, 40, 400);
        let text = reg.snapshot().render(&graph);
        assert!(text.contains("leak-free"), "{text}");
    }
}
