//! The one store behind every always-on counter: [`Counters`], rows of
//! `AtomicU64` cells addressed by `(machine, K)` for a typed [`Key`] `K`.
//!
//! Rows are machine-major and each starts on its own 128-byte boundary,
//! so two workers never share a cache line. Three key families use it,
//! each as its own store: [`super::flow::Flow`] (per-edge traffic),
//! [`super::mem::Mem`] (residency gauges) and [`super::live::Live`]
//! (progress, per-operator and template counters). A per-operator count
//! is one cell per `(machine, op)`, summed over machines when read.
//!
//! **Every cell has one writer**, so an update is a relaxed load and a
//! relaxed store, never a read-modify-write. A machine's row is written
//! by its worker thread, except the flow family's inbox and backpressure
//! cells, which only the drivers' queue sampler writes. Readers load each
//! cell on its own: a read taken mid-run is not one consistent cut, but a
//! monotone counter never reads backwards. No update touches
//! [`crate::rt::Net`], so counting charges zero virtual time.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Names one cell of a machine's row. A cell at or past the store's row
/// width does not exist: updates to it are dropped and it reads 0.
pub trait Key: Copy {
    /// The cell's index within a row.
    fn cell(self) -> usize;
}

/// Cells per 128-byte line.
const LINE: usize = 16;

#[derive(Debug, Default)]
#[repr(align(128))]
struct Line([AtomicU64; LINE]);

/// A machine-major store of single-writer `u64` cells.
#[derive(Debug)]
pub struct Counters<K> {
    lines: Box<[Line]>,
    machines: usize,
    width: usize,
    stride: usize,
    _key: PhantomData<fn(K)>,
}

impl<K: Key> Counters<K> {
    /// A zeroed store of `machines` rows of `width` cells.
    pub(crate) fn zeroed(machines: u16, width: usize) -> Counters<K> {
        let stride = width.div_ceil(LINE) * LINE;
        let machines = machines as usize;
        let lines = (0..machines * stride / LINE).map(|_| Line::default());
        Counters {
            lines: lines.collect(),
            machines,
            width,
            stride,
            _key: PhantomData,
        }
    }

    fn at(&self, machine: u16, key: K) -> Option<&AtomicU64> {
        let (m, c) = (machine as usize, key.cell());
        let i = m * self.stride + c;
        (c < self.width && m < self.machines).then(|| &self.lines[i / LINE].0[i % LINE])
    }

    /// Cells per row.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Adds `v` to a counter and returns its new value.
    #[inline]
    pub(crate) fn add(&self, machine: u16, key: K, v: u64) -> u64 {
        self.at(machine, key).map_or(0, |c| {
            let now = c.load(Relaxed) + v;
            c.store(now, Relaxed);
            now
        })
    }

    /// Overwrites a gauge.
    #[inline]
    pub(crate) fn set(&self, machine: u16, key: K, v: u64) {
        if let Some(c) = self.at(machine, key) {
            c.store(v, Relaxed);
        }
    }

    /// Raises a high-water mark to `v` if `v` is higher.
    #[inline]
    pub(crate) fn raise(&self, machine: u16, key: K, v: u64) {
        if let Some(c) = self.at(machine, key).filter(|c| v > c.load(Relaxed)) {
            c.store(v, Relaxed);
        }
    }

    /// Takes `v` off a gauge. A credit larger than the gauge is a bug (a
    /// double credit the leak detector would otherwise miss): debug builds
    /// panic, release builds clamp at zero rather than wrap.
    #[inline]
    pub(crate) fn sub(&self, machine: u16, key: K, v: u64) {
        if let Some(c) = self.at(machine, key) {
            let cur = c.load(Relaxed);
            debug_assert!(cur >= v, "credit of {v} exceeds the gauge's {cur}");
            c.store(cur.saturating_sub(v), Relaxed);
        }
    }

    /// One cell's current value.
    pub fn get(&self, machine: u16, key: K) -> u64 {
        self.at(machine, key).map_or(0, |c| c.load(Relaxed))
    }

    /// A cell's current value summed over machines.
    pub fn total(&self, key: K) -> u64 {
        (0..self.machines as u16).map(|m| self.get(m, key)).sum()
    }

    /// A plain copy of every cell.
    pub fn snapshot(&self) -> Counts<K> {
        let row = |m: usize| (0..self.width).map(move |c| m * self.stride + c);
        let cells = (0..self.machines).flat_map(row);
        Counts {
            cells: cells
                .map(|i| self.lines[i / LINE].0[i % LINE].load(Relaxed))
                .collect(),
            machines: self.machines,
            width: self.width,
            _key: PhantomData,
        }
    }
}

/// A plain copy of a store's cells, addressed like the store.
#[derive(Clone, Debug)]
pub struct Counts<K> {
    cells: Vec<u64>,
    machines: usize,
    width: usize,
    _key: PhantomData<fn(K)>,
}

impl<K: Key> Counts<K> {
    /// Rows (machines).
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// One cell.
    pub fn get(&self, machine: u16, key: K) -> u64 {
        let (m, c) = (machine as usize, key.cell());
        let cell = (c < self.width).then(|| self.cells.get(m * self.width + c));
        cell.flatten().copied().unwrap_or(0)
    }

    /// A cell summed over machines.
    pub fn total(&self, key: K) -> u64 {
        (0..self.machines() as u16).map(|m| self.get(m, key)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy)]
    struct K(usize);
    impl Key for K {
        fn cell(self) -> usize {
            self.0
        }
    }

    #[test]
    fn rows_start_on_their_own_line() {
        let c: Counters<K> = Counters::zeroed(3, 17);
        assert_eq!(c.stride, 32);
        for m in 0..3u16 {
            let addr = c.at(m, K(0)).unwrap() as *const AtomicU64 as usize;
            assert_eq!(addr % 128, 0, "row {m} is 128-byte aligned");
        }
    }

    #[test]
    fn updates_land_in_their_own_row_and_sum_over_machines() {
        let c: Counters<K> = Counters::zeroed(2, 3);
        assert_eq!(c.add(0, K(1), 5), 5);
        assert_eq!(c.add(0, K(1), 2), 7);
        c.add(1, K(1), 10);
        c.set(1, K(0), 4);
        c.raise(0, K(2), 9);
        c.raise(0, K(2), 3);
        c.sub(1, K(1), 4);
        // Out-of-range keys and machines name no cell.
        c.add(0, K(3), 100);
        c.add(2, K(0), 100);
        assert_eq!(c.get(0, K(3)), 0);
        let s = c.snapshot();
        assert_eq!(s.machines(), 2);
        assert_eq!((s.get(0, K(0)), s.get(0, K(1)), s.get(0, K(2))), (0, 7, 9));
        assert_eq!((s.get(1, K(0)), s.get(1, K(1))), (4, 6));
        assert_eq!(s.total(K(1)), 13);
        assert_eq!(c.total(K(1)), 13);
        assert_eq!(s.get(0, K(3)), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds the gauge"))]
    fn an_oversized_credit_panics_in_debug_and_clamps_in_release() {
        let c: Counters<K> = Counters::zeroed(1, 1);
        c.add(0, K(0), 3);
        c.sub(0, K(0), 5);
        assert_eq!(c.get(0, K(0)), 0);
    }
}
