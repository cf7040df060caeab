//! # mitos-fs
//!
//! An in-memory distributed file system, standing in for the HDFS cluster of
//! the paper's evaluation. Files are bags of [`Value`]s. Reads can be
//! partitioned (each physical instance of a `readFile` operator reads its
//! slice); writes from many instances are appended and treated as a multiset.
//!
//! The cost model parameters ([`IoCostModel`]) let the cluster simulator
//! charge realistic open-latency and bandwidth costs for every access without
//! this crate depending on the simulator.

#![warn(missing_docs)]

use mitos_lang::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// IO cost parameters, interpreted by the cluster simulator.
#[derive(Clone, Copy, Debug)]
pub struct IoCostModel {
    /// Fixed virtual nanoseconds charged per file open (seek + NN lookup).
    pub open_latency_ns: u64,
    /// Read/write throughput in bytes per virtual microsecond.
    pub bytes_per_us: u64,
}

impl Default for IoCostModel {
    fn default() -> Self {
        // ~2 ms open latency, ~200 MB/s per machine: commodity-disk HDFS.
        IoCostModel {
            open_latency_ns: 2_000_000,
            bytes_per_us: 200,
        }
    }
}

impl IoCostModel {
    /// Virtual nanoseconds to transfer `bytes` after one open.
    pub fn access_cost_ns(&self, bytes: u64) -> u64 {
        self.open_latency_ns + (bytes * 1000) / self.bytes_per_us.max(1)
    }
}

/// An error accessing the file system.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FsError {
    /// The file does not exist.
    NotFound(String),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(name) => write!(f, "file not found: {name}"),
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Default)]
struct FileData {
    elements: Vec<Value>,
    bytes: u64,
}

/// A shared, thread-safe in-memory file system.
///
/// Cloning the handle shares the underlying store, mirroring how every worker
/// of a cluster sees the same DFS.
#[derive(Clone, Default)]
pub struct InMemoryFs {
    inner: Arc<RwLock<Files>>,
}

type Files = BTreeMap<String, FileData>;

impl InMemoryFs {
    /// Creates an empty file system.
    pub fn new() -> InMemoryFs {
        InMemoryFs::default()
    }

    // Every write leaves the map consistent (one insert, remove, append or
    // clear), so a lock poisoned by a panicking writer is recovered.
    fn read_files(&self) -> RwLockReadGuard<'_, Files> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_files(&self) -> RwLockWriteGuard<'_, Files> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates (or replaces) a file with the given elements.
    pub fn put(&self, name: impl Into<String>, elements: Vec<Value>) {
        let bytes = elements.iter().map(Value::estimated_bytes).sum();
        self.write_files()
            .insert(name.into(), FileData { elements, bytes });
    }

    /// Appends elements to a file, creating it if needed. Used by parallel
    /// writer instances; the file is a multiset, so append order is
    /// irrelevant.
    pub fn append(&self, name: &str, elements: &[Value]) {
        let mut guard = self.write_files();
        let file = guard.entry(name.to_string()).or_default();
        file.bytes += elements.iter().map(Value::estimated_bytes).sum::<u64>();
        file.elements.extend_from_slice(elements);
    }

    /// Removes a file; returns whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.write_files().remove(name).is_some()
    }

    /// Whether the file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.read_files().contains_key(name)
    }

    /// Total serialized size of the file in bytes.
    pub fn size_bytes(&self, name: &str) -> Result<u64, FsError> {
        self.read_files()
            .get(name)
            .map(|f| f.bytes)
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Reads the whole file.
    pub fn read(&self, name: &str) -> Result<Vec<Value>, FsError> {
        self.read_partition(name, 0, 1)
    }

    /// Reads partition `part` of `parts`: the contiguous slice assigned to
    /// one reader instance. Every element belongs to exactly one partition.
    pub fn read_partition(
        &self,
        name: &str,
        part: usize,
        parts: usize,
    ) -> Result<Vec<Value>, FsError> {
        assert!(
            parts > 0 && part < parts,
            "invalid partition {part}/{parts}"
        );
        let guard = self.read_files();
        let file = guard
            .get(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let n = file.elements.len();
        let start = n * part / parts;
        let end = n * (part + 1) / parts;
        Ok(file.elements[start..end].to_vec())
    }

    /// The size in bytes of one read partition (proportional share).
    pub fn partition_bytes(&self, name: &str, part: usize, parts: usize) -> Result<u64, FsError> {
        assert!(
            parts > 0 && part < parts,
            "invalid partition {part}/{parts}"
        );
        let guard = self.read_files();
        let file = guard
            .get(name)
            .ok_or_else(|| FsError::NotFound(name.to_string()))?;
        let n = file.elements.len() as u64;
        if n == 0 {
            return Ok(0);
        }
        let start = n * part as u64 / parts as u64;
        let end = n * (part + 1) as u64 / parts as u64;
        Ok(file.bytes * (end - start) / n)
    }

    /// Lists all file names.
    pub fn list(&self) -> Vec<String> {
        self.read_files().keys().cloned().collect()
    }

    /// Snapshot of all files with canonically sorted contents, for result
    /// comparison across engines.
    pub fn snapshot(&self) -> BTreeMap<String, Vec<Value>> {
        self.read_files()
            .iter()
            .map(|(k, v)| {
                let mut elems = v.elements.clone();
                elems.sort_unstable();
                (k.clone(), elems)
            })
            .collect()
    }

    /// Removes all files.
    pub fn clear(&self) {
        self.write_files().clear();
    }
}

impl fmt::Debug for InMemoryFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let guard = self.read_files();
        f.debug_map()
            .entries(guard.iter().map(|(k, v)| (k, v.elements.len())))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::I64).collect()
    }

    #[test]
    fn put_read_round_trip() {
        let fs = InMemoryFs::new();
        fs.put("a", ints(0..5));
        assert_eq!(fs.read("a").unwrap(), ints(0..5));
        assert!(fs.exists("a"));
        assert!(!fs.exists("b"));
    }

    #[test]
    fn missing_file_is_an_error() {
        let fs = InMemoryFs::new();
        assert_eq!(fs.read("nope"), Err(FsError::NotFound("nope".into())));
    }

    #[test]
    fn partitions_cover_exactly_once() {
        let fs = InMemoryFs::new();
        fs.put("f", ints(0..10));
        for parts in 1..=7 {
            let mut all = Vec::new();
            for p in 0..parts {
                all.extend(fs.read_partition("f", p, parts).unwrap());
            }
            all.sort_unstable();
            assert_eq!(all, ints(0..10), "parts={parts}");
        }
    }

    #[test]
    fn partitions_of_small_files() {
        let fs = InMemoryFs::new();
        fs.put("one", ints(0..1));
        let mut seen = 0;
        for p in 0..4 {
            seen += fs.read_partition("one", p, 4).unwrap().len();
        }
        assert_eq!(seen, 1);
        fs.put("empty", vec![]);
        assert_eq!(fs.read_partition("empty", 2, 4).unwrap(), vec![]);
    }

    #[test]
    fn append_accumulates_and_tracks_bytes() {
        let fs = InMemoryFs::new();
        fs.append("log", &ints(0..2));
        fs.append("log", &ints(2..4));
        assert_eq!(fs.read("log").unwrap(), ints(0..4));
        assert_eq!(fs.size_bytes("log").unwrap(), 4 * 8);
    }

    #[test]
    fn partition_bytes_sums_to_total() {
        let fs = InMemoryFs::new();
        fs.put("f", ints(0..100));
        let total: u64 = (0..8).map(|p| fs.partition_bytes("f", p, 8).unwrap()).sum();
        assert_eq!(total, fs.size_bytes("f").unwrap());
    }

    #[test]
    fn snapshot_is_canonical() {
        let fs = InMemoryFs::new();
        fs.append("f", &[Value::I64(3), Value::I64(1)]);
        fs.append("f", &[Value::I64(2)]);
        let snap = fs.snapshot();
        assert_eq!(snap["f"], ints(1..4));
    }

    #[test]
    fn shared_handle_sees_writes() {
        let fs = InMemoryFs::new();
        let fs2 = fs.clone();
        fs.put("x", ints(0..1));
        assert!(fs2.exists("x"));
        fs2.clear();
        assert!(!fs.exists("x"));
    }

    #[test]
    fn io_cost_model_charges_latency_plus_bandwidth() {
        let m = IoCostModel {
            open_latency_ns: 1000,
            bytes_per_us: 100,
        };
        assert_eq!(m.access_cost_ns(0), 1000);
        assert_eq!(m.access_cost_ns(100), 1000 + 1000);
    }
}
