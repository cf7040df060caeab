//! Differential tests for the batch primitives the operator host moves a
//! bag with — `Batch::{append, split_to, tail, key_hashes, partition}`:
//! on random element sequences each must agree with the plain element
//! loop, `push`ing the same elements one by one into a fresh batch, in
//! *wire bytes* (so values and run layout both), and `key_hashes` must be
//! `stable_hash(v.key())` bit for bit.
//!
//! Sequences mix every layout a batch has: typed scalar runs, tuple runs
//! whose field changes type mid-run (a mixed column, which a piece may
//! leave with one type again), bare values beside tuples, row values,
//! 255- and 300-field tuples (the widest column run and one too wide), and
//! runs of every length from one element up. Cut points land inside runs
//! as well as between them.

use mitos_lang::{stable_hash, Batch, Value};
use proptest::prelude::*;

/// SplitMix64: the whole case is a pure function of one seed, which is
/// what a failure prints.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

/// A scalar of type `ty` (0..4: i64, f64, bool, str) from a small pool, so
/// keys repeat and hash parts are uneven.
fn scalar(g: &mut Gen, ty: usize) -> Value {
    match ty {
        0 => Value::I64(g.pick(&[0, 1, -1, 7, i64::MIN, i64::MAX])),
        1 => Value::F64(g.pick(&[0.0, -0.0, 1.5, f64::NAN, f64::INFINITY])),
        2 => Value::Bool(g.below(2) == 0),
        _ => Value::str(g.pick(&["", "a", "page", "日本"])),
    }
}

/// A value no column holds: it lands in a row run.
fn row_value(g: &mut Gen) -> Value {
    match g.below(5) {
        0 => Value::Unit,
        1 => Value::list([Value::I64(1), Value::F64(2.0)]),
        2 => Value::tuple([]),
        3 => Value::tuple((0..300).map(Value::I64)),
        _ => Value::tuple([Value::tuple([Value::I64(1)]), Value::I64(2)]),
    }
}

/// 1–5 segments, each a run of one shape: scalars, tuples (one field of
/// which may turn to another type part-way), rows, or the widest tuples a
/// column run holds.
fn elems(g: &mut Gen) -> Vec<Value> {
    let mut out = Vec::new();
    for _ in 0..1 + g.below(5) {
        let len = g.pick(&[1, 1, 2, 3, 5, 9, 30]);
        match g.below(6) {
            0 => {
                let ty = g.below(4);
                out.extend((0..len).map(|_| scalar(g, ty)));
            }
            1 => out.extend((0..len.min(4)).map(|_| row_value(g))),
            2 => out.extend((0..len.min(3)).map(|_| Value::tuple((0..255).map(Value::I64)))),
            _ => {
                let tys: Vec<usize> = (0..1 + g.below(3)).map(|_| g.below(4)).collect();
                let (turn, field, to) = (g.below(len + 1), g.below(tys.len()), g.below(4));
                for i in 0..len {
                    let mut fields: Vec<Value> = tys.iter().map(|&ty| scalar(g, ty)).collect();
                    if i >= turn {
                        fields[field] = scalar(g, to);
                    }
                    out.push(Value::tuple(fields));
                }
            }
        }
    }
    out
}

/// What pushing `elems` one by one into a fresh batch encodes to.
fn pushed(elems: &[Value]) -> Vec<u8> {
    let mut b = Batch::new();
    elems.iter().for_each(|v| b.push(v.clone()));
    b.encode()
}

/// Random cut points `0 = c0 <= c1 <= .. <= len`, often inside runs.
fn cuts(g: &mut Gen, len: usize) -> Vec<usize> {
    let mut cs: Vec<usize> = (0..g.below(5)).map(|_| g.below(len + 1)).collect();
    cs.push(0);
    cs.push(len);
    cs.sort_unstable();
    cs
}

fn check(seed: u64) -> Result<(), String> {
    let mut g = Gen(seed);
    let elems = elems(&mut g);
    let whole = Batch::from_slice(&elems);
    let at = |what: &str| format!("seed {seed}: {what}");

    // append: pieces appended in order are the whole, pushed.
    let cs = cuts(&mut g, elems.len());
    let mut appended = Batch::new();
    for w in cs.windows(2) {
        appended.append(Batch::from_slice(&elems[w[0]..w[1]]));
        if appended.encode() != pushed(&elems[..w[1]]) {
            return Err(at(&format!("append up to {}", w[1])));
        }
    }

    // split_to and tail: every piece, and every remainder, as pushed.
    let mut rest = whole.clone();
    for w in cs.windows(2) {
        let head = rest.split_to(w[1] - w[0]);
        if head.encode() != pushed(&elems[w[0]..w[1]]) {
            return Err(at(&format!("split_to head {}..{}", w[0], w[1])));
        }
        if rest.encode() != pushed(&elems[w[1]..]) || rest.len() != elems.len() - w[1] {
            return Err(at(&format!("split_to rest from {}", w[1])));
        }
        if whole.tail(w[0]).encode() != pushed(&elems[w[0]..]) {
            return Err(at(&format!("tail from {}", w[0])));
        }
    }

    // key_hashes: stable_hash of each key.
    let hashes = whole.key_hashes();
    let want: Vec<u64> = elems.iter().map(|v| stable_hash(v.key())).collect();
    if hashes != want {
        return Err(at("key_hashes"));
    }

    // partition, by key hashes and by arbitrary ones: each part is its
    // elements, in order, pushed.
    let random: Vec<u64> = elems.iter().map(|_| g.next()).collect();
    for hs in [&hashes, &random] {
        for n in 1..=4 {
            let parts = whole.partition(hs, n);
            if parts.len() != n {
                return Err(at(&format!("partition into {n}: {} parts", parts.len())));
            }
            for (d, part) in parts.iter().enumerate() {
                let mine: Vec<Value> = elems
                    .iter()
                    .zip(hs.iter())
                    .filter(|(_, &h)| h % n as u64 == d as u64)
                    .map(|(v, _)| v.clone())
                    .collect();
                if part.encode() != pushed(&mine) || part.len() != mine.len() {
                    return Err(at(&format!("partition into {n}, part {d}")));
                }
            }
        }
    }
    if whole.first() != elems.first().cloned() {
        return Err(at("first"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// Every primitive agrees with the push loop on random layouts.
    #[test]
    fn primitives_agree_with_push(seed in any::<u64>()) {
        check(seed).map_err(TestCaseError::fail)?;
    }
}

/// The host's data path in one: pieces arrive and are appended, each is
/// hash-partitioned into per-destination pending batches, and full chunks
/// are split off the front. Every chunk must be what the row path built:
/// the routed elements, `push`ed into chunks of `max` — so the wire bytes
/// charged per message are unchanged.
#[test]
fn append_partition_and_split_compose_like_the_row_path() {
    for seed in 0..300u64 {
        let mut g = Gen(seed);
        let elems = elems(&mut g);
        let (n, max) = (1 + g.below(3), 1 + g.below(8));
        let mut pending = vec![Batch::new(); n];
        let mut rows: Vec<Vec<Value>> = vec![Vec::new(); n];
        // Per destination, the chunks in shipping order.
        let (mut got, mut want) = (vec![Vec::new(); n], vec![Vec::new(); n]);
        let cs = cuts(&mut g, elems.len());
        for w in cs.windows(2) {
            let piece = Batch::from_slice(&elems[w[0]..w[1]]);
            let parts = piece.partition(&piece.key_hashes(), n);
            for (d, part) in parts.into_iter().enumerate() {
                pending[d].append(part);
                while pending[d].len() >= max {
                    got[d].push(pending[d].split_to(max).encode());
                }
            }
            for v in &elems[w[0]..w[1]] {
                let d = (stable_hash(v.key()) % n as u64) as usize;
                rows[d].push(v.clone());
                if rows[d].len() == max {
                    want[d].push(pushed(&rows[d]));
                    rows[d].clear();
                }
            }
        }
        for d in 0..n {
            got[d].push(pending[d].encode());
            want[d].push(pushed(&rows[d]));
        }
        assert_eq!(got, want, "seed {seed}");
    }
}

/// Splitting at the ends: nothing, everything, and beyond.
#[test]
fn split_to_edges() {
    let elems: Vec<Value> = (0..5).map(Value::I64).collect();
    let mut b = Batch::from_slice(&elems);
    assert!(b.split_to(0).is_empty());
    assert_eq!(b.len(), 5);
    let all = b.split_to(99);
    assert_eq!(all.encode(), pushed(&elems));
    assert!(b.is_empty());
    assert_eq!(b.encode(), Batch::new().encode());
    assert!(Batch::from_slice(&elems).tail(9).is_empty());
}
