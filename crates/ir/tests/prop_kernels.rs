//! Property tests for the bag kernels: each operator's optimized
//! implementation must agree with a naive specification on random inputs.

use mitos_ir::kernel;
use mitos_lang::expr::{BinOp, Expr};
use mitos_lang::{canonicalize, Batch, Value};
use proptest::prelude::*;
use std::collections::HashMap;

fn kv(k: i64, v: i64) -> Value {
    Value::tuple([Value::I64(k), Value::I64(v)])
}

fn arb_pairs(max: usize) -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec((-5i64..5, -100i64..100), 0..max)
        .prop_map(|ps| ps.into_iter().map(|(k, v)| kv(k, v)).collect())
}

fn arb_cuts() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, 0..6)
}

/// Splits `input` at `cuts` (each taken modulo the length): what a host
/// sees when a bag arrives in pieces. Repeated cuts, a cut at 0 and an
/// empty input all yield empty chunks.
fn chunks<'a>(input: &'a [Value], cuts: &[usize]) -> Vec<&'a [Value]> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (input.len() + 1)).collect();
    at.push(input.len());
    at.sort_unstable();
    let mut start = 0;
    at.into_iter()
        .map(|end| {
            let chunk = &input[start..end];
            start = end;
            chunk
        })
        .collect()
}

fn sub() -> Expr {
    Expr::bin(BinOp::Sub, Expr::Param(0), Expr::Param(1))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Hash join equals the nested-loop specification (as multisets).
    #[test]
    fn join_equals_nested_loop(left in arb_pairs(24), right in arb_pairs(24)) {
        let fast = canonicalize(kernel::join(&left, &right));
        let mut naive = Vec::new();
        for l in &left {
            for r in &right {
                if l.key() == r.key() {
                    naive.push(kernel::join_row(l.key(), l, r));
                }
            }
        }
        prop_assert_eq!(fast, canonicalize(naive));
    }

    /// Join cardinality: |A ⋈ B| = Σ_k |A_k| · |B_k|.
    #[test]
    fn join_cardinality(left in arb_pairs(30), right in arb_pairs(30)) {
        let mut lc: HashMap<Value, usize> = HashMap::new();
        let mut rc: HashMap<Value, usize> = HashMap::new();
        for l in &left { *lc.entry(l.key().clone()).or_default() += 1; }
        for r in &right { *rc.entry(r.key().clone()).or_default() += 1; }
        let expected: usize = lc
            .iter()
            .map(|(k, n)| n * rc.get(k).copied().unwrap_or(0))
            .sum();
        prop_assert_eq!(kernel::join(&left, &right).len(), expected);
    }

    /// reduceByKey with addition equals group-then-sum.
    #[test]
    fn reduce_by_key_equals_group_sum(input in arb_pairs(40)) {
        let add = Expr::bin(BinOp::Add, Expr::Param(0), Expr::Param(1));
        let fast = kernel::reduce_by_key(&add, &[], &input).unwrap();
        let mut sums: HashMap<i64, i64> = HashMap::new();
        for p in &input {
            let t = p.as_tuple().unwrap();
            *sums.entry(t[0].as_i64().unwrap()).or_default() += t[1].as_i64().unwrap();
        }
        let mut naive: Vec<Value> = sums.into_iter().map(|(k, v)| kv(k, v)).collect();
        naive.sort_unstable();
        prop_assert_eq!(fast, naive);
    }

    /// reduceByKey output has exactly one row per distinct key.
    #[test]
    fn reduce_by_key_keys_unique(input in arb_pairs(40)) {
        let add = Expr::bin(BinOp::Add, Expr::Param(0), Expr::Param(1));
        let out = kernel::reduce_by_key(&add, &[], &input).unwrap();
        let keys: std::collections::HashSet<Value> =
            out.iter().map(|r| r.key().clone()).collect();
        prop_assert_eq!(keys.len(), out.len());
        let distinct_in: std::collections::HashSet<Value> =
            input.iter().map(|r| r.key().clone()).collect();
        prop_assert_eq!(keys.len(), distinct_in.len());
    }

    /// distinct is idempotent and preserves the support set.
    #[test]
    fn distinct_idempotent(input in arb_pairs(40)) {
        let once = kernel::distinct(&input);
        let twice = kernel::distinct(&once);
        prop_assert_eq!(&once, &twice);
        let support_in: std::collections::HashSet<&Value> = input.iter().collect();
        let support_out: std::collections::HashSet<&Value> = once.iter().collect();
        prop_assert_eq!(support_in, support_out);
        prop_assert_eq!(once.len(), twice.len());
    }

    /// map preserves cardinality; filter's output is a sub-multiset.
    #[test]
    fn map_and_filter_shape(input in arb_pairs(40), c in -50i64..50) {
        let double = Expr::Tuple(vec![
            Expr::Index(Box::new(Expr::Param(0)), 0),
            Expr::bin(
                BinOp::Mul,
                Expr::Index(Box::new(Expr::Param(0)), 1),
                Expr::lit(2i64),
            ),
        ]);
        prop_assert_eq!(
            kernel::map(&double, &[], &Batch::from_slice(&input)).unwrap().len(),
            input.len()
        );
        let pred = Expr::bin(
            BinOp::Gt,
            Expr::Index(Box::new(Expr::Param(0)), 1),
            Expr::lit(c),
        );
        let kept = kernel::filter(&pred, &[], &Batch::from_slice(&input))
            .unwrap()
            .into_values();
        prop_assert!(kept.len() <= input.len());
        // Filter + complementary filter partition the input.
        let npred = Expr::bin(
            BinOp::Le,
            Expr::Index(Box::new(Expr::Param(0)), 1),
            Expr::lit(c),
        );
        let dropped = kernel::filter(&npred, &[], &Batch::from_slice(&input))
            .unwrap()
            .into_values();
        let mut both = kept;
        both.extend(dropped);
        prop_assert_eq!(canonicalize(both), canonicalize(input));
    }

    /// reduce with a sum initial value equals the arithmetic sum.
    #[test]
    fn reduce_sum_is_sum(values in prop::collection::vec(-100i64..100, 0..40)) {
        let input: Vec<Value> = values.iter().copied().map(Value::I64).collect();
        let add = Expr::bin(BinOp::Add, Expr::Param(0), Expr::Param(1));
        let out = kernel::reduce(&add, &[], Some(&Value::I64(0)), &input).unwrap();
        prop_assert_eq!(out, Some(Value::I64(values.iter().sum())));
    }

    /// cross cardinality is the product; every pair appears.
    #[test]
    fn cross_is_cartesian(a in arb_pairs(12), b in arb_pairs(12)) {
        let out = kernel::cross(&a, &b);
        prop_assert_eq!(out.len(), a.len() * b.len());
        if let (Some(x), Some(y)) = (a.first(), b.first()) {
            let expected = Value::tuple([x.clone(), y.clone()]);
            prop_assert!(out.contains(&expected));
        }
    }

    /// A table built once and probed chunk by chunk yields `join`'s rows
    /// in `join`'s order: probe order, then build order within a key.
    #[test]
    fn join_probed_in_chunks(left in arb_pairs(24), right in arb_pairs(24), cuts in arb_cuts()) {
        let table = kernel::JoinTable::build(left.clone());
        let mut chunked = Vec::new();
        for chunk in chunks(&right, &cuts) {
            chunked.extend(table.probe(chunk));
        }
        let mut naive = Vec::new();
        for r in &right {
            for l in left.iter().filter(|l| l.key() == r.key()) {
                let (lv, rv) = (l.field(1).unwrap(), r.field(1).unwrap());
                naive.push(Value::tuple([r.key().clone(), lv.clone(), rv.clone()]));
            }
        }
        prop_assert_eq!(&chunked, &naive);
        prop_assert_eq!(chunked, kernel::join(&left, &right));
    }

    /// Pushing a bag into a per-key fold in pieces equals one
    /// `reduce_by_key` over it and the group-then-sum specification.
    #[test]
    fn reduce_by_key_pushed_in_chunks(input in arb_pairs(40), cuts in arb_cuts()) {
        let add = Expr::bin(BinOp::Add, Expr::Param(0), Expr::Param(1));
        let mut fold = kernel::KeyedFold::default();
        for chunk in chunks(&input, &cuts) {
            fold.push(&add, &[], chunk).unwrap();
        }
        let chunked = fold.finish();
        let mut sums: std::collections::BTreeMap<i64, i64> = Default::default();
        for p in &input {
            let t = p.as_tuple().unwrap();
            *sums.entry(t[0].as_i64().unwrap()).or_default() += t[1].as_i64().unwrap();
        }
        let naive: Vec<Value> = sums.into_iter().map(|(k, v)| kv(k, v)).collect();
        prop_assert_eq!(&chunked, &naive);
        prop_assert_eq!(chunked, kernel::reduce_by_key(&add, &[], &input).unwrap());
    }

    /// A global fold pushed in pieces keeps input order (subtraction is
    /// neither commutative nor associative), seeded with `init` or with the
    /// first element; with neither it fails exactly as `reduce` does.
    #[test]
    fn reduce_pushed_in_chunks(
        values in prop::collection::vec(-100i64..100, 0..40),
        init in -100i64..100,
        seeded in any::<bool>(),
        cuts in arb_cuts(),
    ) {
        let input: Vec<Value> = values.iter().copied().map(Value::I64).collect();
        let init = seeded.then_some(Value::I64(init));
        let mut fold = kernel::Fold::new(init.clone());
        for chunk in chunks(&input, &cuts) {
            fold.push(&sub(), &[], chunk).unwrap();
        }
        let chunked = fold.finish();
        let mut all = init.iter().filter_map(Value::as_i64).chain(values.iter().copied());
        let naive = all.next().map(|first| Value::I64(first - all.sum::<i64>()));
        prop_assert_eq!(chunked.clone().ok(), naive);
        let one_shot = kernel::reduce(&sub(), &[], init.as_ref(), &input);
        prop_assert_eq!(chunked.map(Some), one_shot);
    }

    /// A dedup set fed in pieces lets each element through once, at its
    /// first occurrence — also when that and a repeat straddle a boundary.
    #[test]
    fn distinct_pushed_in_chunks(input in arb_pairs(40), cuts in arb_cuts()) {
        let mut seen = kernel::DedupSet::default();
        let mut chunked = Vec::new();
        for chunk in chunks(&input, &cuts) {
            chunked.extend(seen.push(chunk));
        }
        let mut naive: Vec<Value> = Vec::new();
        for v in &input {
            if !naive.contains(v) {
                naive.push(v.clone());
            }
        }
        prop_assert_eq!(&chunked, &naive);
        prop_assert_eq!(chunked, kernel::distinct(&input));
    }
}
