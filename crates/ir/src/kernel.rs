//! The one implementation of every bag operation.
//!
//! These kernels define the *semantics* of each [`Op`](crate::nir::Op), and
//! they are what runs: the Mitos runtime's operator host, the sequential
//! interpreter and the Spark-like baseline all call them, so a benchmark
//! replay of a kernel times the code the engine executes. Independence
//! lives in `tests/prop_kernels.rs`, which holds each kernel to a naive
//! specification that shares no code with it.
//!
//! The element-wise transforms ([`map`], [`flat_map`], [`filter`]) are
//! **batch-in/batch-out**: they take a typed columnar [`Batch`] and return
//! one, evaluating the lambda a column at a time once per run
//! ([`Batch::map_expr`] and friends; a run the column evaluator cannot
//! express, or that fails in it, is evaluated element by element with
//! [`eval`]).
//!
//! The keyed and aggregating operators are **incremental states**, shaped
//! for a host that receives its input in chunks: [`JoinTable`] (build once,
//! [`probe`](JoinTable::probe) per chunk), [`KeyedFold`] and [`Fold`]
//! (`push` per chunk, `finish` at end of bag), [`DedupSet`] (`push` returns
//! the chunk's first occurrences) and the chunk-callable [`cross`]. The
//! slice functions [`join`], [`reduce_by_key`], [`reduce`] and [`distinct`]
//! drive one state over a whole bag.

use mitos_lang::expr::{eval, Expr};
use mitos_lang::{Batch, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// An error from a bag kernel (usually a lambda evaluation error).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KernelError {
    /// Description of the failure.
    pub message: String,
}

impl KernelError {
    /// Creates an error.
    pub fn new(message: impl Into<String>) -> KernelError {
        KernelError {
            message: message.into(),
        }
    }
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for KernelError {}

impl From<mitos_lang::EvalError> for KernelError {
    fn from(e: mitos_lang::EvalError) -> Self {
        KernelError::new(e.message)
    }
}

/// `map`: applies `expr($0 = element, $1.. = captured)` to each element of
/// the batch; the result columns go straight into the output batch.
pub fn map(expr: &Expr, captured: &[Value], input: &Batch) -> Result<Batch, KernelError> {
    Ok(input.map_expr(expr, captured)?)
}

/// `flatMap`: like [`map`], but each result must be a list, which is
/// flattened into the output batch.
pub fn flat_map(expr: &Expr, captured: &[Value], input: &Batch) -> Result<Batch, KernelError> {
    Ok(input.flat_map_expr(expr, captured)?)
}

/// `filter`: keeps elements whose predicate evaluates to `true`, selecting
/// them from the input columns.
pub fn filter(expr: &Expr, captured: &[Value], input: &Batch) -> Result<Batch, KernelError> {
    Ok(input.filter_expr(expr, captured)?)
}

/// The non-key payload of a join element: the tail fields of a tuple, or
/// nothing for a bare (key-only) value.
pub fn payload(v: &Value) -> &[Value] {
    match v.as_tuple() {
        Some(fields) if !fields.is_empty() => &fields[1..],
        _ => &[],
    }
}

/// Builds the joined row `(k, left_payload.., right_payload..)`.
pub fn join_row(key: &Value, left: &Value, right: &Value) -> Value {
    let lp = payload(left);
    let rp = payload(right);
    let mut fields = Vec::with_capacity(1 + lp.len() + rp.len());
    fields.push(key.clone());
    fields.extend_from_slice(lp);
    fields.extend_from_slice(rp);
    Value::tuple(fields)
}

/// The build side of an equi-join on element key (field 0): rows grouped
/// by key, each group in insertion order. Built once per build bag and
/// probed chunk by chunk; the runtime's hoist cache keeps it across loop
/// steps and reads its [`residency`](JoinTable::residency) instead of
/// walking it.
pub struct JoinTable {
    rows: HashMap<Value, Vec<Value>>,
    elems: u64,
    bytes: u64,
}

impl JoinTable {
    /// Builds the table from the whole build-side bag.
    pub fn build(bag: Vec<Value>) -> JoinTable {
        let mut table = JoinTable {
            rows: HashMap::with_capacity(bag.len()),
            elems: bag.len() as u64,
            bytes: 0,
        };
        for v in bag {
            table.bytes += v.estimated_bytes();
            let group = table.rows.entry(v.key().clone()).or_insert_with_key(|k| {
                table.bytes += k.estimated_bytes();
                Vec::new()
            });
            group.push(v);
        }
        table
    }

    /// The joined rows of `chunk`: probe order, and per probe element its
    /// key's build rows in insertion order.
    pub fn probe(&self, chunk: &[Value]) -> Vec<Value> {
        let mut out = Vec::new();
        for r in chunk {
            for l in self.rows.get(r.key()).into_iter().flatten() {
                out.push(join_row(r.key(), l, r));
            }
        }
        out
    }

    /// `(elements, estimated bytes)` the table holds, recorded while it was
    /// built: every row's and every distinct key's
    /// [`Value::estimated_bytes`].
    pub fn residency(&self) -> (u64, u64) {
        (self.elems, self.bytes)
    }
}

/// `join`: equi-join on element key (field 0). Output rows follow the
/// right (probe) side's order; per key, build-side matches keep insertion
/// order.
pub fn join(left: &[Value], right: &[Value]) -> Vec<Value> {
    JoinTable::build(left.to_vec()).probe(right)
}

/// `cross`: Cartesian product as `(left, right)` pairs, left-major. The
/// runtime calls it once per chunk of the streamed left side.
pub fn cross(left: &[Value], right: &[Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    for l in left {
        for r in right {
            out.push(Value::tuple([l.clone(), r.clone()]));
        }
    }
    out
}

/// The combiner's parameter vector `[acc, element, captured..]` with the
/// first two slots still to fill.
fn fold_params(captured: &[Value]) -> Vec<Value> {
    [&[Value::Unit, Value::Unit], captured].concat()
}

/// The running per-key folds of a `reduceByKey`.
#[derive(Default)]
pub struct KeyedFold {
    acc: HashMap<Value, Value>,
}

impl KeyedFold {
    /// Folds a chunk of `(k, v)` pairs in: a key's first value seeds its
    /// accumulator, later ones go through
    /// `expr($0 = acc, $1 = v, $2.. = captured)`.
    pub fn push(
        &mut self,
        expr: &Expr,
        captured: &[Value],
        chunk: &[Value],
    ) -> Result<(), KernelError> {
        let mut params = fold_params(captured);
        for v in chunk {
            let Some([key, value]) = v.as_tuple() else {
                return Err(KernelError::new(format!(
                    "reduceByKey expects (key, value) tuples, got {v:?}"
                )));
            };
            match self.acc.entry(key.clone()) {
                Entry::Vacant(e) => {
                    e.insert(value.clone());
                }
                Entry::Occupied(mut e) => {
                    params[0] = e.get().clone();
                    params[1] = value.clone();
                    *e.get_mut() = eval(expr, &params)?;
                }
            }
        }
        Ok(())
    }

    /// The `(k, folded)` rows, sorted by key for determinism.
    pub fn finish(self) -> Vec<Value> {
        let mut out: Vec<(Value, Value)> = self.acc.into_iter().collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out.into_iter().map(|(k, v)| Value::tuple([k, v])).collect()
    }
}

/// `reduceByKey`: folds the value field of `(k, v)` pairs per key with
/// `expr($0 = acc, $1 = v, $2.. = captured)`. Output is sorted by key for
/// determinism.
pub fn reduce_by_key(
    expr: &Expr,
    captured: &[Value],
    input: &[Value],
) -> Result<Vec<Value>, KernelError> {
    let mut fold = KeyedFold::default();
    fold.push(expr, captured, input)?;
    Ok(fold.finish())
}

/// The running global fold of a `reduce`.
#[derive(Default)]
pub struct Fold {
    acc: Option<Value>,
}

impl Fold {
    /// A fold seeded with `init` (the empty-bag value of `sum`/`count`), or
    /// with the first element pushed when there is none.
    pub fn new(init: Option<Value>) -> Fold {
        Fold { acc: init }
    }

    /// Folds a chunk in, in order, with
    /// `expr($0 = acc, $1 = element, $2.. = captured)`.
    pub fn push(
        &mut self,
        expr: &Expr,
        captured: &[Value],
        chunk: &[Value],
    ) -> Result<(), KernelError> {
        let mut params = fold_params(captured);
        for v in chunk {
            self.acc = Some(match self.acc.take() {
                None => v.clone(),
                Some(acc) => {
                    params[0] = acc;
                    params[1] = v.clone();
                    eval(expr, &params)?
                }
            });
        }
        Ok(())
    }

    /// The folded value; an error if nothing was pushed and there was no
    /// `init`.
    pub fn finish(self) -> Result<Value, KernelError> {
        self.acc
            .ok_or_else(|| KernelError::new("reduce on an empty bag with no initial value"))
    }
}

/// `reduce`: global fold with `expr($0 = acc, $1 = element, $2.. =
/// captured)`. Returns `init` for an empty bag, or an error if `init` is
/// `None`. The fold order follows input order; combiners should be
/// commutative and associative for cross-engine determinism.
pub fn reduce(
    expr: &Expr,
    captured: &[Value],
    init: Option<&Value>,
    input: &[Value],
) -> Result<Option<Value>, KernelError> {
    let mut fold = Fold::new(init.cloned());
    fold.push(expr, captured, input)?;
    fold.finish().map(Some)
}

/// The elements a `distinct` has let through so far.
#[derive(Default)]
pub struct DedupSet {
    seen: HashSet<Value>,
}

impl DedupSet {
    /// The elements of `chunk` not seen before (in this chunk or an
    /// earlier one), in chunk order.
    pub fn push(&mut self, chunk: &[Value]) -> Vec<Value> {
        self.seen.reserve(chunk.len());
        let fresh = chunk.iter().filter(|v| self.seen.insert((*v).clone()));
        fresh.cloned().collect()
    }
}

/// `distinct`: removes duplicates, keeping first occurrences.
pub fn distinct(input: &[Value]) -> Vec<Value> {
    DedupSet::default().push(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitos_lang::expr::{BinOp, Func};

    fn ints(range: std::ops::Range<i64>) -> Vec<Value> {
        range.map(Value::I64).collect()
    }

    fn kv(k: i64, v: i64) -> Value {
        Value::tuple([Value::I64(k), Value::I64(v)])
    }

    fn batch(range: std::ops::Range<i64>) -> Batch {
        range.map(Value::I64).collect()
    }

    #[test]
    fn map_applies_lambda_with_captures() {
        let expr = Expr::bin(BinOp::Mul, Expr::Param(0), Expr::Param(1));
        let out = map(&expr, &[Value::I64(3)], &batch(1..4)).unwrap();
        assert_eq!(
            out.into_values(),
            vec![Value::I64(3), Value::I64(6), Value::I64(9)]
        );
    }

    #[test]
    fn filter_rejects_non_bool() {
        let expr = Expr::Param(0);
        assert!(filter(&expr, &[], &batch(0..3)).is_err());
        let pred = Expr::bin(BinOp::Gt, Expr::Param(0), Expr::lit(1i64));
        assert_eq!(filter(&pred, &[], &batch(0..4)).unwrap(), batch(2..4));
    }

    #[test]
    fn flat_map_flattens_lists() {
        let expr = Expr::List(vec![Expr::Param(0), Expr::Param(0)]);
        let out = flat_map(&expr, &[], &batch(1..3)).unwrap();
        assert_eq!(
            out.into_values(),
            vec![Value::I64(1), Value::I64(1), Value::I64(2), Value::I64(2)]
        );
        assert!(flat_map(&Expr::Param(0), &[], &batch(0..1)).is_err());
    }

    /// The reference the element-wise kernels are held to: `eval` on each
    /// element in order, results `push`ed one by one.
    fn row_map(expr: &Expr, captured: &[Value], input: &Batch) -> Result<Batch, String> {
        let mut out = Batch::new();
        for v in input.iter() {
            let mut params = vec![v];
            params.extend_from_slice(captured);
            out.push(eval(expr, &params).map_err(|e| e.message)?);
        }
        Ok(out)
    }

    fn idx(i: usize) -> Expr {
        Expr::Index(Box::new(Expr::Param(0)), i)
    }

    /// Lambdas of the benchmark workloads and of PageRank, plus ones the
    /// column evaluator hands back to the row loop, on a batch whose runs
    /// change shape: same wire bytes as the row loop, or the same error.
    #[test]
    fn map_agrees_with_the_row_loop_on_every_layout() {
        let mut elems: Vec<Value> = (0..40).map(|i| kv(i, i % 4)).collect();
        elems.push(Value::tuple([Value::I64(1), Value::F64(0.5)])); // field 1 turns mixed
        elems.extend((0..3).map(|i| Value::tuple([Value::I64(i), Value::F64(1.5), Value::I64(2)])));
        elems.push(Value::Unit);
        elems.extend(ints(0..5));
        let input = Batch::from_slice(&elems);
        let lambdas = [
            Expr::Tuple(vec![
                Expr::bin(BinOp::Div, idx(0), Expr::lit(4i64)),
                Expr::bin(BinOp::Mod, idx(0), Expr::lit(4i64)),
            ]),
            idx(0),
            Expr::Tuple(vec![idx(0), Expr::lit(1i64)]),
            Expr::Tuple(vec![idx(1), idx(0)]),
            Expr::Call(Func::Abs, vec![Expr::bin(BinOp::Sub, idx(0), idx(1))]),
            Expr::Call(Func::Min, vec![idx(0), idx(1)]),
            Expr::bin(
                BinOp::Add,
                Expr::lit(0.15),
                Expr::bin(BinOp::Mul, Expr::lit(0.85), idx(1)),
            ),
            Expr::bin(BinOp::Div, idx(1), Expr::Param(1)),
            Expr::bin(BinOp::Add, Expr::lit("k"), idx(0)),
            Expr::If(
                Box::new(Expr::bin(BinOp::Gt, idx(0), Expr::lit(3i64))),
                Box::new(idx(1)),
                Box::new(Expr::lit(0i64)),
            ),
            Expr::Param(0),
            Expr::Param(7),
        ];
        for lambda in &lambdas {
            for captured in [[Value::I64(2)], [Value::I64(0)]] {
                let got = map(lambda, &captured, &input).map_err(|e| e.message);
                let want = row_map(lambda, &captured, &input);
                assert_eq!(
                    got.as_ref().map(Batch::encode),
                    want.as_ref().map(Batch::encode),
                    "{lambda} with $1 = {captured:?}"
                );
            }
        }
    }

    /// A zero divisor at element 1 is the error, not the type error `len`
    /// meets at element 2 — although a column-at-a-time pass evaluates the
    /// whole `len` column first.
    #[test]
    fn first_failing_element_decides_the_error() {
        let input = Batch::from_slice(&[
            Value::tuple([Value::str("ab"), Value::I64(2)]),
            Value::tuple([Value::str("ab"), Value::I64(0)]),
            Value::tuple([Value::I64(7), Value::I64(2)]),
        ]);
        let lambda = Expr::Tuple(vec![
            Expr::Call(Func::Len, vec![idx(0)]),
            Expr::bin(BinOp::Mod, Expr::lit(9i64), idx(1)),
        ]);
        let err = map(&lambda, &[], &input).unwrap_err();
        assert_eq!(err.message, "integer modulo by zero");
        assert_eq!(Err(err.message), row_map(&lambda, &[], &input));
    }

    #[test]
    fn filter_and_flat_map_keep_the_pushed_layout() {
        let input: Batch = (0..100).map(|i| kv(i / 4, i % 4)).collect();
        let valid = Expr::bin(BinOp::Ne, idx(1), Expr::lit(3i64));
        let kept = filter(&valid, &[], &input).unwrap();
        let want: Batch = input
            .iter()
            .filter(|v| v.field(1) != Some(&Value::I64(3)))
            .collect();
        assert_eq!(kept.encode(), want.encode());
        let ends = Expr::List(vec![idx(0), idx(1)]);
        let flat = flat_map(&ends, &[], &input).unwrap();
        let want: Batch = input
            .iter()
            .flat_map(|v| v.as_tuple().unwrap().to_vec())
            .collect();
        assert_eq!(flat.encode(), want.encode());
        // A 300-field result does not fit a column run's one-byte arity.
        let wide = Expr::Tuple(vec![Expr::Param(0); 300]);
        let out = map(&wide, &[], &batch(0..3)).unwrap();
        assert_eq!(Batch::decode(&out.encode()).unwrap(), out);
    }

    #[test]
    fn join_matches_keys_and_concatenates_payloads() {
        let left = vec![kv(1, 10), kv(2, 20), kv(1, 11)];
        let right = vec![kv(1, 100), kv(3, 300)];
        let mut out = join(&left, &right);
        out.sort_unstable();
        assert_eq!(
            out,
            vec![
                Value::tuple([Value::I64(1), Value::I64(10), Value::I64(100)]),
                Value::tuple([Value::I64(1), Value::I64(11), Value::I64(100)]),
            ]
        );
    }

    #[test]
    fn join_of_bare_keys() {
        let left = ints(1..4);
        let right = ints(2..6);
        let mut out = join(&left, &right);
        out.sort_unstable();
        assert_eq!(
            out,
            vec![Value::tuple([Value::I64(2)]), Value::tuple([Value::I64(3)])]
        );
    }

    #[test]
    fn join_with_multi_field_payloads() {
        let left = vec![Value::tuple([
            Value::I64(1),
            Value::str("a"),
            Value::str("b"),
        ])];
        let right = vec![Value::tuple([Value::I64(1), Value::I64(9)])];
        let out = join(&left, &right);
        assert_eq!(
            out,
            vec![Value::tuple([
                Value::I64(1),
                Value::str("a"),
                Value::str("b"),
                Value::I64(9)
            ])]
        );
    }

    /// What the hoist cache charges and credits without walking the
    /// table: `Σ key.estimated_bytes() + Σ row.estimated_bytes()`.
    #[test]
    fn join_table_records_the_residency_a_walk_finds() {
        let wide = Value::tuple([Value::str("k"), Value::str("payload"), Value::F64(0.5)]);
        let bag = vec![
            kv(1, 10),
            kv(2, 20),
            kv(1, 11),
            Value::I64(7),
            wide.clone(),
            wide,
        ];
        let table = JoinTable::build(bag);
        let (mut elems, mut bytes) = (0, 0);
        for (key, rows) in &table.rows {
            elems += rows.len() as u64;
            bytes += key.estimated_bytes();
            bytes += rows.iter().map(Value::estimated_bytes).sum::<u64>();
        }
        assert_eq!(table.residency(), (elems, bytes));
        assert_eq!((elems, table.rows.len()), (6, 4));
        assert_eq!(JoinTable::build(Vec::new()).residency(), (0, 0));
    }

    #[test]
    fn cross_pairs_everything() {
        let out = cross(&ints(0..2), &ints(10..12));
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], Value::tuple([Value::I64(0), Value::I64(10)]));
    }

    #[test]
    fn reduce_by_key_folds_values() {
        let expr = Expr::bin(BinOp::Add, Expr::Param(0), Expr::Param(1));
        let input = vec![kv(1, 1), kv(2, 5), kv(1, 2), kv(2, 5)];
        let out = reduce_by_key(&expr, &[], &input).unwrap();
        assert_eq!(out, vec![kv(1, 3), kv(2, 10)]);
    }

    #[test]
    fn reduce_by_key_rejects_non_pairs() {
        let expr = Expr::Param(0);
        assert!(reduce_by_key(&expr, &[], &ints(0..2)).is_err());
        let triple = vec![Value::tuple([Value::I64(1), Value::I64(2), Value::I64(3)])];
        assert!(reduce_by_key(&expr, &[], &triple).is_err());
    }

    #[test]
    fn reduce_with_and_without_init() {
        let expr = Expr::bin(BinOp::Add, Expr::Param(0), Expr::Param(1));
        assert_eq!(
            reduce(&expr, &[], Some(&Value::I64(0)), &ints(1..4)).unwrap(),
            Some(Value::I64(6))
        );
        assert_eq!(
            reduce(&expr, &[], Some(&Value::I64(0)), &[]).unwrap(),
            Some(Value::I64(0))
        );
        assert_eq!(
            reduce(&expr, &[], None, &ints(1..4)).unwrap(),
            Some(Value::I64(6))
        );
        assert!(reduce(&expr, &[], None, &[]).is_err());
    }

    #[test]
    fn distinct_keeps_first() {
        let input = vec![Value::I64(2), Value::I64(1), Value::I64(2), Value::I64(1)];
        assert_eq!(distinct(&input), vec![Value::I64(2), Value::I64(1)]);
    }
}
