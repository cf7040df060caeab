//! Pure, batch implementations of the bag operations.
//!
//! These kernels define the *semantics* of each [`Op`](crate::nir::Op). The
//! sequential interpreter uses them directly; the Spark-like baseline engine
//! executes stage fragments with them; the Mitos runtime's incremental
//! operators are property-tested against them.
//!
//! The element-wise transforms ([`map`], [`flat_map`], [`filter`]) are
//! **batch-in/batch-out**: they take a typed columnar [`Batch`] and return
//! one, evaluating the lambda a column at a time once per run
//! ([`Batch::map_expr`] and friends; a run the column evaluator cannot
//! express, or that fails in it, is evaluated element by element with
//! [`eval`]). The keyed/aggregating kernels keep their slice signatures —
//! their cost is dominated by hashing, not container shape.

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

/// `join`: equi-join on element key (field 0). Output rows follow the
/// right (probe) side's order; per key, build-side matches keep insertion
/// order. This matches the incremental hash-join in the runtime.
pub fn join(left: &[Value], right: &[Value]) -> Vec<Value> {
    let mut table: HashMap<&Value, Vec<&Value>> = HashMap::with_capacity(left.len());
    for l in left {
        table.entry(l.key()).or_default().push(l);
    }
    let mut out = Vec::new();
    for r in right {
        if let Some(matches) = table.get(r.key()) {
            for l in matches {
                out.push(join_row(r.key(), l, r));
            }
        }
    }
    out
}

/// `cross`: Cartesian product as `(left, right)` pairs.
pub fn cross(left: &[Value], right: &[Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    for l in left {
        for r in right {
            out.push(Value::tuple([l.clone(), r.clone()]));
        }
    }
    out
}

/// `reduceByKey`: folds the value field of `(k, v)` pairs per key with
/// `expr($0 = acc, $1 = v, $2.. = captured)`. Output is sorted by key for
/// determinism.
pub fn reduce_by_key(
    expr: &Expr,
    captured: &[Value],
    input: &[Value],
) -> Result<Vec<Value>, KernelError> {
    let mut acc: HashMap<Value, Value> = HashMap::new();
    let mut params = Vec::with_capacity(2 + captured.len());
    params.push(Value::Unit);
    params.push(Value::Unit);
    params.extend_from_slice(captured);
    for v in input {
        let fields = v.as_tuple().ok_or_else(|| {
            KernelError::new(format!(
                "reduceByKey expects (key, value) tuples, got {v:?}"
            ))
        })?;
        if fields.len() != 2 {
            return Err(KernelError::new(format!(
                "reduceByKey expects 2-field tuples, got {v:?}"
            )));
        }
        match acc.entry(fields[0].clone()) {
            Entry::Vacant(e) => {
                e.insert(fields[1].clone());
            }
            Entry::Occupied(mut e) => {
                params[0] = e.get().clone();
                params[1] = fields[1].clone();
                *e.get_mut() = eval(expr, &params)?;
            }
        }
    }
    let mut out: Vec<(Value, Value)> = acc.into_iter().collect();
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Ok(out.into_iter().map(|(k, v)| Value::tuple([k, v])).collect())
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
    let mut acc = match (init, input.first()) {
        (Some(init), _) => init.clone(),
        (None, Some(first)) => {
            let mut params = Vec::with_capacity(2 + captured.len());
            params.push(first.clone());
            params.push(Value::Unit);
            params.extend_from_slice(captured);
            let mut acc = first.clone();
            for v in &input[1..] {
                params[0] = acc;
                params[1] = v.clone();
                acc = eval(expr, &params)?;
            }
            return Ok(Some(acc));
        }
        (None, None) => {
            return Err(KernelError::new(
                "reduce on an empty bag with no initial value",
            ))
        }
    };
    let mut params = Vec::with_capacity(2 + captured.len());
    params.push(Value::Unit);
    params.push(Value::Unit);
    params.extend_from_slice(captured);
    for v in input {
        params[0] = acc;
        params[1] = v.clone();
        acc = eval(expr, &params)?;
    }
    Ok(Some(acc))
}

/// `distinct`: removes duplicates, keeping first occurrences.
pub fn distinct(input: &[Value]) -> Vec<Value> {
    let mut seen: HashSet<&Value> = HashSet::with_capacity(input.len());
    let mut out = Vec::new();
    for v in input {
        if seen.insert(v) {
            out.push(v.clone());
        }
    }
    out
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
