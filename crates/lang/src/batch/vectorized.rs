//! Column-at-a-time evaluation of compiled lambdas: the bodies of
//! [`Batch::map_expr`], [`Batch::filter_expr`] and [`Batch::flat_map_expr`].
//!
//! A lambda is evaluated once per *run*. Each [`Expr`] node yields a
//! [`Vector`] — a typed column as long as the run, or one broadcast scalar
//! for literals and captured parameters — so the work per node is one
//! tight loop over `i64`/`f64`/`bool`/`Arc<str>` slices, and the result
//! columns go into the output batch as they are.
//!
//! The evaluator is deliberately partial. Whatever it cannot express
//! (`&&`/`||`/`if`, which skip errors on the untaken side; string
//! concatenation; `hash`/`str`/vector builtins; mixed columns; row runs;
//! nested tuples; list-valued results) and every evaluation *error* make it
//! give up on the run with [`Fallback`], before anything was written. The
//! caller then evaluates that run element by element with [`eval`] — the
//! reference semantics — which also produces the error message and the
//! "first failing element wins" order. Lambdas are pure, so evaluating a
//! run twice is unobservable.
//!
//! Output layout is exactly what element-wise [`Batch::push`] would have
//! built, so the wire encoding of a result does not depend on which path
//! computed it.

use super::{Batch, Col, Run, MAX_ARITY};
use crate::expr::{
    abs_i64, arith_f64, arith_i64, cmp_holds, eval, eval_binary, eval_call, eval_unary, f64_to_i64,
    min_max_f64, min_max_i64, neg_i64, round_i64, str_len, BinOp, EvalError, Expr, Func, UnOp,
};
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::Arc;

/// The run is not for this evaluator (or failed in it): evaluate it row by
/// row instead.
struct Fallback;

impl From<EvalError> for Fallback {
    fn from(_: EvalError) -> Fallback {
        Fallback
    }
}

/// What one expression node evaluates to over a run.
#[derive(Clone)]
enum Vector<'a> {
    /// The same value for every element: a literal, a captured parameter,
    /// or something computed from those alone.
    Const(Value),
    I64(Cow<'a, [i64]>),
    F64(Cow<'a, [f64]>),
    Bool(Cow<'a, [bool]>),
    Str(Cow<'a, [Arc<str>]>),
    /// One vector per field: a tuple run's columns (borrowed, so projecting
    /// a field copies nothing) or the fields of a tuple literal.
    Tuple(Vec<Vector<'a>>),
    /// A mixed column. It can be projected past, not computed on.
    Opaque,
}

/// One side of a typed loop: a column, or a scalar that broadcasts.
#[derive(Clone, Copy)]
enum Operand<'v, T> {
    Col(&'v [T]),
    One(&'v T),
}

impl<'v, T> Operand<'v, T> {
    #[inline]
    fn get(&self, i: usize) -> &'v T {
        match self {
            Operand::Col(xs) => &xs[i],
            Operand::One(x) => x,
        }
    }
}

impl<'a> Vector<'a> {
    /// The run `$0` stands for, borrowing its columns.
    fn of_run(run: &'a Run) -> Result<Vector<'a>, Fallback> {
        match run {
            Run::Scalar(Col::Mixed(_)) | Run::Rows(_) => Err(Fallback),
            Run::Scalar(col) => Ok(Vector::of_col(col)),
            Run::Tuple { cols, .. } => Ok(Vector::Tuple(cols.iter().map(Vector::of_col).collect())),
        }
    }

    fn of_col(col: &'a Col) -> Vector<'a> {
        match col {
            Col::I64(xs) => Vector::I64(Cow::Borrowed(xs)),
            Col::F64(xs) => Vector::F64(Cow::Borrowed(xs)),
            Col::Bool(xs) => Vector::Bool(Cow::Borrowed(xs)),
            Col::Str(xs) => Vector::Str(Cow::Borrowed(xs)),
            Col::Mixed(_) => Vector::Opaque,
        }
    }

    /// The output column of `n` elements; a broadcast scalar repeats.
    fn into_col(self, n: usize) -> Result<Col, Fallback> {
        match self {
            Vector::Const(v) => Ok(Col::repeat(&v, n)),
            Vector::I64(xs) => Ok(Col::I64(xs.into_owned())),
            Vector::F64(xs) => Ok(Col::F64(xs.into_owned())),
            Vector::Bool(xs) => Ok(Col::Bool(xs.into_owned())),
            Vector::Str(xs) => Ok(Col::Str(xs.into_owned())),
            Vector::Tuple(_) | Vector::Opaque => Err(Fallback),
        }
    }

    fn i64s(&self) -> Option<Operand<'_, i64>> {
        match self {
            Vector::I64(xs) => Some(Operand::Col(xs)),
            Vector::Const(Value::I64(x)) => Some(Operand::One(x)),
            _ => None,
        }
    }

    fn f64s(&self) -> Option<Operand<'_, f64>> {
        match self {
            Vector::F64(xs) => Some(Operand::Col(xs)),
            Vector::Const(Value::F64(x)) => Some(Operand::One(x)),
            _ => None,
        }
    }

    fn bools(&self) -> Option<Operand<'_, bool>> {
        match self {
            Vector::Bool(xs) => Some(Operand::Col(xs)),
            Vector::Const(Value::Bool(x)) => Some(Operand::One(x)),
            _ => None,
        }
    }

    fn strs(&self) -> Option<Operand<'_, Arc<str>>> {
        match self {
            Vector::Str(xs) => Some(Operand::Col(xs)),
            Vector::Const(Value::Str(x)) => Some(Operand::One(x)),
            _ => None,
        }
    }

    /// Element 0 as a value, for a scalar-typed vector of a non-empty run.
    fn first(&self) -> Option<Value> {
        Some(match self {
            Vector::Const(v @ (Value::I64(_) | Value::F64(_) | Value::Bool(_) | Value::Str(_))) => {
                v.clone()
            }
            Vector::I64(xs) => Value::I64(xs[0]),
            Vector::F64(xs) => Value::F64(xs[0]),
            Vector::Bool(xs) => Value::Bool(xs[0]),
            Vector::Str(xs) => Value::Str(xs[0].clone()),
            _ => return None,
        })
    }

    /// Integers widened to floats, as mixed arithmetic does to its integer
    /// side ([`Value::as_f64`]).
    fn widened(self) -> Result<Vector<'a>, Fallback> {
        match self {
            Vector::I64(xs) => Ok(Vector::F64(xs.iter().map(|&x| x as f64).collect())),
            Vector::Const(Value::I64(x)) => Ok(Vector::Const(Value::F64(x as f64))),
            v @ (Vector::F64(_) | Vector::Const(Value::F64(_))) => Ok(v),
            _ => Err(Fallback),
        }
    }
}

/// `f` over every element of one operand.
fn map1<A, T>(a: Operand<'_, A>, n: usize, f: impl Fn(&A) -> T) -> Vec<T> {
    match a {
        Operand::Col(xs) => xs.iter().map(f).collect(),
        Operand::One(x) => (0..n).map(|_| f(x)).collect(),
    }
}

/// `f` over every element pair of two operands; the first error ends it.
fn map2<A, B, T>(
    a: Operand<'_, A>,
    b: Operand<'_, B>,
    n: usize,
    f: impl Fn(&A, &B) -> Result<T, EvalError>,
) -> Result<Vec<T>, Fallback> {
    let mut out = Vec::with_capacity(n);
    match (a, b) {
        (Operand::Col(xs), Operand::Col(ys)) => {
            for (x, y) in xs.iter().zip(ys) {
                out.push(f(x, y)?);
            }
        }
        (Operand::Col(xs), Operand::One(y)) => {
            for x in xs {
                out.push(f(x, y)?);
            }
        }
        (Operand::One(x), Operand::Col(ys)) => {
            for y in ys {
                out.push(f(x, y)?);
            }
        }
        // Two broadcast scalars are folded by the scalar evaluator before
        // any typed loop ([`binary`], [`call`]).
        (Operand::One(_), Operand::One(_)) => return Err(Fallback),
    }
    Ok(out)
}

/// Expands `$body` once per listed operator with `$OP` a *constant* naming
/// it, so each expansion instantiates its loop with the operator's `match`
/// already decided.
macro_rules! per_op {
    ($op:expr, $OP:ident in [$($variant:ident)*] => $body:expr) => {
        match $op {
            $(BinOp::$variant => {
                const $OP: BinOp = BinOp::$variant;
                $body
            })*
            _ => return Err(Fallback),
        }
    };
}

/// The comparison `op` of two same-typed operands that order by `order`.
fn compare<'a, T>(
    op: BinOp,
    l: Operand<'_, T>,
    r: Operand<'_, T>,
    n: usize,
    order: impl Fn(&T, &T) -> Ordering,
) -> Result<Vector<'a>, Fallback> {
    let out = per_op!(op, OP in [Eq Ne Lt Le Gt Ge] => {
        map2(l, r, n, |a, b| Ok(cmp_holds(OP, order(a, b))))?
    });
    Ok(Vector::Bool(Cow::Owned(out)))
}

fn binary<'a>(op: BinOp, l: Vector<'a>, r: Vector<'a>, n: usize) -> Result<Vector<'a>, Fallback> {
    let (l, r) = match (l, r) {
        (Vector::Const(a), Vector::Const(b)) => {
            return Ok(Vector::Const(eval_binary(op, a, b)?));
        }
        operands => operands,
    };
    let comparison = matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    );
    if comparison {
        // Payloads order as `Value::cmp` orders them: floats by `total_cmp`.
        if let (Some(a), Some(b)) = (l.i64s(), r.i64s()) {
            return compare(op, a, b, n, i64::cmp);
        }
        if let (Some(a), Some(b)) = (l.f64s(), r.f64s()) {
            return compare(op, a, b, n, f64::total_cmp);
        }
        if let (Some(a), Some(b)) = (l.bools(), r.bools()) {
            return compare(op, a, b, n, bool::cmp);
        }
        if let (Some(a), Some(b)) = (l.strs(), r.strs()) {
            return compare(op, a, b, n, Arc::cmp);
        }
        // Two different scalar types: values of different types order by
        // type alone, so element 0 decides for the whole run.
        let (a, b) = (l.first().ok_or(Fallback)?, r.first().ok_or(Fallback)?);
        return Ok(Vector::Const(Value::Bool(cmp_holds(op, a.cmp(&b)))));
    }
    if let (Some(a), Some(b)) = (l.i64s(), r.i64s()) {
        let out = per_op!(op, OP in [Add Sub Mul Div Mod] => map2(a, b, n, |a, b| {
            arith_i64(OP, *a, *b)
        })?);
        return Ok(Vector::I64(Cow::Owned(out)));
    }
    // Anything else that is arithmetic is float arithmetic on two numbers;
    // strings (`+` concatenates) and type errors are not numbers.
    let (l, r) = (l.widened()?, r.widened()?);
    let (a, b) = (l.f64s().ok_or(Fallback)?, r.f64s().ok_or(Fallback)?);
    let out = per_op!(op, OP in [Add Sub Mul Div Mod] => map2(a, b, n, |a, b| {
        Ok(arith_f64(OP, *a, *b))
    })?);
    Ok(Vector::F64(Cow::Owned(out)))
}

fn unary<'a>(op: UnOp, v: Vector<'a>, n: usize) -> Result<Vector<'a>, Fallback> {
    if let Vector::Const(v) = &v {
        return Ok(Vector::Const(eval_unary(op, v)?));
    }
    match op {
        UnOp::Neg => {
            if let Some(xs) = v.i64s() {
                return Ok(Vector::I64(map1(xs, n, |&x| neg_i64(x)).into()));
            }
            let xs = v.f64s().ok_or(Fallback)?;
            Ok(Vector::F64(map1(xs, n, |&x| -x).into()))
        }
        UnOp::Not => {
            let xs = v.bools().ok_or(Fallback)?;
            Ok(Vector::Bool(map1(xs, n, |&b| !b).into()))
        }
    }
}

fn call<'a>(func: Func, mut args: Vec<Vector<'a>>, n: usize) -> Result<Vector<'a>, Fallback> {
    if args.len() != func.arity() {
        return Err(Fallback);
    }
    let constants = args.iter().map(|a| match a {
        Vector::Const(v) => Some(v.clone()),
        _ => None,
    });
    if let Some(values) = constants.collect::<Option<Vec<Value>>>() {
        return Ok(Vector::Const(eval_call(func, &values)?));
    }
    let second = if func.arity() == 2 { args.pop() } else { None };
    let first = args.pop().ok_or(Fallback)?;
    match func {
        Func::Abs => {
            if let Some(xs) = first.i64s() {
                return Ok(Vector::I64(map1(xs, n, |&x| abs_i64(x)).into()));
            }
            let xs = first.f64s().ok_or(Fallback)?;
            Ok(Vector::F64(map1(xs, n, |x| x.abs()).into()))
        }
        Func::Min | Func::Max => {
            let second = second.ok_or(Fallback)?;
            if let (Some(a), Some(b)) = (first.i64s(), second.i64s()) {
                let out = map2(a, b, n, |a, b| Ok(min_max_i64(func, *a, *b)))?;
                return Ok(Vector::I64(out.into()));
            }
            let (first, second) = (first.widened()?, second.widened()?);
            let (a, b) = (
                first.f64s().ok_or(Fallback)?,
                second.f64s().ok_or(Fallback)?,
            );
            let out = map2(a, b, n, |a, b| Ok(min_max_f64(func, *a, *b)))?;
            Ok(Vector::F64(out.into()))
        }
        Func::Len => {
            let xs = first.strs().ok_or(Fallback)?;
            Ok(Vector::I64(map1(xs, n, |s| str_len(s)).into()))
        }
        Func::Sqrt => {
            let first = first.widened()?;
            let xs = first.f64s().ok_or(Fallback)?;
            Ok(Vector::F64(map1(xs, n, |x| x.sqrt()).into()))
        }
        Func::Floor | Func::Ceil => {
            let first = first.widened()?;
            let xs = first.f64s().ok_or(Fallback)?;
            Ok(Vector::I64(map1(xs, n, |&x| round_i64(func, x)).into()))
        }
        Func::ToI64 => match first {
            v @ Vector::I64(_) => Ok(v),
            Vector::F64(xs) => Ok(Vector::I64(xs.iter().map(|&x| f64_to_i64(x)).collect())),
            _ => Err(Fallback),
        },
        Func::ToF64 => first.widened(),
        Func::Hash | Func::ToStr | Func::Dist2 | Func::VAdd | Func::VScale => Err(Fallback),
    }
}

/// Evaluates `expr` over a run of `n > 0` elements: `$0` is `elem`, `$k` is
/// `captured[k - 1]`.
fn eval_vector<'a>(
    expr: &Expr,
    elem: &Vector<'a>,
    captured: &[Value],
    n: usize,
) -> Result<Vector<'a>, Fallback> {
    match expr {
        Expr::Lit(v) => Ok(Vector::Const(v.clone())),
        Expr::Param(0) => Ok(elem.clone()),
        Expr::Param(k) => Ok(Vector::Const(captured.get(k - 1).ok_or(Fallback)?.clone())),
        Expr::Tuple(es) => Ok(Vector::Tuple(
            es.iter()
                .map(|e| eval_vector(e, elem, captured, n))
                .collect::<Result<_, _>>()?,
        )),
        Expr::Index(e, i) => {
            // Projecting `$0` clones one borrowed column, not the tuple.
            if let (Expr::Param(0), Vector::Tuple(fields)) = (&**e, elem) {
                return fields.get(*i).cloned().ok_or(Fallback);
            }
            match eval_vector(e, elem, captured, n)? {
                Vector::Tuple(mut fields) if *i < fields.len() => Ok(fields.swap_remove(*i)),
                Vector::Const(v) => Ok(Vector::Const(v.field(*i).ok_or(Fallback)?.clone())),
                _ => Err(Fallback),
            }
        }
        Expr::Unary(op, e) => unary(*op, eval_vector(e, elem, captured, n)?, n),
        Expr::Binary(BinOp::And | BinOp::Or, _, _) => Err(Fallback),
        Expr::Binary(op, l, r) => {
            let l = eval_vector(l, elem, captured, n)?;
            let r = eval_vector(r, elem, captured, n)?;
            binary(*op, l, r, n)
        }
        Expr::Call(func, es) => {
            let args = es
                .iter()
                .map(|e| eval_vector(e, elem, captured, n))
                .collect::<Result<_, _>>()?;
            call(*func, args, n)
        }
        Expr::Var(_) | Expr::List(_) | Expr::If(..) => Err(Fallback),
    }
}

/// The fields of a value that becomes one output element: a scalar's one,
/// or a (flat, narrow enough) tuple's.
fn fields_of(v: Vector<'_>) -> Result<Item<'_>, Fallback> {
    match v {
        Vector::Tuple(fields) if (1..=MAX_ARITY).contains(&fields.len()) => Ok((true, fields)),
        Vector::Tuple(_) | Vector::Opaque => Err(Fallback),
        scalar => Ok((false, vec![scalar])),
    }
}

fn run_of(is_tuple: bool, mut cols: Vec<Col>) -> Run {
    if is_tuple {
        Run::Tuple {
            arity: cols.len(),
            cols,
        }
    } else {
        Run::Scalar(cols.pop().expect("a scalar is one column"))
    }
}

fn map_run(expr: &Expr, captured: &[Value], run: &Run, out: &mut Batch) -> Result<(), Fallback> {
    let n = run.len();
    match eval_vector(expr, &Vector::of_run(run)?, captured, n)? {
        // Any value at all, `n` times: let `push` find its place.
        Vector::Const(v) => (0..n).for_each(|_| out.push_ref(&v)),
        v => {
            let (is_tuple, fields) = fields_of(v)?;
            let cols = fields
                .into_iter()
                .map(|f| f.into_col(n))
                .collect::<Result<Vec<_>, _>>()?;
            out.append_run(run_of(is_tuple, cols));
        }
    }
    Ok(())
}

fn filter_run(expr: &Expr, captured: &[Value], run: &Run, out: &mut Batch) -> Result<(), Fallback> {
    let n = run.len();
    let keep = match eval_vector(expr, &Vector::of_run(run)?, captured, n)? {
        Vector::Bool(keep) => keep,
        Vector::Const(Value::Bool(keep)) => vec![keep; n].into(),
        // Not a bool: the row loop says so.
        _ => return Err(Fallback),
    };
    let kept = keep.iter().filter(|&&k| k).count();
    if kept > 0 {
        out.append_run(match run {
            Run::Scalar(col) => Run::Scalar(col.select(&keep, kept)),
            Run::Tuple { arity, cols } => Run::Tuple {
                arity: *arity,
                cols: cols.iter().map(|c| c.select(&keep, kept)).collect(),
            },
            Run::Rows(_) => return Err(Fallback),
        });
    }
    Ok(())
}

/// An item of a `flatMap` list literal: whether it is a tuple, and its
/// fields (a scalar's one).
type Item<'a> = (bool, Vec<Vector<'a>>);

/// Field `j` of element `i` of every item in turn, for each `i` — the order
/// `flatMap` emits a list literal's items in — if all of them are `T`s.
fn interleaved<'v, 'a, T: Clone>(
    items: &'v [Item<'a>],
    j: usize,
    n: usize,
    operand: fn(&'v Vector<'a>) -> Option<Operand<'v, T>>,
) -> Option<Vec<T>> {
    let operands = items
        .iter()
        .map(|(_, fields)| operand(&fields[j]))
        .collect::<Option<Vec<_>>>()?;
    let mut out = Vec::with_capacity(n * operands.len());
    for i in 0..n {
        out.extend(operands.iter().map(|o| o.get(i).clone()));
    }
    Some(out)
}

fn flat_map_run(
    expr: &Expr,
    captured: &[Value],
    run: &Run,
    out: &mut Batch,
) -> Result<(), Fallback> {
    // Only a list literal's items are columns; any other list-valued body
    // builds its lists per element.
    let Expr::List(items) = expr else {
        return Err(Fallback);
    };
    let n = run.len();
    let elem = Vector::of_run(run)?;
    let items = items
        .iter()
        .map(|e| fields_of(eval_vector(e, &elem, captured, n)?))
        .collect::<Result<Vec<_>, _>>()?;
    // One output run needs every item to be the same kind of element:
    // the same arity, and per field the same scalar type.
    let (is_tuple, first) = items.first().ok_or(Fallback)?;
    let arity = first.len();
    if items.iter().any(|(t, f)| t != is_tuple || f.len() != arity) {
        return Err(Fallback);
    }
    let cols = (0..arity)
        .map(|j| {
            if let Some(xs) = interleaved(&items, j, n, Vector::i64s) {
                Ok(Col::I64(xs))
            } else if let Some(xs) = interleaved(&items, j, n, Vector::f64s) {
                Ok(Col::F64(xs))
            } else if let Some(xs) = interleaved(&items, j, n, Vector::bools) {
                Ok(Col::Bool(xs))
            } else if let Some(xs) = interleaved(&items, j, n, Vector::strs) {
                Ok(Col::Str(xs))
            } else {
                Err(Fallback)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    out.append_run(run_of(*is_tuple, cols));
    Ok(())
}

impl Batch {
    /// Runs `per_run` on every run, and on the runs it gives up on
    /// `per_row` with each element in turn as `params[0]`.
    fn transform(
        &self,
        captured: &[Value],
        per_run: impl Fn(&Run, &mut Batch) -> Result<(), Fallback>,
        mut per_row: impl FnMut(&[Value], &mut Batch) -> Result<(), EvalError>,
    ) -> Result<Batch, EvalError> {
        let mut out = Batch::new();
        let mut params: Vec<Value> = Vec::new();
        for run in &self.runs {
            if run.len() == 0 || per_run(run, &mut out).is_ok() {
                continue;
            }
            if params.is_empty() {
                params.push(Value::Unit);
                params.extend_from_slice(captured);
            }
            run.try_for_each(|v| {
                params[0] = v;
                per_row(&params, &mut out)
            })?;
        }
        Ok(out)
    }

    /// `map`: `expr($0 = element, $1.. = captured)` of every element.
    pub fn map_expr(&self, expr: &Expr, captured: &[Value]) -> Result<Batch, EvalError> {
        self.transform(
            captured,
            |run, out| map_run(expr, captured, run, out),
            |params, out| {
                out.push_ref(&eval(expr, params)?);
                Ok(())
            },
        )
    }

    /// `filter`: the elements `expr` is `true` of; anything but a bool is
    /// an error.
    pub fn filter_expr(&self, expr: &Expr, captured: &[Value]) -> Result<Batch, EvalError> {
        self.transform(
            captured,
            |run, out| filter_run(expr, captured, run, out),
            |params, out| match eval(expr, params)? {
                Value::Bool(true) => {
                    out.push_ref(&params[0]);
                    Ok(())
                }
                Value::Bool(false) => Ok(()),
                other => Err(EvalError::new(format!(
                    "filter predicate must return bool, got {other:?}"
                ))),
            },
        )
    }

    /// `flatMap`: the elements of the list `expr` makes of every element;
    /// anything but a list is an error.
    pub fn flat_map_expr(&self, expr: &Expr, captured: &[Value]) -> Result<Batch, EvalError> {
        self.transform(
            captured,
            |run, out| flat_map_run(expr, captured, run, out),
            |params, out| {
                let result = eval(expr, params)?;
                let elems = result.as_list().ok_or_else(|| {
                    EvalError::new(format!("flatMap lambda must return a list, got {result:?}"))
                })?;
                elems.iter().for_each(|e| out.push_ref(e));
                Ok(())
            },
        )
    }
}
