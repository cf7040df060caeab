//! Scalar expressions: the bodies of operator lambdas and of wrapped scalar
//! computations.
//!
//! An [`Expr`] appears in two stages of the pipeline:
//!
//! * **Surface stage** — produced by the parser/builder. Free variables are
//!   [`Expr::Var`] nodes referring to program variables by name.
//! * **Compiled stage** — after IR lowering, every free variable has been
//!   rewritten to a positional [`Expr::Param`]: parameter 0 (and 1 for binary
//!   lambdas) is the bag element, later parameters are captured scalar
//!   variables that the dataflow builder turned into extra one-element-bag
//!   inputs of the operator.
//!
//! The evaluator only accepts compiled expressions; hitting a `Var` at
//! runtime is reported as an internal error.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Binary operators of the expression language.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // arithmetic/comparison variants are self-describing
pub enum BinOp {
    /// Numeric addition; string concatenation when either side is a string.
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// The surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Built-in functions callable from expressions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // each is documented on its doc comment group
pub enum Func {
    /// `abs(x)` — absolute value of an i64 or f64.
    Abs,
    /// `sqrt(x)` — square root (result is f64).
    Sqrt,
    /// `min(a, b)` / `max(a, b)` — numeric minimum / maximum.
    Min,
    Max,
    /// `floor(x)` / `ceil(x)` — rounding to i64.
    Floor,
    Ceil,
    /// `hash(x)` — a deterministic 64-bit hash of any value.
    Hash,
    /// `str(x)` — render any value as a string.
    ToStr,
    /// `i64(x)` / `f64(x)` — numeric conversions (also parse strings).
    ToI64,
    ToF64,
    /// `len(x)` — length of a string, tuple, or list.
    Len,
    /// `dist2(a, b)` — squared Euclidean distance of two numeric lists.
    Dist2,
    /// `vadd(a, b)` — element-wise sum of two numeric lists.
    VAdd,
    /// `vscale(a, s)` — multiply each element of a numeric list by a scalar.
    VScale,
}

impl Func {
    /// Parses a builtin name, as used by the parser.
    pub fn from_name(name: &str) -> Option<Func> {
        Some(match name {
            "abs" => Func::Abs,
            "sqrt" => Func::Sqrt,
            "min" => Func::Min,
            "max" => Func::Max,
            "floor" => Func::Floor,
            "ceil" => Func::Ceil,
            "hash" => Func::Hash,
            "str" => Func::ToStr,
            "i64" => Func::ToI64,
            "f64" => Func::ToF64,
            "len" => Func::Len,
            "dist2" => Func::Dist2,
            "vadd" => Func::VAdd,
            "vscale" => Func::VScale,
            _ => return None,
        })
    }

    /// The number of arguments the builtin expects.
    pub fn arity(self) -> usize {
        match self {
            Func::Abs
            | Func::Sqrt
            | Func::Floor
            | Func::Ceil
            | Func::Hash
            | Func::ToStr
            | Func::ToI64
            | Func::ToF64
            | Func::Len => 1,
            Func::Min | Func::Max | Func::Dist2 | Func::VAdd | Func::VScale => 2,
        }
    }

    /// The surface name of the builtin.
    pub fn name(self) -> &'static str {
        match self {
            Func::Abs => "abs",
            Func::Sqrt => "sqrt",
            Func::Min => "min",
            Func::Max => "max",
            Func::Floor => "floor",
            Func::Ceil => "ceil",
            Func::Hash => "hash",
            Func::ToStr => "str",
            Func::ToI64 => "i64",
            Func::ToF64 => "f64",
            Func::Len => "len",
            Func::Dist2 => "dist2",
            Func::VAdd => "vadd",
            Func::VScale => "vscale",
        }
    }
}

/// A scalar expression tree.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A named variable reference (surface stage only).
    Var(Arc<str>),
    /// A positional parameter (compiled stage).
    Param(usize),
    /// Tuple construction.
    Tuple(Vec<Expr>),
    /// List construction.
    List(Vec<Expr>),
    /// Indexing into a tuple or list: `e[2]`.
    Index(Box<Expr>, usize),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation. `&&`/`||` short-circuit.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Builtin function call.
    Call(Func, Vec<Expr>),
    /// Conditional expression: `if c then a else b`.
    If(Box<Expr>, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A literal expression.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// A named variable reference.
    pub fn var(name: impl AsRef<str>) -> Expr {
        Expr::Var(Arc::from(name.as_ref()))
    }

    /// Shorthand for a binary operation.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// Collects the free variable names of the expression, in first-use order.
    pub fn free_vars(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Var(name) = e {
                if !out.iter().any(|n: &Arc<str>| n == name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// The largest `Param` index used, if any.
    pub fn max_param(&self) -> Option<usize> {
        let mut max: Option<usize> = None;
        self.walk(&mut |e| {
            if let Expr::Param(i) = e {
                max = Some(max.map_or(*i, |m| m.max(*i)));
            }
        });
        max
    }

    /// Number of nodes in the tree; used by the cost model to charge
    /// per-element CPU time proportional to lambda complexity.
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Rewrites every `Var` node using `f`; used by IR lowering to replace
    /// names with positional parameters.
    pub fn map_vars(&self, f: &mut impl FnMut(&str) -> Expr) -> Expr {
        match self {
            Expr::Var(name) => f(name),
            Expr::Lit(_) | Expr::Param(_) => self.clone(),
            Expr::Tuple(es) => Expr::Tuple(es.iter().map(|e| e.map_vars(f)).collect()),
            Expr::List(es) => Expr::List(es.iter().map(|e| e.map_vars(f)).collect()),
            Expr::Index(e, i) => Expr::Index(Box::new(e.map_vars(f)), *i),
            Expr::Unary(op, e) => Expr::Unary(*op, Box::new(e.map_vars(f))),
            Expr::Binary(op, l, r) => {
                Expr::Binary(*op, Box::new(l.map_vars(f)), Box::new(r.map_vars(f)))
            }
            Expr::Call(func, es) => Expr::Call(*func, es.iter().map(|e| e.map_vars(f)).collect()),
            Expr::If(c, t, e) => Expr::If(
                Box::new(c.map_vars(f)),
                Box::new(t.map_vars(f)),
                Box::new(e.map_vars(f)),
            ),
        }
    }

    fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Param(_) => {}
            Expr::Tuple(es) | Expr::List(es) | Expr::Call(_, es) => {
                for e in es {
                    e.walk(f);
                }
            }
            Expr::Index(e, _) | Expr::Unary(_, e) => e.walk(f),
            Expr::Binary(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            Expr::If(c, t, e) => {
                c.walk(f);
                t.walk(f);
                e.walk(f);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v:?}"),
            Expr::Var(n) => write!(f, "{n}"),
            Expr::Param(i) => write!(f, "${i}"),
            Expr::Tuple(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::List(es) => {
                write!(f, "[")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
            Expr::Index(e, i) => write!(f, "{e}[{i}]"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "!({e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            Expr::Call(func, es) => {
                write!(f, "{}(", func.name())?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::If(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
        }
    }
}

/// An error raised while evaluating a compiled expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EvalError {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl EvalError {
    pub(crate) fn new(message: impl Into<String>) -> EvalError {
        EvalError {
            message: message.into(),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.message)
    }
}

impl std::error::Error for EvalError {}

/// Evaluates a compiled expression against positional parameters.
pub fn eval(expr: &Expr, params: &[Value]) -> Result<Value, EvalError> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Var(name) => Err(EvalError::new(format!(
            "unresolved variable `{name}` at runtime (internal lowering bug)"
        ))),
        Expr::Param(i) => params.get(*i).cloned().ok_or_else(|| {
            EvalError::new(format!(
                "parameter ${i} out of range ({} provided)",
                params.len()
            ))
        }),
        Expr::Tuple(es) => Ok(Value::Tuple(eval_fields(es, params)?)),
        Expr::List(es) => Ok(Value::List(eval_fields(es, params)?)),
        Expr::Index(e, i) => {
            let v = eval(e, params)?;
            v.field(*i)
                .cloned()
                .ok_or_else(|| EvalError::new(format!("index {i} out of range on {v:?}")))
        }
        Expr::Unary(op, e) => eval_unary(*op, &eval(e, params)?),
        Expr::Binary(BinOp::And, l, r) => {
            if expect_bool(eval(l, params)?)? {
                Ok(Value::Bool(expect_bool(eval(r, params)?)?))
            } else {
                Ok(Value::Bool(false))
            }
        }
        Expr::Binary(BinOp::Or, l, r) => {
            if expect_bool(eval(l, params)?)? {
                Ok(Value::Bool(true))
            } else {
                Ok(Value::Bool(expect_bool(eval(r, params)?)?))
            }
        }
        Expr::Binary(op, l, r) => {
            let lv = eval(l, params)?;
            let rv = eval(r, params)?;
            eval_binary(*op, lv, rv)
        }
        Expr::Call(func, es) => {
            let args: Result<Vec<Value>, EvalError> = es.iter().map(|e| eval(e, params)).collect();
            eval_call(*func, &args?)
        }
        Expr::If(c, t, e) => {
            if expect_bool(eval(c, params)?)? {
                eval(t, params)
            } else {
                eval(e, params)
            }
        }
    }
}

/// Evaluates the fields of a tuple or list literal straight into their
/// shared slice: the iterator is exact-size, so the `Arc<[Value]>` is the
/// only allocation. After a failing field the rest are skipped.
fn eval_fields(es: &[Expr], params: &[Value]) -> Result<Arc<[Value]>, EvalError> {
    let mut failed = None;
    let fields = es
        .iter()
        .map(|e| {
            if failed.is_some() {
                return Value::Unit;
            }
            eval(e, params).unwrap_or_else(|err| {
                failed = Some(err);
                Value::Unit
            })
        })
        .collect();
    match failed {
        Some(err) => Err(err),
        None => Ok(fields),
    }
}

fn expect_bool(v: Value) -> Result<bool, EvalError> {
    v.as_bool()
        .ok_or_else(|| EvalError::new(format!("expected bool, got {}", v.type_name())))
}

// ---- Per-scalar rules ------------------------------------------------------
//
// The one definition of each typed operation. `eval` applies them to a pair
// of `Value`s, the column evaluator (`crate::batch`) to whole columns; the
// operator is a constant at every column call site, so the `match` folds
// away there.

/// Whether comparison `op` holds of operands that order as `ord` (the
/// [`Value`] total order; `==` is `Ordering::Equal` under it).
#[inline]
pub(crate) fn cmp_holds(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("not a comparison"),
    }
}

/// Integer arithmetic: wrapping, with division and modulo by zero errors.
#[inline]
pub(crate) fn arith_i64(op: BinOp, a: i64, b: i64) -> Result<i64, EvalError> {
    Ok(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(EvalError::new("integer division by zero"));
            }
            a.wrapping_div(b)
        }
        BinOp::Mod => {
            if b == 0 {
                return Err(EvalError::new("integer modulo by zero"));
            }
            a.wrapping_rem(b)
        }
        _ => unreachable!("not arithmetic"),
    })
}

/// Float arithmetic (either operand was a float; integers were widened).
#[inline]
pub(crate) fn arith_f64(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Mod => a % b,
        _ => unreachable!("not arithmetic"),
    }
}

/// `-x` on integers wraps.
#[inline]
pub(crate) fn neg_i64(x: i64) -> i64 {
    x.wrapping_neg()
}

/// `abs(x)` on integers wraps (`abs(i64::MIN)` is `i64::MIN`).
#[inline]
pub(crate) fn abs_i64(x: i64) -> i64 {
    x.wrapping_abs()
}

/// `min`/`max` of two integers.
#[inline]
pub(crate) fn min_max_i64(func: Func, a: i64, b: i64) -> i64 {
    if func == Func::Min {
        a.min(b)
    } else {
        a.max(b)
    }
}

/// `min`/`max` when either operand is a float (a NaN operand is ignored).
#[inline]
pub(crate) fn min_max_f64(func: Func, a: f64, b: f64) -> f64 {
    if func == Func::Min {
        a.min(b)
    } else {
        a.max(b)
    }
}

/// `floor`/`ceil` to an integer (saturating, NaN is 0).
#[inline]
pub(crate) fn round_i64(func: Func, x: f64) -> i64 {
    if func == Func::Floor {
        x.floor() as i64
    } else {
        x.ceil() as i64
    }
}

/// `i64(x)` of a float truncates (saturating, NaN is 0).
#[inline]
pub(crate) fn f64_to_i64(x: f64) -> i64 {
    x as i64
}

/// `len(s)` of a string is its length in bytes.
#[inline]
pub(crate) fn str_len(s: &str) -> i64 {
    s.len() as i64
}

pub(crate) fn eval_unary(op: UnOp, v: &Value) -> Result<Value, EvalError> {
    match (op, v) {
        (UnOp::Neg, Value::I64(x)) => Ok(Value::I64(neg_i64(*x))),
        (UnOp::Neg, Value::F64(x)) => Ok(Value::F64(-x)),
        (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
        _ => Err(EvalError::new(format!(
            "cannot apply {op:?} to {}",
            v.type_name()
        ))),
    }
}

pub(crate) fn eval_binary(op: BinOp, l: Value, r: Value) -> Result<Value, EvalError> {
    use BinOp::*;
    if matches!(op, Eq | Ne | Lt | Le | Gt | Ge) {
        return Ok(Value::Bool(cmp_holds(op, l.cmp(&r))));
    }
    // `+` on strings is concatenation; the right side is stringified, which
    // is what `"pageVisitLog" + day` in the running example relies on.
    if op == Add {
        if let Value::Str(s) = &l {
            return Ok(Value::str(format!("{s}{r}")));
        }
        if let Value::Str(s) = &r {
            return Ok(Value::str(format!("{l}{s}")));
        }
    }
    match (&l, &r) {
        (Value::I64(a), Value::I64(b)) => Ok(Value::I64(arith_i64(op, *a, *b)?)),
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => Ok(Value::F64(arith_f64(op, a, b))),
            _ => Err(EvalError::new(format!(
                "cannot apply `{}` to {} and {}",
                op.symbol(),
                l.type_name(),
                r.type_name()
            ))),
        },
    }
}

pub(crate) fn eval_call(func: Func, args: &[Value]) -> Result<Value, EvalError> {
    if args.len() != func.arity() {
        return Err(EvalError::new(format!(
            "{} expects {} argument(s), got {}",
            func.name(),
            func.arity(),
            args.len()
        )));
    }
    let num = |v: &Value| -> Result<f64, EvalError> {
        v.as_f64()
            .ok_or_else(|| EvalError::new(format!("{} expects a number", func.name())))
    };
    match func {
        Func::Abs => match &args[0] {
            Value::I64(v) => Ok(Value::I64(abs_i64(*v))),
            Value::F64(v) => Ok(Value::F64(v.abs())),
            v => Err(EvalError::new(format!("abs expects a number, got {v:?}"))),
        },
        Func::Sqrt => Ok(Value::F64(num(&args[0])?.sqrt())),
        Func::Min | Func::Max => match (&args[0], &args[1]) {
            (Value::I64(a), Value::I64(b)) => Ok(Value::I64(min_max_i64(func, *a, *b))),
            (a, b) => Ok(Value::F64(min_max_f64(func, num(a)?, num(b)?))),
        },
        Func::Floor | Func::Ceil => Ok(Value::I64(round_i64(func, num(&args[0])?))),
        Func::Hash => {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            args[0].hash(&mut h);
            Ok(Value::I64(h.finish() as i64))
        }
        Func::ToStr => Ok(Value::str(args[0].to_string())),
        Func::ToI64 => match &args[0] {
            Value::I64(v) => Ok(Value::I64(*v)),
            Value::F64(v) => Ok(Value::I64(f64_to_i64(*v))),
            Value::Bool(b) => Ok(Value::I64(*b as i64)),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::I64)
                .map_err(|_| EvalError::new(format!("cannot parse {s:?} as i64"))),
            v => Err(EvalError::new(format!("cannot convert {v:?} to i64"))),
        },
        Func::ToF64 => match &args[0] {
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::F64)
                .map_err(|_| EvalError::new(format!("cannot parse {s:?} as f64"))),
            v => num(v).map(Value::F64),
        },
        Func::Len => match &args[0] {
            Value::Str(s) => Ok(Value::I64(str_len(s))),
            Value::Tuple(t) | Value::List(t) => Ok(Value::I64(t.len() as i64)),
            v => Err(EvalError::new(format!(
                "len expects str/tuple/list, got {v:?}"
            ))),
        },
        Func::Dist2 => {
            let (a, b) = (numeric_list(&args[0])?, numeric_list(&args[1])?);
            if a.len() != b.len() {
                return Err(EvalError::new("dist2: dimension mismatch"));
            }
            Ok(Value::F64(
                a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum(),
            ))
        }
        Func::VAdd => {
            let (a, b) = (numeric_list(&args[0])?, numeric_list(&args[1])?);
            if a.len() != b.len() {
                return Err(EvalError::new("vadd: dimension mismatch"));
            }
            Ok(Value::list(
                a.iter().zip(b.iter()).map(|(x, y)| Value::F64(x + y)),
            ))
        }
        Func::VScale => {
            let a = numeric_list(&args[0])?;
            let s = num(&args[1])?;
            Ok(Value::list(a.iter().map(|x| Value::F64(x * s))))
        }
    }
}

fn numeric_list(v: &Value) -> Result<Vec<f64>, EvalError> {
    let elems = v
        .as_list()
        .or_else(|| v.as_tuple())
        .ok_or_else(|| EvalError::new(format!("expected a numeric list, got {v:?}")))?;
    elems
        .iter()
        .map(|e| {
            e.as_f64()
                .ok_or_else(|| EvalError::new(format!("expected a number, got {e:?}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(expr: &Expr) -> Value {
        eval(expr, &[]).unwrap()
    }

    #[test]
    fn arithmetic_int_and_float() {
        let sum = Expr::bin(BinOp::Add, Expr::lit(2i64), Expr::lit(3i64));
        assert_eq!(e(&sum), Value::I64(5));
        let mixed = Expr::bin(BinOp::Mul, Expr::lit(2i64), Expr::lit(1.5f64));
        assert_eq!(e(&mixed), Value::F64(3.0));
    }

    #[test]
    fn string_concat_builds_file_names() {
        let name = Expr::bin(BinOp::Add, Expr::lit("pageVisitLog"), Expr::lit(7i64));
        assert_eq!(e(&name), Value::str("pageVisitLog7"));
        let rev = Expr::bin(BinOp::Add, Expr::lit(7i64), Expr::lit("x"));
        assert_eq!(e(&rev), Value::str("7x"));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let div = Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        assert!(eval(&div, &[]).is_err());
        let modz = Expr::bin(BinOp::Mod, Expr::lit(1i64), Expr::lit(0i64));
        assert!(eval(&modz, &[]).is_err());
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        let bad = Expr::bin(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        let guarded = Expr::bin(
            BinOp::And,
            Expr::lit(false),
            Expr::bin(BinOp::Eq, bad.clone(), Expr::lit(1i64)),
        );
        assert_eq!(e(&guarded), Value::Bool(false));
        let or = Expr::bin(
            BinOp::Or,
            Expr::lit(true),
            Expr::bin(BinOp::Eq, bad, Expr::lit(1i64)),
        );
        assert_eq!(e(&or), Value::Bool(true));
    }

    #[test]
    fn params_and_indexing() {
        let expr = Expr::bin(
            BinOp::Sub,
            Expr::Index(Box::new(Expr::Param(0)), 1),
            Expr::Index(Box::new(Expr::Param(0)), 2),
        );
        let row = Value::tuple([Value::I64(9), Value::I64(10), Value::I64(4)]);
        assert_eq!(eval(&expr, &[row]).unwrap(), Value::I64(6));
    }

    #[test]
    fn unresolved_var_is_internal_error() {
        let err = eval(&Expr::var("day"), &[]).unwrap_err();
        assert!(err.message.contains("day"));
    }

    #[test]
    fn builtins() {
        assert_eq!(
            e(&Expr::Call(Func::Abs, vec![Expr::lit(-4i64)])),
            Value::I64(4)
        );
        assert_eq!(
            e(&Expr::Call(
                Func::Min,
                vec![Expr::lit(4i64), Expr::lit(2i64)]
            )),
            Value::I64(2)
        );
        assert_eq!(
            e(&Expr::Call(Func::ToStr, vec![Expr::lit(12i64)])),
            Value::str("12")
        );
        assert_eq!(
            e(&Expr::Call(Func::ToI64, vec![Expr::lit("42")])),
            Value::I64(42)
        );
        assert_eq!(
            e(&Expr::Call(
                Func::Dist2,
                vec![
                    Expr::List(vec![Expr::lit(0.0), Expr::lit(0.0)]),
                    Expr::List(vec![Expr::lit(3.0), Expr::lit(4.0)]),
                ]
            )),
            Value::F64(25.0)
        );
    }

    #[test]
    fn vector_math() {
        let v = e(&Expr::Call(
            Func::VAdd,
            vec![
                Expr::List(vec![Expr::lit(1.0), Expr::lit(2.0)]),
                Expr::List(vec![Expr::lit(10.0), Expr::lit(20.0)]),
            ],
        ));
        assert_eq!(v, Value::list([Value::F64(11.0), Value::F64(22.0)]));
        let s = e(&Expr::Call(
            Func::VScale,
            vec![
                Expr::List(vec![Expr::lit(2.0), Expr::lit(4.0)]),
                Expr::lit(0.5),
            ],
        ));
        assert_eq!(s, Value::list([Value::F64(1.0), Value::F64(2.0)]));
    }

    #[test]
    fn free_vars_in_first_use_order() {
        let expr = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::var("b"), Expr::var("a")),
            Expr::var("b"),
        );
        let names: Vec<String> = expr.free_vars().iter().map(|s| s.to_string()).collect();
        assert_eq!(names, ["b", "a"]);
    }

    #[test]
    fn map_vars_rewrites_to_params() {
        let expr = Expr::bin(BinOp::Add, Expr::var("x"), Expr::lit(1i64));
        let compiled = expr.map_vars(&mut |name| {
            assert_eq!(name, "x");
            Expr::Param(0)
        });
        assert_eq!(eval(&compiled, &[Value::I64(41)]).unwrap(), Value::I64(42));
    }

    #[test]
    fn if_expression() {
        let expr = Expr::If(
            Box::new(Expr::bin(BinOp::Gt, Expr::Param(0), Expr::lit(0i64))),
            Box::new(Expr::lit("pos")),
            Box::new(Expr::lit("neg")),
        );
        assert_eq!(eval(&expr, &[Value::I64(5)]).unwrap(), Value::str("pos"));
        assert_eq!(eval(&expr, &[Value::I64(-5)]).unwrap(), Value::str("neg"));
    }

    #[test]
    fn display_round_trips_visually() {
        let expr = Expr::bin(BinOp::Le, Expr::var("day"), Expr::lit(365i64));
        assert_eq!(expr.to_string(), "(day <= 365)");
    }

    #[test]
    fn comparisons_use_total_order() {
        assert_eq!(
            e(&Expr::bin(BinOp::Lt, Expr::lit("a"), Expr::lit("b"))),
            Value::Bool(true)
        );
    }
}
