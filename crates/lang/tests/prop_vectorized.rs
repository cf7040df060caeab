//! Differential tests for the column-at-a-time lambda evaluator behind
//! `Batch::{map_expr, filter_expr, flat_map_expr}`: on random compiled
//! expressions and random batches it must agree with the plain row loop —
//! `eval` on each element in order, results `push`ed one by one — in the
//! output's *wire bytes* (so values and run layout both), or in the error
//! message of the first failing element.
//!
//! Expressions are generated against an element shape so that most of them
//! evaluate, and cover both the nodes the evaluator computes on columns
//! and the ones it hands back to the row loop (`&&`/`||`/`if`, string
//! concatenation, `hash`/`str`/vector builtins, nested tuples, lists).
//! Batches mostly follow the shape, with segments that do not: other
//! shapes (arity changes), a field whose type changes mid-run (a mixed
//! column), row values, empty and 1–3 element runs. The value pools are
//! small and full of edge cases (`i64::MIN`, `-1`, `0` as a divisor, NaN,
//! `-0.0`), so a zero divisor in the middle of a run, behind a type error
//! further on in another column, comes up by itself.

use mitos_lang::expr::{eval, BinOp, Expr, Func, UnOp};
use mitos_lang::{Batch, Value};
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

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Ty {
    I,
    F,
    B,
    S,
}

const TYPES: [Ty; 4] = [Ty::I, Ty::F, Ty::B, Ty::S];
const INTS: [i64; 12] = [0, 1, -1, 2, 3, 4, 7, -5, 100, 0, i64::MIN, i64::MAX];
const FLOATS: [f64; 10] = [
    0.0,
    -0.0,
    1.5,
    -2.25,
    4.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e300,
    -7.0,
];
const STRS: [&str; 6] = ["", "a", "ab", "b", "page", "日本"];

fn scalar(g: &mut Gen, ty: Ty) -> Value {
    match ty {
        Ty::I => Value::I64(g.pick(&INTS)),
        Ty::F => Value::F64(g.pick(&FLOATS)),
        Ty::B => Value::Bool(g.chance(50)),
        Ty::S => Value::str(g.pick(&STRS)),
    }
}

/// What the elements of a batch (mostly) look like: a scalar, or a tuple
/// of scalars.
#[derive(Clone, Debug)]
enum Shape {
    Scalar(Ty),
    Tuple(Vec<Ty>),
}

impl Shape {
    fn random(g: &mut Gen) -> Shape {
        if g.chance(35) {
            Shape::Scalar(g.pick(&TYPES))
        } else {
            Shape::Tuple((0..1 + g.below(3)).map(|_| g.pick(&TYPES)).collect())
        }
    }

    fn elem(&self, g: &mut Gen) -> Value {
        match self {
            Shape::Scalar(ty) => scalar(g, *ty),
            Shape::Tuple(tys) => Value::tuple(tys.iter().map(|ty| scalar(g, *ty))),
        }
    }

    /// Sub-expressions of type `ty` that read the element.
    fn reads(&self, ty: Ty) -> Vec<Expr> {
        match self {
            Shape::Scalar(t) if *t == ty => vec![Expr::Param(0)],
            Shape::Scalar(_) => vec![],
            Shape::Tuple(tys) => tys
                .iter()
                .enumerate()
                .filter(|(_, t)| **t == ty)
                .map(|(j, _)| Expr::Index(Box::new(Expr::Param(0)), j))
                .collect(),
        }
    }
}

/// A value no column holds: it lands in a row run.
fn row_value(g: &mut Gen) -> Value {
    match g.below(4) {
        0 => Value::Unit,
        1 => Value::list([Value::I64(1), Value::F64(2.0)]),
        2 => Value::tuple([]),
        _ => Value::tuple([Value::tuple([Value::I64(1)]), Value::I64(2)]),
    }
}

fn batch(g: &mut Gen, shape: &Shape) -> Vec<Value> {
    let mut elems = Vec::new();
    for _ in 0..1 + g.below(4) {
        let len = g.pick(&[0, 1, 1, 2, 3, 3, 5, 17, 40]);
        match g.below(10) {
            // Another shape: a type or arity change between runs.
            0 => {
                let other = Shape::random(g);
                elems.extend((0..len).map(|_| other.elem(g)));
            }
            1 => elems.extend((0..len.min(3)).map(|_| row_value(g))),
            // The shape, but from some position on one field has another
            // type: that column turns mixed in the middle of the run.
            2 => {
                let turn = g.below(len + 1);
                let ty = g.pick(&TYPES);
                for i in 0..len {
                    let mut v = shape.elem(g);
                    if i >= turn {
                        v = match v.as_tuple() {
                            Some(fields) => {
                                let mut fields = fields.to_vec();
                                fields[0] = scalar(g, ty);
                                Value::tuple(fields)
                            }
                            None => scalar(g, ty),
                        };
                    }
                    elems.push(v);
                }
            }
            _ => elems.extend((0..len).map(|_| shape.elem(g))),
        }
    }
    elems
}

fn lit(g: &mut Gen, ty: Ty) -> Expr {
    Expr::Lit(scalar(g, ty))
}

/// The captured parameters: `$1: i64`, `$2: f64`, `$3: str`.
fn captured_of(ty: Ty) -> Option<Expr> {
    match ty {
        Ty::I => Some(Expr::Param(1)),
        Ty::F => Some(Expr::Param(2)),
        Ty::S => Some(Expr::Param(3)),
        Ty::B => None,
    }
}

fn call(func: Func, args: Vec<Expr>) -> Expr {
    Expr::Call(func, args)
}

/// A random expression meant to have type `want` on elements of `shape`.
fn expr(g: &mut Gen, want: Ty, shape: &Shape, depth: u32) -> Expr {
    // Now and then the wrong type on purpose: type errors, and comparisons
    // across types.
    let want = if g.chance(4) { g.pick(&TYPES) } else { want };
    if depth == 0 || g.chance(25) {
        let mut leaves = shape.reads(want);
        leaves.extend(shape.reads(want));
        leaves.push(lit(g, want));
        leaves.extend(captured_of(want));
        if g.chance(2) {
            leaves.push(Expr::Param(4)); // out of range
        }
        return g.pick(&leaves);
    }
    let d = depth - 1;
    let sub = |g: &mut Gen, ty: Ty| Box::new(expr(g, ty, shape, d));
    let numeric = |g: &mut Gen| g.pick(&[Ty::I, Ty::F]);
    let arith = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Mod];
    let cmp = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];
    match want {
        Ty::I => match g.below(12) {
            0..=3 => Expr::Binary(g.pick(&arith), sub(g, Ty::I), sub(g, Ty::I)),
            4 => Expr::Unary(UnOp::Neg, sub(g, Ty::I)),
            5 => call(Func::Abs, vec![*sub(g, Ty::I)]),
            6 => call(
                g.pick(&[Func::Min, Func::Max]),
                vec![*sub(g, Ty::I), *sub(g, Ty::I)],
            ),
            7 => call(Func::Len, vec![*sub(g, Ty::S)]),
            8 => {
                let arg = numeric(g);
                call(g.pick(&[Func::Floor, Func::Ceil]), vec![*sub(g, arg)])
            }
            9 => {
                let arg = g.pick(&TYPES);
                call(Func::ToI64, vec![*sub(g, arg)])
            }
            10 => Expr::If(sub(g, Ty::B), sub(g, Ty::I), sub(g, Ty::I)),
            _ => {
                let arg = g.pick(&TYPES);
                call(Func::Hash, vec![*sub(g, arg)])
            }
        },
        Ty::F => match g.below(8) {
            0..=2 => {
                let (l, r) = (numeric(g), Ty::F);
                let (l, r) = if g.chance(50) { (l, r) } else { (r, l) };
                Expr::Binary(g.pick(&arith), sub(g, l), sub(g, r))
            }
            3 => Expr::Unary(UnOp::Neg, sub(g, Ty::F)),
            4 => call(Func::Abs, vec![*sub(g, Ty::F)]),
            5 => {
                let other = numeric(g);
                call(
                    g.pick(&[Func::Min, Func::Max]),
                    vec![*sub(g, Ty::F), *sub(g, other)],
                )
            }
            6 => {
                let arg = numeric(g);
                call(Func::Sqrt, vec![*sub(g, arg)])
            }
            _ => {
                let arg = numeric(g);
                call(Func::ToF64, vec![*sub(g, arg)])
            }
        },
        Ty::B => match g.below(10) {
            0..=5 => {
                let l = g.pick(&TYPES);
                let r = if g.chance(85) { l } else { g.pick(&TYPES) };
                Expr::Binary(g.pick(&cmp), sub(g, l), sub(g, r))
            }
            6 => Expr::Unary(UnOp::Not, sub(g, Ty::B)),
            7 => Expr::Binary(BinOp::And, sub(g, Ty::B), sub(g, Ty::B)),
            8 => Expr::Binary(BinOp::Or, sub(g, Ty::B), sub(g, Ty::B)),
            // A whole-element comparison: `$0` as a tuple.
            _ => Expr::Binary(
                g.pick(&cmp),
                Box::new(Expr::Param(0)),
                Box::new(Expr::Param(0)),
            ),
        },
        Ty::S => match g.below(4) {
            0 => {
                let r = g.pick(&TYPES);
                Expr::Binary(BinOp::Add, sub(g, Ty::S), sub(g, r))
            }
            1 => {
                let arg = g.pick(&TYPES);
                call(Func::ToStr, vec![*sub(g, arg)])
            }
            2 => Expr::If(sub(g, Ty::B), sub(g, Ty::S), sub(g, Ty::S)),
            // A projection out of a tuple built on the spot.
            _ => Expr::Index(
                Box::new(Expr::Tuple(vec![*sub(g, Ty::I), *sub(g, Ty::S)])),
                1,
            ),
        },
    }
}

/// One output element: a scalar, a flat tuple, and rarely what the column
/// evaluator declines (a nested tuple, a list, an empty or very wide tuple,
/// the element itself, a wrong-arity call).
fn element_expr(g: &mut Gen, shape: &Shape) -> Expr {
    let field = |g: &mut Gen| {
        let ty = g.pick(&TYPES);
        expr(g, ty, shape, 3)
    };
    match g.below(20) {
        0..=6 => field(g),
        7..=14 => Expr::Tuple((0..1 + g.below(3)).map(|_| field(g)).collect()),
        15 => Expr::Tuple(vec![field(g), Expr::Tuple(vec![field(g)])]),
        16 => Expr::List(vec![field(g), field(g)]),
        17 => Expr::Param(0),
        18 => Expr::Tuple(
            (0..g.pick(&[0, 255, 256, 300]))
                .map(|_| Expr::Param(1))
                .collect(),
        ),
        _ => call(Func::Abs, vec![field(g), field(g)]),
    }
}

fn flat_map_expr(g: &mut Gen, shape: &Shape) -> Expr {
    match g.below(10) {
        // Items of one type, as `e => [e[0], e[1]]` has.
        0..=4 => {
            let ty = g.pick(&TYPES);
            Expr::List((0..g.below(4)).map(|_| expr(g, ty, shape, 2)).collect())
        }
        // Tuple items of one arity.
        5..=6 => {
            let tys: Vec<Ty> = (0..1 + g.below(2)).map(|_| g.pick(&TYPES)).collect();
            Expr::List(
                (0..1 + g.below(3))
                    .map(|_| Expr::Tuple(tys.iter().map(|ty| expr(g, *ty, shape, 2)).collect()))
                    .collect(),
            )
        }
        7..=8 => Expr::List(
            (0..1 + g.below(3))
                .map(|_| element_expr(g, shape))
                .collect(),
        ),
        // Not a list literal (and mostly not a list).
        _ => element_expr(g, shape),
    }
}

struct Case {
    input: Vec<Value>,
    captured: Vec<Value>,
    map: Expr,
    filter: Expr,
    flat_map: Expr,
}

impl Case {
    fn generate(seed: u64) -> Case {
        let g = &mut Gen(seed);
        let shape = Shape::random(g);
        let filter_ty = if g.chance(90) { Ty::B } else { Ty::I };
        Case {
            input: batch(g, &shape),
            captured: vec![scalar(g, Ty::I), scalar(g, Ty::F), scalar(g, Ty::S)],
            map: element_expr(g, &shape),
            filter: expr(g, filter_ty, &shape, 3),
            flat_map: flat_map_expr(g, &shape),
        }
    }

    fn params(&self, elem: Value) -> Vec<Value> {
        std::iter::once(elem)
            .chain(self.captured.iter().cloned())
            .collect()
    }

    /// The reference: `eval` per element, `push` per result.
    fn row_loop(
        &self,
        expr: &Expr,
        mut emit: impl FnMut(Value, Value, &mut Batch) -> Result<(), String>,
    ) -> Result<Batch, String> {
        let mut out = Batch::new();
        for elem in &self.input {
            let result = eval(expr, &self.params(elem.clone())).map_err(|e| e.message)?;
            emit(elem.clone(), result, &mut out)?;
        }
        Ok(out)
    }

    fn row_map(&self) -> Result<Batch, String> {
        self.row_loop(&self.map, |_, result, out| {
            out.push(result);
            Ok(())
        })
    }

    fn row_filter(&self) -> Result<Batch, String> {
        self.row_loop(&self.filter, |elem, result, out| match result {
            Value::Bool(true) => {
                out.push(elem);
                Ok(())
            }
            Value::Bool(false) => Ok(()),
            other => Err(format!("filter predicate must return bool, got {other:?}")),
        })
    }

    fn row_flat_map(&self) -> Result<Batch, String> {
        self.row_loop(&self.flat_map, |_, result, out| match result.as_list() {
            Some(items) => {
                items.iter().for_each(|item| out.push(item.clone()));
                Ok(())
            }
            None => Err(format!("flatMap lambda must return a list, got {result:?}")),
        })
    }
}

/// Equal outcomes: the same wire bytes, or the same error message.
fn same(
    what: &str,
    expr: &Expr,
    fast: Result<Batch, mitos_lang::EvalError>,
    rows: Result<Batch, String>,
) -> Result<(), String> {
    let fast = fast.map_err(|e| e.message);
    let agree = match (&fast, &rows) {
        (Ok(a), Ok(b)) => a.len() == b.len() && a.encode() == b.encode(),
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if agree {
        return Ok(());
    }
    let show = |r: &Result<Batch, String>| match r {
        Ok(b) => format!("Ok({:?}) = {b:?}", b.iter().collect::<Vec<_>>()),
        Err(e) => format!("Err({e})"),
    };
    Err(format!(
        "{what} of {expr}\n  columns: {}\n  rows:    {}",
        show(&fast),
        show(&rows)
    ))
}

fn check(seed: u64) -> Result<[bool; 3], String> {
    let case = Case::generate(seed);
    let input = Batch::from_slice(&case.input);
    let caps = &case.captured;
    let rows = [case.row_map(), case.row_filter(), case.row_flat_map()];
    let produced = [0, 1, 2].map(|i| rows[i].as_ref().is_ok_and(|b| !b.is_empty()));
    let [map, filter, flat_map] = rows;
    let context = |e| {
        format!(
            "seed {seed}, captured {caps:?}, input {:?}\n{e}",
            case.input
        )
    };
    same("map", &case.map, input.map_expr(&case.map, caps), map).map_err(context)?;
    same(
        "filter",
        &case.filter,
        input.filter_expr(&case.filter, caps),
        filter,
    )
    .map_err(context)?;
    same(
        "flatMap",
        &case.flat_map,
        input.flat_map_expr(&case.flat_map, caps),
        flat_map,
    )
    .map_err(context)?;
    Ok(produced)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4096, ..ProptestConfig::default() })]

    /// The three kernels agree with the row loop on random expressions and
    /// batches, in wire bytes or in error message.
    #[test]
    fn columns_agree_with_rows(seed in any::<u64>()) {
        check(seed).map_err(TestCaseError::fail)?;
    }
}

/// The generator is worth something only if a good share of its cases get
/// past the first element: each kernel must produce output in at least a
/// fifth of them (the rest fail on a type, or filter everything out).
#[test]
fn generated_cases_mostly_evaluate() {
    let mut produced = [0usize; 3];
    let cases = 2000;
    for seed in 0..cases {
        let p = check(seed).unwrap_or_else(|e| panic!("{e}"));
        for (n, hit) in produced.iter_mut().zip(p) {
            *n += hit as usize;
        }
    }
    for (kernel, n) in ["map", "filter", "flatMap"].iter().zip(produced) {
        assert!(
            n * 5 >= cases as usize,
            "{kernel}: {n}/{cases} cases produced output"
        );
    }
}

fn pair_batch(pairs: &[(i64, i64)]) -> Batch {
    pairs
        .iter()
        .map(|&(a, b)| Value::tuple([Value::I64(a), Value::I64(b)]))
        .collect()
}

fn idx(i: usize) -> Expr {
    Expr::Index(Box::new(Expr::Param(0)), i)
}

/// The error is the first failing *element's*, whichever subexpression a
/// column-at-a-time pass meets first: element 1 divides by zero in the
/// second field, element 2 overflows nothing but fails `len` in the first.
#[test]
fn first_failing_element_wins_across_subexpressions() {
    let input: Batch = [
        Value::tuple([Value::str("ok"), Value::I64(1)]),
        Value::tuple([Value::str("ok"), Value::I64(0)]),
        Value::tuple([Value::I64(5), Value::I64(1)]),
    ]
    .into_iter()
    .collect();
    let lambda = Expr::Tuple(vec![
        Expr::Call(Func::Len, vec![idx(0)]),
        Expr::bin(BinOp::Div, Expr::lit(10i64), idx(1)),
    ]);
    let err = input.map_expr(&lambda, &[]).unwrap_err();
    assert_eq!(err.message, "integer division by zero");
}

/// Wrapping arithmetic and the by-zero errors on whole columns.
#[test]
fn integer_edge_cases_on_columns() {
    let input = pair_batch(&[(i64::MIN, -1), (i64::MAX, 1), (7, 2)]);
    let out = |op| {
        input
            .map_expr(&Expr::bin(op, idx(0), idx(1)), &[])
            .unwrap()
            .into_values()
    };
    let ints = |xs: [i64; 3]| xs.map(Value::I64).to_vec();
    assert_eq!(out(BinOp::Div), ints([i64::MIN, i64::MAX, 3]));
    assert_eq!(out(BinOp::Mod), ints([0, 0, 1]));
    assert_eq!(out(BinOp::Add), ints([i64::MAX, i64::MIN, 9]));
    let zero = pair_batch(&[(1, 1), (1, 0)]);
    for (op, message) in [
        (BinOp::Div, "integer division by zero"),
        (BinOp::Mod, "integer modulo by zero"),
    ] {
        let err = zero
            .map_expr(&Expr::bin(op, idx(0), idx(1)), &[])
            .unwrap_err();
        assert_eq!(err.message, message);
    }
}

/// `==` is value equality, so an integer never equals a float, and floats
/// compare by bit pattern.
#[test]
fn equality_is_by_type_and_bits() {
    let ints: Batch = [1i64, 2].into_iter().map(Value::I64).collect();
    let eq_float = Expr::bin(BinOp::Eq, Expr::Param(0), Expr::lit(1.0));
    assert!(ints.filter_expr(&eq_float, &[]).unwrap().is_empty());
    let lt_float = Expr::bin(BinOp::Lt, Expr::Param(0), Expr::lit(-5.0));
    assert_eq!(ints.filter_expr(&lt_float, &[]).unwrap().len(), 2);
    let floats: Batch = [0.0, -0.0, f64::NAN].into_iter().map(Value::F64).collect();
    let is_zero = Expr::bin(BinOp::Eq, Expr::Param(0), Expr::lit(0.0));
    assert_eq!(
        floats.filter_expr(&is_zero, &[]).unwrap().into_values(),
        vec![Value::F64(0.0)]
    );
    let is_nan = Expr::bin(BinOp::Eq, Expr::Param(0), Expr::lit(f64::NAN));
    assert_eq!(floats.filter_expr(&is_nan, &[]).unwrap().len(), 1);
}
