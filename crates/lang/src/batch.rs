//! Typed columnar batches: the unit of data-plane exchange.
//!
//! A [`Batch`] holds a sequence of [`Value`]s as *columnar runs*:
//! consecutive elements of the same scalar type (`I64`, `F64`, `Bool`,
//! `Str`) are stored in a typed column with no per-element enum tag, and
//! consecutive tuples of the same arity are stored as one column per
//! field (each column itself typed, degrading to a mixed column when a
//! field's type varies). Everything else — units, lists, empty tuples,
//! type changes mid-stream — falls back to a row run of plain [`Value`]s,
//! so a batch can always represent any value sequence exactly.
//!
//! Batches also define the data plane's *wire format*: a compact
//! length-delimited encoding ([`Batch::encode`] / [`Batch::decode`]) whose
//! size ([`Batch::encoded_len`]) is what the runtime charges as real
//! network bytes, replacing the old per-element in-memory estimate. The
//! encoding round-trips bit-exactly (float columns are stored as raw bit
//! patterns, so NaN payloads and signed zeros survive).

mod vectorized;

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A typed scalar column (one tuple field, or a top-level scalar run).
#[derive(Clone, Debug)]
enum Col {
    /// 64-bit integers, no per-element tag.
    I64(Vec<i64>),
    /// 64-bit floats; encoded as raw bit patterns for exact round-trips.
    F64(Vec<f64>),
    /// Booleans, one byte each on the wire.
    Bool(Vec<bool>),
    /// Interned strings.
    Str(Vec<Arc<str>>),
    /// Fallback for fields whose type varies (or is nested).
    Mixed(Vec<Value>),
}

impl Col {
    fn new_for(v: &Value) -> Col {
        match v {
            Value::I64(_) => Col::I64(Vec::new()),
            Value::F64(_) => Col::F64(Vec::new()),
            Value::Bool(_) => Col::Bool(Vec::new()),
            Value::Str(_) => Col::Str(Vec::new()),
            _ => Col::Mixed(Vec::new()),
        }
    }

    /// Appends `v`, degrading to [`Col::Mixed`] on a type mismatch.
    fn push(&mut self, v: &Value) {
        match (&mut *self, v) {
            (Col::I64(xs), Value::I64(x)) => xs.push(*x),
            (Col::F64(xs), Value::F64(x)) => xs.push(*x),
            (Col::Bool(xs), Value::Bool(x)) => xs.push(*x),
            (Col::Str(xs), Value::Str(x)) => xs.push(x.clone()),
            (Col::Mixed(xs), v) => xs.push(v.clone()),
            _ => {
                let mut rows = self.drain_values();
                rows.push(v.clone());
                *self = Col::Mixed(rows);
            }
        }
    }

    /// A column of `n` copies of `v`, as `n` pushes would build it.
    fn repeat(v: &Value, n: usize) -> Col {
        match v {
            Value::I64(x) => Col::I64(vec![*x; n]),
            Value::F64(x) => Col::F64(vec![*x; n]),
            Value::Bool(x) => Col::Bool(vec![*x; n]),
            Value::Str(x) => Col::Str(vec![x.clone(); n]),
            other => Col::Mixed(vec![other.clone(); n]),
        }
    }

    /// Appends every element of `more`, as pushing them one by one would:
    /// the same typed column extends, anything else goes through
    /// [`Col::push`] and its degrade rule.
    fn append(&mut self, mut more: Col) {
        match (&mut *self, &mut more) {
            (Col::I64(xs), Col::I64(ys)) => xs.append(ys),
            (Col::F64(xs), Col::F64(ys)) => xs.append(ys),
            (Col::Bool(xs), Col::Bool(ys)) => xs.append(ys),
            (Col::Str(xs), Col::Str(ys)) => xs.append(ys),
            _ => more.drain_values().iter().for_each(|v| self.push(v)),
        }
    }

    /// The `kept > 0` elements whose `keep` flag is set, as pushing them
    /// into a fresh column would build it (a mixed column whose survivors
    /// share one type comes out typed).
    fn select(&self, keep: &[bool], kept: usize) -> Col {
        fn pick<T: Clone>(xs: &[T], keep: &[bool], kept: usize) -> Vec<T> {
            if kept == xs.len() {
                return xs.to_vec();
            }
            let mut out = Vec::with_capacity(kept);
            out.extend(
                xs.iter()
                    .zip(keep)
                    .filter(|(_, &k)| k)
                    .map(|(x, _)| x.clone()),
            );
            out
        }
        match self {
            Col::I64(xs) => Col::I64(pick(xs, keep, kept)),
            Col::F64(xs) => Col::F64(pick(xs, keep, kept)),
            Col::Bool(xs) => Col::Bool(pick(xs, keep, kept)),
            Col::Str(xs) => Col::Str(pick(xs, keep, kept)),
            Col::Mixed(xs) => {
                let survivors = xs.iter().zip(keep).filter(|(_, &k)| k).map(|(x, _)| x);
                let mut col = Col::new_for(survivors.clone().next().expect("kept > 0"));
                survivors.for_each(|v| col.push(v));
                col
            }
        }
    }

    fn drain_values(&mut self) -> Vec<Value> {
        match std::mem::replace(self, Col::Mixed(Vec::new())) {
            Col::I64(xs) => xs.into_iter().map(Value::I64).collect(),
            Col::F64(xs) => xs.into_iter().map(Value::F64).collect(),
            Col::Bool(xs) => xs.into_iter().map(Value::Bool).collect(),
            Col::Str(xs) => xs.into_iter().map(Value::Str).collect(),
            Col::Mixed(xs) => xs,
        }
    }

    fn len(&self) -> usize {
        match self {
            Col::I64(xs) => xs.len(),
            Col::F64(xs) => xs.len(),
            Col::Bool(xs) => xs.len(),
            Col::Str(xs) => xs.len(),
            Col::Mixed(xs) => xs.len(),
        }
    }

    fn get(&self, i: usize) -> Value {
        match self {
            Col::I64(xs) => Value::I64(xs[i]),
            Col::F64(xs) => Value::F64(xs[i]),
            Col::Bool(xs) => Value::Bool(xs[i]),
            Col::Str(xs) => Value::Str(xs[i].clone()),
            Col::Mixed(xs) => xs[i].clone(),
        }
    }

    /// Sum of the legacy in-memory size estimates of the column's values
    /// (see [`Value::estimated_bytes`]).
    fn estimated_bytes(&self) -> u64 {
        match self {
            Col::I64(xs) => 8 * xs.len() as u64,
            Col::F64(xs) => 8 * xs.len() as u64,
            Col::Bool(xs) => xs.len() as u64,
            Col::Str(xs) => xs.iter().map(|s| 8 + s.len() as u64).sum(),
            Col::Mixed(xs) => xs.iter().map(Value::estimated_bytes).sum(),
        }
    }

    /// Wire size of the column payload (tag byte + data, count implied by
    /// the enclosing run header).
    fn encoded_len(&self) -> usize {
        1 + match self {
            Col::I64(xs) => 8 * xs.len(),
            Col::F64(xs) => 8 * xs.len(),
            Col::Bool(xs) => xs.len(),
            Col::Str(xs) => xs.iter().map(|s| 4 + s.len()).sum(),
            Col::Mixed(xs) => xs.iter().map(value_encoded_len).sum(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Col::I64(xs) => {
                out.push(COL_I64);
                for x in xs {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Col::F64(xs) => {
                out.push(COL_F64);
                for x in xs {
                    out.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            Col::Bool(xs) => {
                out.push(COL_BOOL);
                for x in xs {
                    out.push(*x as u8);
                }
            }
            Col::Str(xs) => {
                out.push(COL_STR);
                for s in xs {
                    encode_str(s, out);
                }
            }
            Col::Mixed(xs) => {
                out.push(COL_MIXED);
                for v in xs {
                    encode_value(v, out);
                }
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize, count: usize) -> Result<Col, DecodeError> {
        let tag = take_u8(buf, pos)?;
        Ok(match tag {
            COL_I64 => {
                let mut xs = Vec::with_capacity(count);
                for _ in 0..count {
                    xs.push(i64::from_le_bytes(take_array(buf, pos)?));
                }
                Col::I64(xs)
            }
            COL_F64 => {
                let mut xs = Vec::with_capacity(count);
                for _ in 0..count {
                    xs.push(f64::from_bits(u64::from_le_bytes(take_array(buf, pos)?)));
                }
                Col::F64(xs)
            }
            COL_BOOL => {
                let mut xs = Vec::with_capacity(count);
                for _ in 0..count {
                    xs.push(take_u8(buf, pos)? != 0);
                }
                Col::Bool(xs)
            }
            COL_STR => {
                let mut xs = Vec::with_capacity(count);
                for _ in 0..count {
                    xs.push(decode_str(buf, pos)?);
                }
                Col::Str(xs)
            }
            COL_MIXED => {
                let mut xs = Vec::with_capacity(count);
                for _ in 0..count {
                    xs.push(decode_value(buf, pos, 0)?);
                }
                Col::Mixed(xs)
            }
            other => return Err(DecodeError::new(format!("unknown column tag {other}"))),
        })
    }
}

/// One homogeneous run of a batch.
#[derive(Clone, Debug)]
enum Run {
    /// A run of same-typed scalars.
    Scalar(Col),
    /// A run of tuples sharing one arity, stored one column per field.
    Tuple { arity: usize, cols: Vec<Col> },
    /// The mixed-row fallback: plain values (units, lists, empty tuples,
    /// or whatever broke the preceding run).
    Rows(Vec<Value>),
}

impl Run {
    fn len(&self) -> usize {
        match self {
            Run::Scalar(c) => c.len(),
            Run::Tuple { cols, .. } => cols.first().map_or(0, Col::len),
            Run::Rows(rows) => rows.len(),
        }
    }

    /// Applies `f` to every element in order, short-circuiting on the
    /// first error; the storage layout is matched once, not per element.
    fn try_for_each<E>(&self, mut f: impl FnMut(Value) -> Result<(), E>) -> Result<(), E> {
        match self {
            Run::Scalar(Col::I64(xs)) => xs.iter().try_for_each(|&x| f(Value::I64(x))),
            Run::Scalar(Col::F64(xs)) => xs.iter().try_for_each(|&x| f(Value::F64(x))),
            Run::Scalar(Col::Bool(xs)) => xs.iter().try_for_each(|&x| f(Value::Bool(x))),
            Run::Scalar(Col::Str(xs)) => xs.iter().try_for_each(|x| f(Value::Str(x.clone()))),
            Run::Scalar(Col::Mixed(xs)) | Run::Rows(xs) => xs.iter().try_for_each(|x| f(x.clone())),
            Run::Tuple { cols, .. } => (0..self.len()).try_for_each(|i| f(tuple_at(cols, i))),
        }
    }
}

/// Element `i` of a tuple run. The field iterator is exact-size, so the
/// shared slice is the tuple's only allocation.
fn tuple_at(cols: &[Col], i: usize) -> Value {
    Value::tuple(cols.iter().map(|c| c.get(i)))
}

/// The widest tuple a column run holds: the wire format writes a run's
/// arity in one byte. Wider tuples travel as rows.
const MAX_ARITY: usize = u8::MAX as usize;

/// Run tags on the wire.
const RUN_ROWS: u8 = 0;
const RUN_SCALAR: u8 = 1;
const RUN_TUPLE: u8 = 2;

/// Column tags on the wire.
const COL_MIXED: u8 = 0;
const COL_I64: u8 = 1;
const COL_F64: u8 = 2;
const COL_BOOL: u8 = 3;
const COL_STR: u8 = 4;

/// Value tags on the wire (mirrors the [`Value`] variant order).
const VAL_UNIT: u8 = 0;
const VAL_BOOL: u8 = 1;
const VAL_I64: u8 = 2;
const VAL_F64: u8 = 3;
const VAL_STR: u8 = 4;
const VAL_TUPLE: u8 = 5;
const VAL_LIST: u8 = 6;

/// Nesting bound for decoded tuples/lists, so a hostile or corrupt slab
/// cannot recurse the decoder off the stack.
const MAX_DEPTH: u32 = 64;

/// A typed columnar container of [`Value`]s with a compact wire encoding.
///
/// See the [module docs](self) for the layout. Build one with
/// [`Batch::from_values`] (or [`Batch::push`]), read it back with
/// [`Batch::iter`] / [`Batch::into_values`], and move it across the
/// network with [`Batch::encode`] / [`Batch::decode`].
#[derive(Clone, Debug, Default)]
pub struct Batch {
    runs: Vec<Run>,
    len: usize,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Batch {
        Batch::default()
    }

    /// Builds a batch from a value sequence, columnarizing runs of
    /// same-typed values.
    pub fn from_values(values: Vec<Value>) -> Batch {
        Batch::from_slice(&values)
    }

    /// Builds a batch from a slice of values (cloning each).
    pub fn from_slice(values: &[Value]) -> Batch {
        let mut b = Batch::new();
        for v in values {
            b.push_ref(v);
        }
        b
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one value, extending the final run when the type matches.
    pub fn push(&mut self, v: Value) {
        self.push_ref(&v);
    }

    fn push_ref(&mut self, v: &Value) {
        self.len += 1;
        match v {
            Value::I64(_) | Value::F64(_) | Value::Bool(_) | Value::Str(_) => {
                if let Some(Run::Scalar(col)) = self.runs.last_mut() {
                    if col_matches(col, v) {
                        col.push(v);
                        return;
                    }
                }
                let mut col = Col::new_for(v);
                col.push(v);
                self.runs.push(Run::Scalar(col));
            }
            Value::Tuple(fields) if (1..=MAX_ARITY).contains(&fields.len()) => {
                if let Some(Run::Tuple { arity, cols }) = self.runs.last_mut() {
                    if *arity == fields.len() {
                        for (col, f) in cols.iter_mut().zip(fields.iter()) {
                            col.push(f);
                        }
                        return;
                    }
                }
                let mut cols: Vec<Col> = fields.iter().map(Col::new_for).collect();
                for (col, f) in cols.iter_mut().zip(fields.iter()) {
                    col.push(f);
                }
                self.runs.push(Run::Tuple {
                    arity: fields.len(),
                    cols,
                });
            }
            other => match self.runs.last_mut() {
                Some(Run::Rows(rows)) => rows.push(other.clone()),
                _ => self.runs.push(Run::Rows(vec![other.clone()])),
            },
        }
    }

    /// Appends a whole non-empty column run, leaving the batch as pushing
    /// the run's elements one by one would: it merges into the final run
    /// when `push` would have extended that run. `run`'s own columns must
    /// be what pushes into a fresh run build (so a scalar run's is typed).
    fn append_run(&mut self, run: Run) {
        debug_assert!(run.len() > 0, "push never leaves an empty run");
        self.len += run.len();
        match (self.runs.last_mut(), run) {
            // `more` is typed; a scalar run extends only with its own type.
            (Some(Run::Scalar(col)), Run::Scalar(more))
                if std::mem::discriminant(col) == std::mem::discriminant(&more) =>
            {
                col.append(more)
            }
            (
                Some(Run::Tuple { arity, cols }),
                Run::Tuple {
                    arity: more,
                    cols: more_cols,
                },
            ) if *arity == more => {
                cols.iter_mut()
                    .zip(more_cols)
                    .for_each(|(c, m)| c.append(m));
            }
            (_, run) => self.runs.push(run),
        }
    }

    /// Iterates the batch's elements in order (reconstructing values from
    /// the columns).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.runs.iter().flat_map(|run| {
            (0..run.len()).map(move |i| match run {
                Run::Scalar(c) => c.get(i),
                Run::Tuple { cols, .. } => tuple_at(cols, i),
                Run::Rows(rows) => rows[i].clone(),
            })
        })
    }

    /// Consumes the batch into a plain value vector.
    pub fn into_values(self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len);
        for run in self.runs {
            match run {
                Run::Scalar(mut c) => out.append(&mut c.drain_values()),
                Run::Tuple { cols, .. } => {
                    let n = cols.first().map_or(0, Col::len);
                    out.extend((0..n).map(|i| tuple_at(&cols, i)));
                }
                Run::Rows(mut rows) => out.append(&mut rows),
            }
        }
        out
    }

    /// Sum of the elements' legacy in-memory size estimates
    /// ([`Value::estimated_bytes`]) — the basis of the pre-encoding wire
    /// estimate and of state-residency accounting.
    pub fn estimated_bytes(&self) -> u64 {
        self.runs
            .iter()
            .map(|run| match run {
                Run::Scalar(c) => c.estimated_bytes(),
                Run::Tuple { cols, .. } => {
                    let n = cols.first().map_or(0, Col::len) as u64;
                    2 * n + cols.iter().map(Col::estimated_bytes).sum::<u64>()
                }
                Run::Rows(rows) => rows.iter().map(Value::estimated_bytes).sum(),
            })
            .sum()
    }

    /// Exact size of [`Batch::encode`]'s output, computed without
    /// allocating the slab.
    pub fn encoded_len(&self) -> usize {
        4 + self
            .runs
            .iter()
            .map(|run| match run {
                Run::Scalar(c) => 1 + 4 + c.encoded_len(),
                Run::Tuple { cols, .. } => {
                    1 + 4 + 1 + cols.iter().map(Col::encoded_len).sum::<usize>()
                }
                Run::Rows(rows) => 1 + 4 + rows.iter().map(value_encoded_len).sum::<usize>(),
            })
            .sum::<usize>()
    }

    /// Serializes the batch to an owned byte slab in the length-delimited
    /// wire format (see the [module docs](self)).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        for run in &self.runs {
            match run {
                Run::Scalar(c) => {
                    out.push(RUN_SCALAR);
                    out.extend_from_slice(&(c.len() as u32).to_le_bytes());
                    c.encode(&mut out);
                }
                Run::Tuple { arity, cols } => {
                    out.push(RUN_TUPLE);
                    let n = cols.first().map_or(0, Col::len);
                    out.extend_from_slice(&(n as u32).to_le_bytes());
                    out.push(*arity as u8);
                    for c in cols {
                        c.encode(&mut out);
                    }
                }
                Run::Rows(rows) => {
                    out.push(RUN_ROWS);
                    out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                    for v in rows {
                        encode_value(v, &mut out);
                    }
                }
            }
        }
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Deserializes a batch from a slab produced by [`Batch::encode`].
    /// Fails (never panics) on truncated or corrupt input, including
    /// trailing garbage.
    pub fn decode(buf: &[u8]) -> Result<Batch, DecodeError> {
        let mut pos = 0usize;
        let n_runs = take_u32(buf, &mut pos)? as usize;
        if n_runs > buf.len() {
            // Each run costs at least one byte; reject absurd counts
            // before reserving anything.
            return Err(DecodeError::new(format!(
                "run count {n_runs} exceeds input size {}",
                buf.len()
            )));
        }
        let mut runs = Vec::with_capacity(n_runs);
        let mut len = 0usize;
        for _ in 0..n_runs {
            let tag = take_u8(buf, &mut pos)?;
            let count = take_u32(buf, &mut pos)? as usize;
            if count > buf.len() {
                return Err(DecodeError::new(format!(
                    "element count {count} exceeds input size {}",
                    buf.len()
                )));
            }
            len += count;
            runs.push(match tag {
                RUN_SCALAR => Run::Scalar(Col::decode(buf, &mut pos, count)?),
                RUN_TUPLE => {
                    let arity = take_u8(buf, &mut pos)? as usize;
                    if arity == 0 {
                        return Err(DecodeError::new("tuple run with arity 0"));
                    }
                    let cols = (0..arity)
                        .map(|_| Col::decode(buf, &mut pos, count))
                        .collect::<Result<Vec<_>, _>>()?;
                    Run::Tuple { arity, cols }
                }
                RUN_ROWS => {
                    let rows = (0..count)
                        .map(|_| decode_value(buf, &mut pos, 0))
                        .collect::<Result<Vec<_>, _>>()?;
                    Run::Rows(rows)
                }
                other => return Err(DecodeError::new(format!("unknown run tag {other}"))),
            });
        }
        if pos != buf.len() {
            return Err(DecodeError::new(format!(
                "{} trailing bytes after batch",
                buf.len() - pos
            )));
        }
        Ok(Batch { runs, len })
    }
}

impl PartialEq for Batch {
    /// Element-wise equality under [`Value`] semantics (floats compare by
    /// bit pattern), independent of how the runs are laid out.
    fn eq(&self, other: &Batch) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl FromIterator<Value> for Batch {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Batch {
        let mut b = Batch::new();
        for v in iter {
            b.push(v);
        }
        b
    }
}

/// True when `v` extends the typed column `col`; nothing extends a mixed
/// scalar column.
fn col_matches(col: &Col, v: &Value) -> bool {
    matches!(
        (col, v),
        (Col::I64(_), Value::I64(_))
            | (Col::F64(_), Value::F64(_))
            | (Col::Bool(_), Value::Bool(_))
            | (Col::Str(_), Value::Str(_))
    )
}

/// An error from [`Batch::decode`]: the input slab was truncated,
/// corrupt, or not a batch at all.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodeError {
    /// Description of the failure.
    pub message: String,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch decode error: {}", self.message)
    }
}

impl std::error::Error for DecodeError {}

fn take_u8(buf: &[u8], pos: &mut usize) -> Result<u8, DecodeError> {
    let b = *buf
        .get(*pos)
        .ok_or_else(|| DecodeError::new("truncated input"))?;
    *pos += 1;
    Ok(b)
}

fn take_array<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], DecodeError> {
    let end = pos
        .checked_add(N)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| DecodeError::new("truncated input"))?;
    let mut arr = [0u8; N];
    arr.copy_from_slice(&buf[*pos..end]);
    *pos = end;
    Ok(arr)
}

fn take_u32(buf: &[u8], pos: &mut usize) -> Result<u32, DecodeError> {
    Ok(u32::from_le_bytes(take_array(buf, pos)?))
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(buf: &[u8], pos: &mut usize) -> Result<Arc<str>, DecodeError> {
    let n = take_u32(buf, pos)? as usize;
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| DecodeError::new("truncated string"))?;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| DecodeError::new("string is not UTF-8"))?;
    *pos = end;
    Ok(Arc::from(s))
}

/// Wire size of one tagged value.
fn value_encoded_len(v: &Value) -> usize {
    1 + match v {
        Value::Unit => 0,
        Value::Bool(_) => 1,
        Value::I64(_) | Value::F64(_) => 8,
        Value::Str(s) => 4 + s.len(),
        Value::Tuple(fs) => 4 + fs.iter().map(value_encoded_len).sum::<usize>(),
        Value::List(fs) => 4 + fs.iter().map(value_encoded_len).sum::<usize>(),
    }
}

/// Encodes one tagged value (the row-fallback / mixed-column element
/// format).
fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Unit => out.push(VAL_UNIT),
        Value::Bool(b) => {
            out.push(VAL_BOOL);
            out.push(*b as u8);
        }
        Value::I64(x) => {
            out.push(VAL_I64);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::F64(x) => {
            out.push(VAL_F64);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(VAL_STR);
            encode_str(s, out);
        }
        Value::Tuple(fs) => {
            out.push(VAL_TUPLE);
            out.extend_from_slice(&(fs.len() as u32).to_le_bytes());
            for f in fs.iter() {
                encode_value(f, out);
            }
        }
        Value::List(fs) => {
            out.push(VAL_LIST);
            out.extend_from_slice(&(fs.len() as u32).to_le_bytes());
            for f in fs.iter() {
                encode_value(f, out);
            }
        }
    }
}

fn decode_value(buf: &[u8], pos: &mut usize, depth: u32) -> Result<Value, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::new("value nesting too deep"));
    }
    Ok(match take_u8(buf, pos)? {
        VAL_UNIT => Value::Unit,
        VAL_BOOL => Value::Bool(take_u8(buf, pos)? != 0),
        VAL_I64 => Value::I64(i64::from_le_bytes(take_array(buf, pos)?)),
        VAL_F64 => Value::F64(f64::from_bits(u64::from_le_bytes(take_array(buf, pos)?))),
        VAL_STR => Value::Str(decode_str(buf, pos)?),
        tag @ (VAL_TUPLE | VAL_LIST) => {
            let n = take_u32(buf, pos)? as usize;
            if n > buf.len() {
                return Err(DecodeError::new(format!(
                    "field count {n} exceeds input size {}",
                    buf.len()
                )));
            }
            let fields = (0..n)
                .map(|_| decode_value(buf, pos, depth + 1))
                .collect::<Result<Vec<_>, _>>()?;
            if tag == VAL_TUPLE {
                Value::tuple(fields)
            } else {
                Value::list(fields)
            }
        }
        other => return Err(DecodeError::new(format!("unknown value tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: Vec<Value>) {
        let b = Batch::from_values(values.clone());
        assert_eq!(b.len(), values.len());
        assert_eq!(b.iter().collect::<Vec<_>>(), values, "iter reconstructs");
        let encoded = b.encode();
        assert_eq!(encoded.len(), b.encoded_len(), "encoded_len is exact");
        let decoded = Batch::decode(&encoded).expect("decodes");
        assert_eq!(decoded, b, "round-trip");
        assert_eq!(decoded.into_values(), values);
    }

    #[test]
    fn empty_batch_round_trips() {
        roundtrip(Vec::new());
    }

    #[test]
    fn monomorphic_columns_round_trip() {
        roundtrip((0..100).map(Value::I64).collect());
        roundtrip((0..10).map(|i| Value::F64(i as f64 / 3.0)).collect());
        roundtrip((0..10).map(|i| Value::Bool(i % 2 == 0)).collect());
        roundtrip((0..10).map(|i| Value::str(format!("s{i}"))).collect());
    }

    #[test]
    fn tuple_runs_are_columnar() {
        let values: Vec<Value> = (0..50)
            .map(|i| Value::tuple([Value::I64(i), Value::str(format!("v{i}"))]))
            .collect();
        let b = Batch::from_values(values.clone());
        assert_eq!(b.runs.len(), 1, "one tuple run");
        roundtrip(values);
    }

    #[test]
    fn type_changes_split_runs_and_round_trip() {
        roundtrip(vec![
            Value::I64(1),
            Value::I64(2),
            Value::str("x"),
            Value::F64(-0.0),
            Value::Unit,
            Value::tuple([Value::I64(1), Value::I64(2)]),
            Value::tuple([Value::I64(3), Value::str("mixed field")]),
            Value::tuple([Value::I64(4), Value::I64(5), Value::I64(6)]),
            Value::list([Value::I64(9), Value::str("nested")]),
            Value::tuple([
                Value::tuple([Value::I64(1), Value::I64(2)]),
                Value::list([Value::Bool(true)]),
            ]),
            Value::Bool(false),
        ]);
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let values = vec![Value::F64(weird), Value::F64(f64::NEG_INFINITY)];
        let b = Batch::from_values(values);
        let decoded = Batch::decode(&b.encode()).unwrap();
        let out = decoded.into_values();
        match out[0] {
            Value::F64(x) => assert_eq!(x.to_bits(), 0x7ff8_dead_beef_0001),
            ref other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn estimated_bytes_matches_value_sum() {
        let values = vec![
            Value::I64(1),
            Value::str("abc"),
            Value::tuple([Value::I64(1), Value::F64(2.0)]),
            Value::Unit,
            Value::list([Value::I64(1)]),
        ];
        let expected: u64 = values.iter().map(Value::estimated_bytes).sum();
        assert_eq!(Batch::from_values(values).estimated_bytes(), expected);
    }

    #[test]
    fn columnar_encoding_beats_row_fallback_for_tuples() {
        let values: Vec<Value> = (0..1000)
            .map(|i| Value::tuple([Value::I64(i), Value::I64(i * 2)]))
            .collect();
        let b = Batch::from_values(values.clone());
        let mut rows = Batch::new();
        rows.runs = vec![Run::Rows(values)];
        rows.len = 1000;
        assert!(
            b.encoded_len() < rows.encoded_len(),
            "columnar {} vs rows {}",
            b.encoded_len(),
            rows.encoded_len()
        );
    }

    #[test]
    fn truncated_and_corrupt_inputs_fail_cleanly() {
        let b = Batch::from_values((0..10).map(Value::I64).collect());
        let encoded = b.encode();
        for cut in 0..encoded.len() {
            assert!(
                Batch::decode(&encoded[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut garbage = encoded.clone();
        garbage.push(0);
        assert!(Batch::decode(&garbage).is_err(), "trailing byte must fail");
        let mut bad_tag = encoded;
        bad_tag[4] = 0xEE;
        assert!(Batch::decode(&bad_tag).is_err(), "bad run tag must fail");
    }

    #[test]
    fn absurd_counts_are_rejected_without_allocation() {
        // Claims u32::MAX runs with a 4-byte body.
        let claim = u32::MAX.to_le_bytes().to_vec();
        assert!(Batch::decode(&claim).is_err());
    }
}
