//! Dynamically typed values flowing through Mitos dataflows.
//!
//! The paper's frontend (Emma on Scala) is dynamically staged: bag elements
//! can be primitives or tuples. We mirror that with a compact [`Value`] enum.
//! Aggregate variants use `Arc` payloads so that cloning an element while it
//! is routed to several physical edges is O(1).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A dynamically typed value: a bag element or a wrapped scalar.
#[derive(Clone)]
pub enum Value {
    /// The unit value, produced by effect-only operators.
    Unit,
    /// A boolean, e.g. the payload of a condition node's one-element bag.
    Bool(bool),
    /// A 64-bit signed integer.
    I64(i64),
    /// A 64-bit float. Compared and hashed by bit pattern (total order).
    F64(f64),
    /// An immutable string.
    Str(Arc<str>),
    /// A fixed-arity tuple, e.g. `(pageId, count)` pairs.
    Tuple(Arc<[Value]>),
    /// A list, produced by `flatMap` lambdas and vector math builtins.
    List(Arc<[Value]>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds a tuple value from an iterator of fields.
    pub fn tuple(fields: impl IntoIterator<Item = Value>) -> Value {
        Value::Tuple(fields.into_iter().collect())
    }

    /// Builds a list value from an iterator of elements.
    pub fn list(elems: impl IntoIterator<Item = Value>) -> Value {
        Value::List(elems.into_iter().collect())
    }

    /// A short name of the value's runtime type, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "str",
            Value::Tuple(_) => "tuple",
            Value::List(_) => "list",
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload; integers are widened.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the tuple fields, if this is a `Tuple`.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the list elements, if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(t) => Some(t),
            _ => None,
        }
    }

    /// The field at `idx` of a tuple (or list) value.
    pub fn field(&self, idx: usize) -> Option<&Value> {
        match self {
            Value::Tuple(t) | Value::List(t) => t.get(idx),
            _ => None,
        }
    }

    /// The join/grouping key of an element: field 0 of a tuple, otherwise the
    /// value itself (so bags of plain integers can be grouped directly).
    pub fn key(&self) -> &Value {
        match self {
            Value::Tuple(t) if !t.is_empty() => &t[0],
            _ => self,
        }
    }

    /// Estimated serialized size in bytes, used by the cluster cost model.
    pub fn estimated_bytes(&self) -> u64 {
        match self {
            Value::Unit => 1,
            Value::Bool(_) => 1,
            Value::I64(_) => 8,
            Value::F64(_) => 8,
            Value::Str(s) => 8 + s.len() as u64,
            Value::Tuple(t) | Value::List(t) => {
                2 + t.iter().map(Value::estimated_bytes).sum::<u64>()
            }
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Value::Unit => 0,
            Value::Bool(_) => 1,
            Value::I64(_) => 2,
            Value::F64(_) => 3,
            Value::Str(_) => STR_TAG,
            Value::Tuple(_) => 5,
            Value::List(_) => 6,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Unit, Value::Unit) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::I64(a), Value::I64(b)) => a == b,
            // Bit-pattern equality: NaN == NaN, so values are usable as keys.
            (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Tuple(a), Value::Tuple(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.tag());
        match self {
            Value::Unit => {}
            Value::Bool(b) => b.hash(state),
            Value::I64(v) => v.hash(state),
            Value::F64(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Tuple(t) | Value::List(t) => {
                state.write_usize(t.len());
                for v in t.iter() {
                    v.hash(state);
                }
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// A deterministic total order across all value types (tag first, then
    /// payload). Used to canonicalize multisets when comparing results.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::I64(a), Value::I64(b)) => a.cmp(b),
            (Value::F64(a), Value::F64(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Tuple(a), Value::Tuple(b)) | (Value::List(a), Value::List(b)) => {
                a.iter().cmp(b.iter())
            }
            _ => self.tag().cmp(&other.tag()),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Tuple(t) => {
                write!(f, "(")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, ")")
            }
            Value::List(t) => {
                write!(f, "[")?;
                for (i, v) in t.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            other => write!(f, "{other:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

/// The hash tag of [`Value::Str`], shared with [`stable_hash_str`].
const STR_TAG: u8 = 4;

/// FNV-1a, 64 bit: the hasher behind [`stable_hash`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// FNV-1a over the value's own hash impl — deterministic across runs and
/// platforms (unlike `DefaultHasher`). Hash partitioning routes an element
/// to instance `stable_hash(v.key()) % n`.
pub fn stable_hash(v: &Value) -> u64 {
    let mut h = Fnv::new();
    v.hash(&mut h);
    h.finish()
}

/// [`stable_hash`] of `Value::Str(s)`, without building the value: what
/// hashes a string column.
pub(crate) fn stable_hash_str(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.write_u8(STR_TAG);
    s.hash(&mut h);
    h.finish()
}

/// Sorts a bag's elements into a canonical order, for multiset comparison.
pub fn canonicalize(mut bag: Vec<Value>) -> Vec<Value> {
    bag.sort_unstable();
    bag
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn eq_and_hash_agree_for_floats() {
        let a = Value::F64(1.5);
        let b = Value::F64(1.5);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let nan1 = Value::F64(f64::NAN);
        let nan2 = Value::F64(f64::NAN);
        assert_eq!(nan1, nan2, "NaN must be usable as a grouping key");
    }

    /// Hash partitioning decides which instance holds which key, so the
    /// hash of every value type is part of the data plane's contract.
    #[test]
    fn stable_hash_is_pinned() {
        let pinned = [
            (Value::I64(42), 2449347354575781711),
            (Value::I64(-1), 12651931728328052317),
            (Value::F64(1.5), 8742554054650249731),
            (Value::F64(-0.0), 8750027435185686098),
            (Value::str("page"), 4103391113078259733),
            (Value::str(""), 587096361378337796),
            (Value::Bool(true), 589728592215707255),
            (Value::Bool(false), 589727492704079044),
            (
                Value::tuple([Value::I64(7), Value::str("x")]),
                17638085270294184196,
            ),
            (Value::Unit, 12638153115695167455),
            (Value::list([Value::I64(1)]), 14907687979496151087),
        ];
        for (v, hash) in pinned {
            assert_eq!(stable_hash(&v), hash, "{v:?}");
        }
        assert_eq!(stable_hash_str("page"), stable_hash(&Value::str("page")));
    }

    #[test]
    fn negative_zero_differs_from_zero_bitwise() {
        assert_ne!(Value::F64(0.0), Value::F64(-0.0));
    }

    #[test]
    fn tuple_key_is_first_field() {
        let v = Value::tuple([Value::I64(7), Value::str("x")]);
        assert_eq!(v.key(), &Value::I64(7));
        assert_eq!(Value::I64(3).key(), &Value::I64(3));
    }

    #[test]
    fn total_order_is_deterministic_across_types() {
        let mut vals = [
            Value::str("b"),
            Value::I64(2),
            Value::Bool(true),
            Value::F64(0.5),
            Value::I64(1),
            Value::Unit,
        ];
        vals.sort();
        let tags: Vec<&str> = vals.iter().map(Value::type_name).collect();
        assert_eq!(tags, ["unit", "bool", "i64", "i64", "f64", "str"]);
        assert_eq!(vals[2], Value::I64(1));
    }

    #[test]
    fn estimated_bytes_counts_nested() {
        let v = Value::tuple([Value::I64(1), Value::str("abc")]);
        assert_eq!(v.estimated_bytes(), 2 + 8 + 8 + 3);
    }

    #[test]
    fn display_strings_unquoted() {
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(format!("{:?}", Value::str("hi")), "\"hi\"");
        assert_eq!(
            Value::tuple([Value::I64(1), Value::I64(2)]).to_string(),
            "(1, 2)"
        );
    }

    #[test]
    fn field_access() {
        let v = Value::tuple([Value::I64(1), Value::I64(2)]);
        assert_eq!(v.field(1), Some(&Value::I64(2)));
        assert_eq!(v.field(2), None);
        assert_eq!(Value::I64(1).field(0), None);
    }

    #[test]
    fn canonicalize_sorts() {
        let bag = vec![Value::I64(3), Value::I64(1), Value::I64(2)];
        assert_eq!(
            canonicalize(bag),
            vec![Value::I64(1), Value::I64(2), Value::I64(3)]
        );
    }
}
