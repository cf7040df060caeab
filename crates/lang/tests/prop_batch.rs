//! Property tests for the columnar batch container and its wire codec:
//! the encoding must round-trip arbitrary element sequences exactly
//! (including NaN bit patterns, nested tuples, lists, and empty batches),
//! the container must preserve element order and count, and the exact
//! `encoded_len` must always match the encoder's output.

use mitos_lang::{Batch, Value};
use proptest::prelude::*;

/// Arbitrary values spanning every variant, with enough nesting to build
/// tuples-of-tuples and lists (which land in row-fallback runs).
fn arb_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        // Raw bit patterns so NaNs and signed zeros are exercised too;
        // Value equality is by bit pattern, so round-tripping must be.
        any::<u64>().prop_map(|bits| Value::F64(f64::from_bits(bits))),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 12, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::tuple),
            prop::collection::vec(inner, 0..4).prop_map(Value::list),
        ]
    })
    .boxed()
}

/// Element sequences biased toward monomorphic runs (so the columnar
/// paths are hit) but with arbitrary mixed tails (so run transitions and
/// the row fallback are hit too).
fn arb_elems() -> BoxedStrategy<Vec<Value>> {
    let monomorphic = prop_oneof![
        prop::collection::vec(any::<i64>().prop_map(Value::I64), 0..20),
        prop::collection::vec(
            (any::<i64>(), any::<i64>())
                .prop_map(|(a, b)| Value::tuple([Value::I64(a), Value::I64(b)])),
            0..20
        ),
        prop::collection::vec("[a-z]{0,8}".prop_map(Value::str), 0..12),
    ];
    (monomorphic, prop::collection::vec(arb_value(), 0..8))
        .prop_map(|(mut mono, mixed)| {
            mono.extend(mixed);
            mono
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `decode(encode(b))` reproduces the batch exactly, element by
    /// element, for arbitrary value sequences.
    #[test]
    fn encoding_round_trips(elems in arb_elems()) {
        let batch: Batch = elems.iter().cloned().collect();
        let wire = batch.encode();
        let back = Batch::decode(&wire).unwrap();
        prop_assert_eq!(&back, &batch);
        prop_assert_eq!(back.into_values(), elems);
    }

    /// The container preserves order, count, and the per-element byte
    /// estimate of the row representation it replaces.
    #[test]
    fn container_preserves_elements(elems in arb_elems()) {
        let batch = Batch::from_slice(&elems);
        prop_assert_eq!(batch.len(), elems.len());
        prop_assert_eq!(batch.is_empty(), elems.is_empty());
        let roundtrip: Vec<Value> = batch.iter().collect();
        prop_assert_eq!(&roundtrip, &elems);
        prop_assert_eq!(
            batch.estimated_bytes(),
            elems.iter().map(Value::estimated_bytes).sum::<u64>()
        );
    }

    /// `encoded_len` is exact — the wire accounting the runtime charges
    /// always equals the bytes a real transport would move.
    #[test]
    fn encoded_len_is_exact(elems in arb_elems()) {
        let batch = Batch::from_slice(&elems);
        prop_assert_eq!(batch.encoded_len(), batch.encode().len());
    }

    /// Truncating an encoded batch anywhere short of its full length
    /// never decodes successfully (no silent partial reads) and never
    /// panics.
    #[test]
    fn truncation_is_detected(elems in arb_elems(), cut in 0usize..64) {
        // Even an empty batch encodes its 4-byte run-count header, so the
        // modulus below is always well-defined.
        let wire = Batch::from_slice(&elems).encode();
        prop_assert!(!wire.is_empty());
        let cut = cut % wire.len();
        prop_assert!(Batch::decode(&wire[..cut]).is_err());
    }
}

/// A run's arity is one byte on the wire: tuples wider than 255 fields
/// travel as rows, next to column runs of the widest tuples that fit.
#[test]
fn wide_tuples_round_trip() {
    let wide = |arity: i64| Value::tuple((0..arity).map(Value::I64));
    for arity in [255, 256, 300] {
        let elems = vec![wide(arity), wide(arity), wide(2), wide(arity)];
        let batch = Batch::from_slice(&elems);
        let wire = batch.encode();
        assert_eq!(batch.encoded_len(), wire.len(), "arity {arity}");
        let back = Batch::decode(&wire).unwrap_or_else(|e| panic!("arity {arity}: {e}"));
        assert_eq!(back.into_values(), elems, "arity {arity}");
    }
}

/// The empty batch is a fixed point of the codec.
#[test]
fn empty_batch_round_trips() {
    let batch = Batch::new();
    let wire = batch.encode();
    let back = Batch::decode(&wire).unwrap();
    assert!(back.is_empty());
    assert_eq!(back, batch);
    assert_eq!(batch.encoded_len(), wire.len());
}
