//! Property tests for the columnar batch container and its wire codec:
//! the encoding must round-trip arbitrary element sequences exactly
//! (including NaN bit patterns, nested tuples, lists, and empty batches),
//! the container must preserve element order and count, and the exact
//! `encoded_len` must always match the encoder's output. The decoder
//! takes anything without panicking, and accepts only canonical slabs:
//! whatever it decodes re-encodes to the very bytes it was given.

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

    /// Arbitrary bytes never panic the decoder, and whatever it accepts
    /// re-encodes to exactly those bytes.
    #[test]
    fn arbitrary_bytes_decode_canonically_or_fail(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
        header in 0u32..4,
    ) {
        // Half the cases start with a small run count, so decoding gets
        // past the header.
        let mut slab = bytes;
        if header < 2 && slab.len() >= 4 {
            slab[..4].copy_from_slice(&header.to_le_bytes());
        }
        if let Ok(batch) = Batch::decode(&slab) {
            prop_assert_eq!(batch.encode(), slab);
        }
    }

    /// A valid encoding with a few bytes overwritten: no panic, and an
    /// accepted slab re-encodes to itself (so a flipped bool byte or a
    /// zeroed run count is rejected, not normalized).
    #[test]
    fn mutated_encodings_decode_canonically_or_fail(
        elems in arb_elems(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut slab = Batch::from_slice(&elems).encode();
        for (at, byte) in edits {
            let at = at % slab.len();
            slab[at] = byte;
        }
        if let Ok(batch) = Batch::decode(&slab) {
            prop_assert_eq!(batch.encode(), slab);
        }
    }
}

/// The two non-canonical forms the decoder used to accept: a bool byte
/// other than 0/1 (read as `true`, re-encoded as 1) and a run of zero
/// elements (which `push` never builds).
#[test]
fn non_canonical_slabs_are_rejected() {
    let bools = Batch::from_slice(&[Value::Bool(true), Value::Bool(false)]).encode();
    // [runs u32][tag][count u32][col tag][b0][b1]
    let mut two = bools.clone();
    two[10] = 2;
    assert!(Batch::decode(&two).is_err(), "column bool byte 2");
    let rows = Batch::from_slice(&[Value::list([Value::Bool(true)])]).encode();
    // [runs u32][tag][count u32][VAL_LIST][n u32][VAL_BOOL][b]
    let mut seven = rows.clone();
    assert_eq!(seven.len(), 16);
    seven[15] = 7;
    assert!(Batch::decode(&seven).is_err(), "row bool byte 7");
    let empty_run = [1u8, 0, 0, 0, 0, 0, 0, 0, 0];
    assert!(Batch::decode(&empty_run).is_err(), "empty row run");
    let empty_col = [1u8, 0, 0, 0, 1, 0, 0, 0, 0, 1];
    assert!(Batch::decode(&empty_col).is_err(), "empty i64 run");
    assert!(Batch::decode(&bools).is_ok() && Batch::decode(&rows).is_ok());
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
