//! Property tests for the draw-vector codec — the dense-or-sparse form
//! every allocation, release and journaled decision carries its draws
//! in.
//!
//! Invariants under test, 256 cases each:
//!
//! 1. **Bit-for-bit round trip**: any draw vector — empty, all `+0.0`,
//!    fully dense, or sparse, holding `-0.0`, NaN payloads and ±∞ —
//!    decodes to the same bits, on its own, inside a `Grant` reply, and
//!    inside a journaled release.
//! 2. **Never larger**: an encoding is at most one byte longer than the
//!    plain `u32` count + n `f64` layout.
//! 3. **Corruption is an error**: a count above `MAX_FRAME_LEN / 8`,
//!    `k > n`, sparse pairs past the end of the bytes, and indices out
//!    of range or not strictly ascending are each rejected with an
//!    error, never a panic. Arbitrary bytes never panic the decoder.
//! 4. **Bounded expansion**: a sparse vector's length is not paid for
//!    by its bytes, so one message's vectors together may hold at most
//!    `MAX_FRAME_LEN / 8` values — what a frame could carry densely. A
//!    `GrantMulti` of many all-zero lanes past that is refused.

use agreements_grm::GrmError;
use agreements_net::journal::{DecisionBody, JournalRecord};
use agreements_net::wire::{decode_draws, encode_draws, ResponseFrame, WireResponse};
use agreements_net::MAX_FRAME_LEN;
use agreements_sched::{Allocation, MultiAllocation};
use proptest::prelude::*;

/// Offset of the sparse form's `k` and first pair (after tag + `n`).
const K_AT: usize = 5;
const PAIRS_AT: usize = 9;

/// One draw: `+0.0` unless `sel < density` (out of 16), else one of the
/// special values or arbitrary bits.
fn draw(sel: u32, bits: u64, density: u32) -> f64 {
    if sel >= density {
        return 0.0;
    }
    match bits % 6 {
        0 => -0.0,
        // A NaN with a payload and either sign.
        1 => f64::from_bits((bits & 0x800F_FFFF_FFFF_FFFF) | 0x7FF0_0000_0000_0001),
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        _ => f64::from_bits(bits),
    }
}

/// Draw vectors of any length up to 300 and any density from all
/// `+0.0` (0/16) to fully dense (16/16).
fn arb_draws() -> impl Strategy<Value = Vec<f64>> {
    (0usize..300, 0u32..=16).prop_flat_map(|(n, density)| {
        proptest::collection::vec((0u32..16, any::<u64>()), n)
            .prop_map(move |es| es.into_iter().map(|(s, b)| draw(s, b, density)).collect())
    })
}

/// Sparse-form encodings (at least two pairs) to corrupt.
fn arb_sparse() -> impl Strategy<Value = Vec<f64>> {
    (8usize..300, 1u32..=4).prop_flat_map(|(n, density)| {
        proptest::collection::vec((0u32..16, any::<u64>()), n)
            .prop_map(move |es| es.into_iter().map(|(s, b)| draw(s, b, density)).collect())
            .prop_filter("needs two sparse pairs", |d: &Vec<f64>| {
                d.iter().filter(|v| v.to_bits() != 0).count() >= 2 && encode_draws(d)[0] == 1
            })
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn rejected(bytes: &[u8]) -> bool {
    matches!(decode_draws(bytes), Err(GrmError::FrameDecode { .. }))
}

#[test]
fn edge_vectors_round_trip() {
    let mut mixed = vec![0.0; 1000];
    mixed[0] = -0.0;
    mixed[10] = f64::from_bits(0x7FF8_0000_0000_1234);
    mixed[500] = f64::INFINITY;
    mixed[999] = f64::NEG_INFINITY;
    for d in [
        vec![],
        vec![0.0; 1000],
        vec![1.0; 1000],
        vec![-0.0; 1000],
        vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0],
        mixed,
    ] {
        let enc = encode_draws(&d);
        assert!(enc.len() <= 4 + 8 * d.len() + 1, "n={} encoded to {} bytes", d.len(), enc.len());
        assert_eq!(bits(&decode_draws(&enc).unwrap()), bits(&d));
    }
    // All +0.0 at n=1000 costs the tag, n and k: nine bytes, not 8 KB.
    assert_eq!(encode_draws(&[0.0; 1000]).len(), 9);
}

#[test]
fn counts_are_bounded_before_allocating() {
    let max = (MAX_FRAME_LEN / 8) as u32;
    // Sparse, k = 0: n is all that would be allocated. At the limit it
    // is accepted (a 1 MiB zero vector, what a frame could carry
    // densely); one past it is refused.
    let header = |n: u32| {
        let mut b = vec![1u8];
        b.extend(n.to_le_bytes());
        b.extend(0u32.to_le_bytes());
        b
    };
    assert_eq!(decode_draws(&header(max)).unwrap().len(), max as usize);
    assert!(rejected(&header(max + 1)));
    assert!(rejected(&header(u32::MAX)));
    // Dense with a count the bytes cannot hold.
    let mut dense = vec![0u8];
    dense.extend(1000u32.to_le_bytes());
    dense.extend([0u8; 16]);
    assert!(rejected(&dense));
    // An unknown form tag.
    assert!(rejected(&[2, 0, 0, 0, 0]));
}

/// A `GrantMulti` reply of `lanes` lanes whose draws are each `n`
/// `+0.0`s in the sparse form (nine bytes a lane, whatever `n`).
fn zero_lanes_grant_multi(lanes: usize, n: u32) -> Vec<u8> {
    let mut b = 7u64.to_le_bytes().to_vec(); // corr
    b.push(4); // WireResponse::GrantMulti
    b.push(0); // Ok
    b.extend((lanes as u32).to_le_bytes());
    for _ in 0..lanes {
        b.extend(1u64.to_le_bytes()); // requester
        b.extend(2.0f64.to_bits().to_le_bytes()); // amount
        b.push(1); // sparse draws
        b.extend(n.to_le_bytes());
        b.extend(0u32.to_le_bytes()); // k
        b.extend(0.5f64.to_bits().to_le_bytes()); // theta
    }
    b
}

#[test]
fn hand_built_grant_multi_matches_the_encoder() {
    let lane = Allocation { requester: 1, amount: 2.0, draws: vec![0.0; 5], theta: 0.5 };
    let reply = ResponseFrame {
        corr: 7,
        resp: WireResponse::GrantMulti(Ok(MultiAllocation { lanes: vec![lane.clone(), lane] })),
    };
    assert_eq!(reply.encode(), zero_lanes_grant_multi(2, 5));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn draws_round_trip_bit_for_bit_and_never_grow(d in arb_draws()) {
        let enc = encode_draws(&d);
        prop_assert!(
            enc.len() <= 4 + 8 * d.len() + 1,
            "n={} encoded to {} bytes", d.len(), enc.len()
        );
        prop_assert_eq!(bits(&decode_draws(&enc).unwrap()), bits(&d));

        let alloc = Allocation { requester: 1, amount: 2.0, draws: d.clone(), theta: 0.5 };
        let reply = ResponseFrame { corr: 7, resp: WireResponse::Grant(Ok(alloc)) };
        let back = ResponseFrame::decode(&reply.encode()).unwrap();
        let WireResponse::Grant(Ok(b)) = back.resp else {
            return Err(TestCaseError::fail("wrong reply variant"));
        };
        prop_assert_eq!(bits(&b.draws), bits(&d));

        let rec = JournalRecord::Decision {
            seq: None,
            id: None,
            body: DecisionBody::Release { draws: d.clone(), result: Ok(()) },
        };
        let JournalRecord::Decision { body: DecisionBody::Release { draws, .. }, .. } =
            JournalRecord::decode(&rec.encode()).unwrap()
        else {
            return Err(TestCaseError::fail("wrong record variant"));
        };
        prop_assert_eq!(bits(&draws), bits(&d));
    }

    #[test]
    fn every_named_corruption_is_rejected(
        d in arb_sparse(),
        pick in any::<u64>(),
        excess in 1u32..1000,
    ) {
        let enc = encode_draws(&d);
        let n = get_u32(&enc, 1);
        let k = get_u32(&enc, K_AT) as usize;
        prop_assert_eq!(enc.len(), PAIRS_AT + 12 * k);
        let pair = 1 + (pick as usize) % (k - 1); // a pair with a predecessor
        let index_at = |j: usize| PAIRS_AT + 12 * j;

        // n above MAX_FRAME_LEN / 8.
        let mut b = enc.clone();
        put_u32(&mut b, 1, (MAX_FRAME_LEN / 8) as u32 + excess);
        prop_assert!(rejected(&b), "oversized n accepted");
        // k > n.
        let mut b = enc.clone();
        put_u32(&mut b, K_AT, n + excess);
        prop_assert!(rejected(&b), "k > n accepted");
        // k pairs that exceed the remaining bytes (k ≤ n still holds).
        let mut b = enc.clone();
        b.truncate(enc.len() - 1 - (pick as usize) % 12);
        prop_assert!(rejected(&b), "truncated pairs accepted");
        // An index out of range.
        let mut b = enc.clone();
        put_u32(&mut b, index_at(pair), n + excess - 1);
        prop_assert!(rejected(&b), "out-of-range index accepted");
        // An index equal to its predecessor's (not strictly ascending).
        let mut b = enc.clone();
        let prev = get_u32(&enc, index_at(pair - 1));
        put_u32(&mut b, index_at(pair), prev);
        prop_assert!(rejected(&b), "repeated index accepted");
        // An index below its predecessor's.
        let mut b = enc.clone();
        put_u32(&mut b, index_at(pair - 1), get_u32(&enc, index_at(pair)));
        put_u32(&mut b, index_at(pair), prev);
        prop_assert!(rejected(&b), "descending indices accepted");
    }

    #[test]
    fn grant_multi_lanes_share_one_value_budget(lanes in 2usize..2000, pick in any::<u32>()) {
        let max = MAX_FRAME_LEN / 8;
        // Lanes whose values together exceed the budget are refused...
        let n = max / lanes + 1 + pick as usize % (max - max / lanes);
        let over = zero_lanes_grant_multi(lanes, n as u32);
        prop_assert!(over.len() <= MAX_FRAME_LEN);
        prop_assert!(
            matches!(ResponseFrame::decode(&over), Err(GrmError::FrameDecode { .. })),
            "{} lanes of {} values accepted", lanes, n
        );
        // ...and lanes that fit it decode.
        let fits = zero_lanes_grant_multi(lanes, (max / lanes) as u32);
        let WireResponse::GrantMulti(Ok(m)) = ResponseFrame::decode(&fits).unwrap().resp else {
            return Err(TestCaseError::fail("wrong reply variant"));
        };
        prop_assert_eq!(m.lanes.len(), lanes);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        tag in 0u8..3,
    ) {
        let mut b = bytes;
        if let Some(first) = b.first_mut() {
            *first = tag;
        }
        // Ok or a decode error; any panic fails the test.
        if let Ok(d) = decode_draws(&b) {
            prop_assert!(d.len() <= MAX_FRAME_LEN / 8);
        }
    }
}
