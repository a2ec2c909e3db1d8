//! Nearest-rank percentiles by selection are pinned bit-equal to the
//! sort-based definition: `percentile` and `percentiles` must return, for
//! every `p`, the `to_bits()` of the element at rank
//! `round((n - 1) · p)` of a copy sorted under `f64::total_cmp`.
//!
//! Samples mix duplicates, both signed zeros, both infinities, NaNs of
//! either sign, extreme magnitudes and one-element inputs; the requested
//! `ps` repeat and come in any order.

use lat_fpga::tensor::stats::{percentile, percentiles};
use proptest::prelude::*;

/// Values whose order under `total_cmp` is easy to get wrong.
const SPECIALS: [f64; 12] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::MAX,
    f64::MIN,
    f64::MIN_POSITIVE,
    -f64::MIN_POSITIVE,
    1.0,
    -1.0,
];

/// The sort-based reference: sort a copy, index the nearest rank.
fn reference(xs: &[f64], p: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// A palette draw: a special value, or one of few small half-integers
/// (so samples carry many exact duplicates).
fn value((pick, small): (usize, u64)) -> f64 {
    SPECIALS
        .get(pick)
        .copied()
        .unwrap_or(small as f64 * 0.5 - 8.0)
}

fn assert_matches_reference(xs: &[f64], ps: &[f64]) {
    let got = percentiles(xs, ps).expect("non-empty sample");
    assert_eq!(got.len(), ps.len());
    for (&p, &v) in ps.iter().zip(&got) {
        let want = reference(xs, p);
        assert_eq!(
            v.to_bits(),
            want.to_bits(),
            "percentiles p={p}: {v} != sorted {want} on {xs:?}"
        );
        let single = percentile(xs, p).expect("non-empty sample");
        assert_eq!(
            single.to_bits(),
            want.to_bits(),
            "percentile p={p}: {single} != sorted {want} on {xs:?}"
        );
    }
}

#[test]
fn one_element_and_all_special_samples() {
    let ps = [1.0, 0.5, 0.0, 0.99, 0.5, 0.01];
    for &x in &SPECIALS {
        assert_matches_reference(&[x], &ps);
    }
    assert_matches_reference(&SPECIALS, &ps);
    // Signed zeros and NaN signs are told apart to the bit.
    assert_eq!(
        percentile(&[0.0, -0.0], 0.0).map(f64::to_bits),
        Some((-0.0f64).to_bits())
    );
    assert_eq!(
        percentile(&[f64::NAN, -f64::NAN, 1.0], 0.0).map(f64::to_bits),
        Some((-f64::NAN).to_bits())
    );
    assert_eq!(percentiles(&[], &ps), None);
    assert_eq!(percentiles(&[1.0], &[]), Some(Vec::new()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random palette samples, random `ps` (repeats, any order, with the
    /// extreme ranks mixed in).
    #[test]
    fn selection_matches_the_sorted_reference(
        draws in proptest::collection::vec((0usize..24, 0u64..24), 1..200),
        ps in proptest::collection::vec(0.0f64..1.0, 0..10),
        ends in (0usize..3, 0usize..3),
    ) {
        let xs: Vec<f64> = draws.into_iter().map(value).collect();
        let mut ps = ps;
        // Put exact 0 and 1 at arbitrary positions, descending included.
        ps.insert(ends.0.min(ps.len()), 1.0);
        ps.insert(ends.1.min(ps.len()), 0.0);
        assert_matches_reference(&xs, &ps);
        let mut descending = ps.clone();
        descending.sort_by(|a, b| b.total_cmp(a));
        assert_matches_reference(&xs, &descending);
    }
}
