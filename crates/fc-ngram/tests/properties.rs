//! Property-based tests: Kneser–Ney invariants over random traces.

use fc_ngram::KneserNey;
use proptest::prelude::*;

const V: usize = 9;

fn traces() -> impl Strategy<Value = Vec<Vec<u16>>> {
    proptest::collection::vec(proptest::collection::vec(0u16..V as u16, 0..40), 1..6)
}

proptest! {
    /// Every distribution is a proper probability distribution.
    #[test]
    fn distributions_sum_to_one(ts in traces(), order in 0usize..5,
                                hist in proptest::collection::vec(0u16..V as u16, 0..6)) {
        let refs: Vec<&[u16]> = ts.iter().map(|t| t.as_slice()).collect();
        let m = KneserNey::train(refs, order, V);
        let d = m.distribution(&hist);
        let sum: f64 = d.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        prop_assert!(d.iter().all(|&p| p > 0.0 && p <= 1.0));
    }

    /// ranked() is a permutation of the vocabulary sorted by probability.
    #[test]
    fn ranked_is_sorted_permutation(ts in traces(), order in 0usize..4,
                                    hist in proptest::collection::vec(0u16..V as u16, 0..5)) {
        let refs: Vec<&[u16]> = ts.iter().map(|t| t.as_slice()).collect();
        let m = KneserNey::train(refs, order, V);
        let r = m.ranked(&hist);
        prop_assert_eq!(r.len(), V);
        let mut seen: Vec<u16> = r.iter().map(|(w, _)| *w).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..V as u16).collect::<Vec<_>>());
        for w in r.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
    }

    /// prob() only depends on the last `order` tokens of history.
    #[test]
    fn prob_uses_bounded_history(ts in traces(), order in 0usize..4,
                                 hist in proptest::collection::vec(0u16..V as u16, 6..10),
                                 next in 0u16..V as u16) {
        let refs: Vec<&[u16]> = ts.iter().map(|t| t.as_slice()).collect();
        let m = KneserNey::train(refs, order, V);
        let full = m.prob(&hist, next);
        let truncated = m.prob(&hist[hist.len() - order.max(1)..], next);
        if order > 0 {
            let tail = m.prob(&hist[hist.len() - order..], next);
            prop_assert!((full - tail).abs() < 1e-12);
        } else {
            prop_assert!((full - m.prob(&[], next)).abs() < 1e-12);
        }
        let _ = truncated;
    }

    /// The row-wise routine is the per-token recursion, bit for bit:
    /// orders 0–5, empty, short and over-long histories, and (random
    /// histories over sparse traces) contexts never seen at some or
    /// every order. `distribution` is the same row, allocated.
    #[test]
    fn distribution_into_is_prob_bitwise(ts in traces(), order in 0usize..6,
                                         hist in proptest::collection::vec(0u16..V as u16, 0..8)) {
        let refs: Vec<&[u16]> = ts.iter().map(|t| t.as_slice()).collect();
        let m = KneserNey::train(refs, order, V);
        let mut row = [f64::NAN; V];
        m.distribution_into(&hist, &mut row);
        for (w, p) in row.iter().enumerate() {
            prop_assert_eq!(p.to_bits(), m.prob(&hist, w as u16).to_bits(), "token {}", w);
        }
        let bits = |d: &[f64]| d.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&m.distribution(&hist)), bits(&row));
    }
}
