//! Property-based tests: Kneser–Ney invariants over random traces.

use fc_ngram::{KneserNey, TransitionCounts};
use proptest::prelude::*;

const V: usize = 9;

/// The model as it answered before rows were folded at training time,
/// kept as the oracle of [`KneserNey::prob`] and
/// [`KneserNey::distribution_into`]: the Kneser–Ney recursion for one
/// token, every term evaluated from the raw `u32` count rows on each
/// call, over tables and discounts built here from the counting API.
struct CountRecursion {
    /// `tables[k]`: raw counts at the top order, continuation counts below.
    tables: Vec<TransitionCounts>,
    discounts: Vec<f64>,
}

impl CountRecursion {
    fn train(traces: &[Vec<u16>], order: usize) -> Self {
        let top = TransitionCounts::process_traces(traces.iter().map(Vec::as_slice), order, V);
        let mut tables = vec![top];
        for _ in 0..order {
            tables.push(tables.last().unwrap().continuation_table());
        }
        tables.reverse();
        let discounts = tables
            .iter()
            .map(|t| match t.count_of_counts() {
                (0, _) => 0.5,
                (n1, n2) => (n1 as f64 / (n1 as f64 + 2.0 * n2 as f64)).clamp(0.05, 0.95),
            })
            .collect();
        Self { tables, discounts }
    }

    fn prob(&self, history: &[u16], next: u16) -> f64 {
        let order = self.tables.len() - 1;
        self.prob_at(&history[history.len() - history.len().min(order)..], next)
    }

    fn prob_at(&self, ctx: &[u16], next: u16) -> f64 {
        let k = ctx.len();
        let lower = || -> f64 {
            if k == 0 {
                1.0 / V as f64
            } else {
                self.prob_at(&ctx[1..], next)
            }
        };
        let Some(row) = self.tables[k].row(ctx) else {
            // Unseen context: full weight on the lower-order model.
            return lower();
        };
        let total = row.iter().sum::<u32>() as f64;
        let d = self.discounts[k];
        let c = row[next as usize] as f64;
        let n1plus = row.iter().filter(|&&x| x > 0).count() as f64;
        let discounted = (c - d).max(0.0) / total;
        let backoff_weight = d * n1plus / total;
        discounted + backoff_weight * lower()
    }
}

/// The next-token distribution after `history`.
fn distribution(m: &KneserNey, history: &[u16]) -> [f64; V] {
    let mut row = [f64::NAN; V];
    m.distribution_into(history, &mut row);
    row
}

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
        let d = distribution(&m, &hist);
        let sum: f64 = d.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
        prop_assert!(d.iter().all(|&p| p > 0.0 && p <= 1.0));
    }

    /// A distribution only depends on the last `order` tokens of history.
    #[test]
    fn prob_uses_bounded_history(ts in traces(), order in 0usize..4,
                                 hist in proptest::collection::vec(0u16..V as u16, 6..10)) {
        let refs: Vec<&[u16]> = ts.iter().map(|t| t.as_slice()).collect();
        let m = KneserNey::train(refs, order, V);
        let full = distribution(&m, &hist);
        let tail = distribution(&m, &hist[hist.len() - order..]);
        prop_assert_eq!(full.map(f64::to_bits), tail.map(f64::to_bits));
    }

    /// Rows folded once at training time answer what the per-query
    /// recursion over raw counts answers, bit for bit: orders 0–10, empty, short and over-long histories, and (random
    /// histories over sparse traces) contexts never seen at some or
    /// every order.
    #[test]
    fn distribution_into_is_prob_bitwise(ts in traces(), order in 0usize..11,
                                         hist in proptest::collection::vec(0u16..V as u16, 0..13)) {
        let m = KneserNey::train(ts.iter().map(Vec::as_slice), order, V);
        let oracle = CountRecursion::train(&ts, order);
        let bits = |d: &[f64]| d.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(m.discounts()), bits(&oracle.discounts));
        for (w, p) in distribution(&m, &hist).iter().enumerate() {
            let want = oracle.prob(&hist, w as u16).to_bits();
            prop_assert_eq!(p.to_bits(), want, "row, token {}", w);
        }
    }
}
