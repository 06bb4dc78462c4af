//! Interpolated Kneser–Ney probability model (Chen & Goodman 1999).
//!
//! The model stack: the top table holds raw transition counts for
//! length-`n` contexts; every lower order holds *continuation counts*
//! (distinct left-extensions), and the recursion bottoms out in a uniform
//! distribution over the vocabulary:
//!
//! ```text
//! P(w | c) = max(count(c, w) − D, 0) / count(c)
//!          + D · N1+(c·) / count(c) · P(w | c′)
//! ```
//!
//! where `c′` drops the oldest token and `D` is the per-order absolute
//! discount `n1 / (n1 + 2·n2)` estimated from that order's table. An
//! order whose context was never seen contributes nothing: `P(w | c)`
//! is then `P(w | c′)`.
//!
//! Every term depends only on the stored counts, so
//! [`KneserNey::from_counts`] evaluates the whole recursion once per
//! stored context and drops the counts; a query is the stored row of
//! its context's longest stored suffix. The crate doc says why that is
//! bit-identical to evaluating the recursion on every query.

use crate::counts::{row_distinct, row_total, PackedRows, TransitionCounts};

/// A trained Kneser–Ney n-gram model.
#[derive(Debug, Clone)]
pub struct KneserNey {
    /// `folded[k]` answers the stored contexts of length `k`: each one's
    /// whole next-token distribution, `vocab` cells.
    folded: Vec<PackedRows<f64>>,
    /// `places[k] = vocab^k`, the weight of the oldest token of a
    /// length-`k + 1` context's key.
    places: Vec<u64>,
    /// Per-order discounts, aligned with `folded`.
    discounts: Vec<f64>,
    vocab: usize,
    order: usize,
}

/// One order's table with the smoothing already applied: per context,
/// the `vocab` discounted terms `max(count(c, w) − D, 0) / count(c)`
/// followed by the backoff weight `D · N1+(c·) / count(c)`.
fn smoothed(table: TransitionCounts, d: f64) -> PackedRows<f64> {
    let vocab = table.vocab();
    table.into_rows().map_rows(vocab + 1, |_, row, terms| {
        // A stored row holds at least one observation: total > 0.
        let total = row_total(row) as f64;
        terms.extend(row.iter().map(|&c| (c as f64 - d).max(0.0) / total));
        terms.push(d * row_distinct(row) as f64 / total);
    })
}

/// Every order's [`smoothed`] table, `[k]` for contexts of length `k`,
/// and its discount: raw counts at the top, below it each order the
/// continuation counts of the next.
fn smoothed_orders(top: TransitionCounts) -> (Vec<PackedRows<f64>>, Vec<f64>) {
    let mut tables = vec![top];
    for _ in 0..tables[0].order() {
        let next = tables.last().expect("nonempty").continuation_table();
        tables.push(next);
    }
    tables.reverse();
    let discounts: Vec<f64> = tables.iter().map(estimate_discount).collect();
    let orders = tables
        .into_iter()
        .zip(&discounts)
        .map(|(table, &d)| smoothed(table, d))
        .collect();
    (orders, discounts)
}

impl KneserNey {
    /// Trains a model of context length `order` over `vocab` tokens from
    /// the given traces (Algorithm 2 builds the top-level counts; lower
    /// orders use continuation counts).
    pub fn train<'a, I>(traces: I, order: usize, vocab: usize) -> Self
    where
        I: IntoIterator<Item = &'a [u16]>,
    {
        let top = TransitionCounts::process_traces(traces, order, vocab);
        Self::from_counts(top)
    }

    /// Builds the model from a pre-computed top-level count table.
    ///
    /// Folds each order's smoothed rows, lowest order first: a stored
    /// context's row becomes `discounted[w] + weight · lower[w]`, where
    /// `lower` is the folded row of its longest stored proper suffix
    /// (uniform when it has none) — the recursion's own operands, in
    /// its own order.
    pub fn from_counts(top: TransitionCounts) -> Self {
        let order = top.order();
        let vocab = top.vocab();
        let (smoothed, discounts) = smoothed_orders(top);
        let places: Vec<u64> = (0..order as u32).map(|k| (vocab as u64).pow(k)).collect();
        let uniform = 1.0 / vocab as f64;
        let mut folded: Vec<PackedRows<f64>> = Vec::with_capacity(order + 1);
        for rows in smoothed {
            let k = folded.len();
            let next = rows.map_rows(vocab, |key, row, out| {
                // Dropping tokens from the old end keeps `key % vocab^j`.
                let lower = (0..k).rev().find_map(|j| folded[j].get(key % places[j]));
                let start = out.len();
                match lower {
                    Some(lower) => out.extend_from_slice(lower),
                    None => out.resize(start + vocab, uniform),
                }
                let backoff_weight = row[vocab];
                for (p, &discounted) in out[start..].iter_mut().zip(row) {
                    *p = discounted + backoff_weight * *p;
                }
            });
            folded.push(next);
        }
        Self {
            folded,
            places,
            discounts,
            vocab,
            order,
        }
    }

    /// Context length of the model.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The absolute discount of each order, `discounts()[k]` for
    /// contexts of length `k`.
    pub fn discounts(&self) -> &[f64] {
        &self.discounts
    }

    /// The next-token distribution given `history`, written into `out`
    /// without allocating: the last `order` tokens of `history` (fewer
    /// if the history is shorter) select the folded row of the
    /// context's longest stored suffix, or the uniform distribution when
    /// not even the empty context was ever seen. The row sums to 1 and
    /// has no zero cell: smoothing guarantees mass on unseen moves.
    ///
    /// # Panics
    /// Panics when `out.len()` is not the vocabulary size, or a token of
    /// the context is outside the vocabulary.
    pub fn distribution_into(&self, history: &[u16], out: &mut [f64]) {
        assert_eq!(out.len(), self.vocab, "one slot per vocabulary token");
        match self.row(self.context(history)) {
            Some(row) => out.copy_from_slice(row),
            None => out.fill(1.0 / self.vocab as f64),
        }
    }

    /// The last `order` tokens of `history` (all of it when shorter),
    /// each checked to be a vocabulary token: packed, a foreign token
    /// would read another context's row.
    fn context<'h>(&self, history: &'h [u16]) -> &'h [u16] {
        let ctx = &history[history.len() - history.len().min(self.order)..];
        assert!(
            ctx.iter().all(|&t| (t as usize) < self.vocab),
            "history token out of vocabulary"
        );
        ctx
    }

    /// The folded row of `ctx`'s longest stored suffix, probing longest
    /// first. Dropping the oldest token of a length-`j` suffix subtracts
    /// its place from the key (`counts` module doc).
    fn row(&self, ctx: &[u16]) -> Option<&[f64]> {
        let vocab = self.vocab as u64;
        let mut key = ctx.iter().fold(0, |key, &t| key * vocab + u64::from(t));
        for j in (0..=ctx.len()).rev() {
            if let Some(row) = self.folded[j].get(key) {
                return Some(row);
            }
            if j > 0 {
                key -= u64::from(ctx[ctx.len() - j]) * self.places[j - 1];
            }
        }
        None
    }
}

/// Standard absolute-discount estimate `D = n1 / (n1 + 2·n2)`, clamped to
/// a small positive range so sparse tables still smooth.
fn estimate_discount(t: &TransitionCounts) -> f64 {
    let (n1, n2) = t.count_of_counts();
    if n1 == 0 {
        return 0.5;
    }
    (n1 as f64 / (n1 as f64 + 2.0 * n2 as f64)).clamp(0.05, 0.95)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const V: usize = 9; // ForeCache's nine-move vocabulary

    impl KneserNey {
        /// The next-token distribution after `history`, as a fresh row.
        fn distribution(&self, history: &[u16]) -> Vec<f64> {
            let mut out = vec![0.0; self.vocab];
            self.distribution_into(history, &mut out);
            out
        }
    }

    /// The per-order recursion the folded rows replaced, kept as their
    /// oracle: every order's smoothed rows ([`smoothed_orders`]), folded
    /// over the lower-order distribution lowest order first on each
    /// query, an unseen order leaving it as it is.
    fn recursion(orders: &[PackedRows<f64>], history: &[u16]) -> Vec<f64> {
        let order = orders.len() - 1;
        let ctx = &history[history.len() - history.len().min(order)..];
        let mut out = vec![1.0 / V as f64; V];
        for k in 0..=ctx.len() {
            let key = ctx[ctx.len() - k..]
                .iter()
                .fold(0, |key, &t| key * V as u64 + u64::from(t));
            if let Some(row) = orders[k].get(key) {
                let backoff_weight = row[V];
                for (p, &discounted) in out.iter_mut().zip(row) {
                    *p = discounted + backoff_weight * *p;
                }
            }
        }
        out
    }

    /// Traces never hold this token, so a context holding it is unseen.
    const ABSENT: u16 = V as u16 - 1;

    proptest! {
        /// The folded rows answer what the per-order recursion answers,
        /// bit for bit, through `distribution_into`: orders
        /// 0–4, every suffix of a history longer than the order (so
        /// contexts shorter than it too), and the same suffixes behind a
        /// token no trace holds (unseen at their full length).
        #[test]
        fn folded_rows_are_the_per_order_recursion(
            traces in proptest::collection::vec(
                proptest::collection::vec(0..ABSENT, 0..40), 1..6),
            order in 0usize..5,
            history in proptest::collection::vec(0..ABSENT, 5..7),
        ) {
            let top = TransitionCounts::process_traces(traces.iter().map(Vec::as_slice), order, V);
            let (orders, _) = smoothed_orders(top.clone());
            let m = KneserNey::from_counts(top);
            for start in 0..=history.len() {
                let suffix = &history[start..];
                let behind_absent: Vec<u16> = [ABSENT].iter().chain(suffix).copied().collect();
                for h in [suffix, &behind_absent] {
                    let want: Vec<u64> = recursion(&orders, h).iter().map(|p| p.to_bits()).collect();
                    let mut row = [f64::NAN; V];
                    m.distribution_into(h, &mut row);
                    prop_assert_eq!(row.map(f64::to_bits).to_vec(), want, "history {:?}", h);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "history token out of vocabulary")]
    fn out_of_vocabulary_history_is_rejected() {
        // Unchecked, the context (9) would pack to the key of (1, 0).
        toy_model(3).distribution(&[3, 3, 9]);
    }

    /// Tokens older than the context never enter a key, so they are
    /// not checked.
    #[test]
    fn tokens_before_the_context_are_ignored() {
        let m = toy_model(2);
        assert_eq!(m.distribution(&[700, 3, 3]), m.distribution(&[3, 3]));
    }

    /// Markov-20 over nine tokens is the longest model the key admits.
    #[test]
    fn longest_order_trains_and_answers() {
        let m = toy_model(20);
        let d = m.distribution(&[3; 25]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(std::panic::catch_unwind(|| toy_model(21)).is_err());
    }

    fn toy_model(order: usize) -> KneserNey {
        // Two traces with a strong "after two 3s comes another 3" pattern
        // (3 = pan right), plus some zoom activity.
        let t1: Vec<u16> = vec![3, 3, 3, 3, 3, 4, 4, 5, 3, 3, 3];
        let t2: Vec<u16> = vec![5, 5, 5, 4, 4, 3, 3, 3, 3];
        KneserNey::train([t1.as_slice(), t2.as_slice()], order, V)
    }

    #[test]
    fn distribution_sums_to_one() {
        let m = toy_model(3);
        for hist in [
            vec![],
            vec![3],
            vec![3, 3],
            vec![3, 3, 3],
            vec![7, 8, 6], // unseen context
        ] {
            let d = m.distribution(&hist);
            let sum: f64 = d.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "history {hist:?}: sum {sum}");
        }
    }

    #[test]
    fn smoothing_gives_unseen_moves_nonzero_mass() {
        let m = toy_model(3);
        let d = m.distribution(&[3, 3, 3]);
        for (w, p) in d.iter().enumerate() {
            assert!(*p > 0.0, "move {w} has zero probability");
        }
    }

    /// The likeliest next token after `history`.
    fn likeliest(m: &KneserNey, history: &[u16]) -> usize {
        let d = m.distribution(history);
        (0..d.len()).max_by(|&a, &b| d[a].total_cmp(&d[b])).unwrap()
    }

    #[test]
    fn frequent_continuation_dominates() {
        let m = toy_model(3);
        assert_eq!(
            likeliest(&m, &[3, 3, 3]),
            3,
            "panning right thrice should predict right"
        );
    }

    #[test]
    fn short_history_backs_off_gracefully() {
        let m = toy_model(3);
        // One-token history uses the order-1 continuation model.
        let d1 = m.distribution(&[3]);
        assert!((d1.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Empty history = unigram continuation model.
        let d0 = m.distribution(&[]);
        assert!(d0[3] > d0[0], "right-pan more common than up-pan");
    }

    #[test]
    fn unseen_context_falls_back_fully() {
        let m = toy_model(3);
        let unseen = m.distribution(&[0, 1, 2]);
        let lower = m.distribution(&[1, 2]);
        for (a, b) in unseen.iter().zip(&lower) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn kneser_ney_prefers_diverse_histories() {
        // Token 2 appears often but only after token 0; token 1 appears
        // in diverse contexts. The unigram *continuation* probability of
        // 1 should beat 2 even though raw counts favour 2.
        let trace: Vec<u16> = vec![0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 3, 1, 4, 1, 5, 1, 6, 1];
        let m = KneserNey::train([trace.as_slice()], 2, V);
        let d = m.distribution(&[]);
        assert!(
            d[1] > d[2],
            "continuation count should favour diverse token: {:?}",
            d
        );
    }

    #[test]
    fn higher_order_uses_longer_patterns() {
        // Pattern: 4 5 → 6, but 5 alone → 7 most often.
        let trace: Vec<u16> = vec![4, 5, 6, 1, 5, 7, 2, 5, 7, 3, 5, 7, 4, 5, 6, 0, 4, 5, 6];
        let m2 = KneserNey::train([trace.as_slice()], 2, V);
        assert_eq!(likeliest(&m2, &[4, 5]), 6);
        assert_eq!(likeliest(&m2, &[2, 5]), 7);
    }

    #[test]
    fn discount_estimate_in_range() {
        let m = toy_model(3);
        for d in &m.discounts {
            assert!(*d >= 0.05 && *d <= 0.95, "discount {d}");
        }
    }

    #[test]
    fn order_zero_model_is_unigram() {
        let t: Vec<u16> = vec![1, 1, 1, 2];
        let m = KneserNey::train([t.as_slice()], 0, 3);
        let d = m.distribution(&[]);
        assert!(d[1] > d[2]);
        assert!(d[0] > 0.0);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
