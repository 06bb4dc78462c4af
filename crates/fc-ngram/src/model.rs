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
//! discount `n1 / (n1 + 2·n2)` estimated from that order's table.
//!
//! The two fractions depend only on the stored counts, so
//! [`KneserNey::from_counts`] evaluates them once per stored context
//! and drops the counts; a query is one probe per order and
//! `term + weight · P(w | c′)` per token, lowest order first. The
//! crate doc says why that is bit-identical to evaluating the
//! recursion from the counts on every query.

use crate::counts::{row_distinct, row_total, PackedRows, TransitionCounts};

/// A trained Kneser–Ney n-gram model.
#[derive(Debug, Clone)]
pub struct KneserNey {
    /// `orders[k]` answers contexts of length `k`: [`smoothed`] rows.
    orders: Vec<PackedRows<f64>>,
    /// Per-order discounts, aligned with `orders`.
    discounts: Vec<f64>,
    vocab: usize,
    order: usize,
}

/// One order's table with the smoothing already applied: per context,
/// the `vocab` discounted terms `max(count(c, w) − D, 0) / count(c)`
/// followed by the backoff weight `D · N1+(c·) / count(c)`.
fn smoothed(table: TransitionCounts, d: f64) -> PackedRows<f64> {
    let vocab = table.vocab();
    table.into_rows().map_rows(vocab + 1, |row, terms| {
        // A stored row holds at least one observation: total > 0.
        let total = row_total(row) as f64;
        terms.extend(row.iter().map(|&c| (c as f64 - d).max(0.0) / total));
        terms.push(d * row_distinct(row) as f64 / total);
    })
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
    pub fn from_counts(top: TransitionCounts) -> Self {
        let order = top.order();
        let vocab = top.vocab();
        // `tables[k]` covers contexts of length `k`: raw counts at the
        // top, below it each order the continuation counts of the next.
        let mut tables = vec![top];
        for _ in 0..order {
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
        Self {
            orders,
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

    /// P(next | history): uses the last `order` tokens of `history`
    /// (fewer if the history is shorter). Never returns 0 — smoothing
    /// guarantees mass on unseen moves.
    ///
    /// This is the module-level recursion for one token;
    /// [`Self::distribution_into`] computes the same values (bit for
    /// bit, property-tested) a vocabulary row at a time.
    ///
    /// # Panics
    /// Panics when `next`, or a token of the context, is outside the
    /// vocabulary.
    pub fn prob(&self, history: &[u16], next: u16) -> f64 {
        assert!((next as usize) < self.vocab, "token out of vocabulary");
        let mut p = 1.0 / self.vocab as f64;
        for row in self.rows(self.context(history)) {
            p = row[next as usize] + row[self.vocab] * p;
        }
        p
    }

    /// The full next-token distribution given `history`; sums to 1.
    pub fn distribution(&self, history: &[u16]) -> Vec<f64> {
        let mut out = vec![0.0; self.vocab];
        self.distribution_into(history, &mut out);
        out
    }

    /// [`Self::distribution`] written into `out`, without allocating:
    /// one probe per order, lowest order first, each order folding its
    /// stored row over the lower-order distribution already in `out`
    /// with one multiply and one add per token. Orders whose context
    /// was never seen leave `out` as it is (full weight on the
    /// lower-order model).
    ///
    /// # Panics
    /// Panics when `out.len()` is not the vocabulary size, or a token of
    /// the context is outside the vocabulary.
    pub fn distribution_into(&self, history: &[u16], out: &mut [f64]) {
        assert_eq!(out.len(), self.vocab, "one slot per vocabulary token");
        out.fill(1.0 / self.vocab as f64);
        for row in self.rows(self.context(history)) {
            let backoff_weight = row[self.vocab];
            for (p, &discounted) in out.iter_mut().zip(row) {
                *p = discounted + backoff_weight * *p;
            }
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

    /// The stored rows of `ctx`'s suffixes, shortest first, the unseen
    /// ones skipped. The key grows with the suffix: one multiply-add
    /// prepends the next older token (`counts` module doc).
    fn rows<'a>(&'a self, ctx: &'a [u16]) -> impl Iterator<Item = &'a [f64]> + 'a {
        let mut key = 0u64;
        let mut place = 1u64;
        (0..=ctx.len()).filter_map(move |k| {
            if k > 0 {
                key += u64::from(ctx[ctx.len() - k]) * place;
                place *= self.vocab as u64;
            }
            self.orders[k].get(key)
        })
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

    const V: usize = 9; // ForeCache's nine-move vocabulary

    #[test]
    #[should_panic(expected = "history token out of vocabulary")]
    fn out_of_vocabulary_history_is_rejected() {
        // Unchecked, the context (9) would pack to the key of (1, 0).
        toy_model(3).distribution(&[3, 3, 9]);
    }

    #[test]
    #[should_panic(expected = "token out of vocabulary")]
    fn out_of_vocabulary_next_token_is_rejected() {
        // Unchecked, token 9 would read a row's backoff weight.
        toy_model(3).prob(&[3, 3, 3], 9);
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
