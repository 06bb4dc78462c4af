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

use crate::counts::{row_distinct, row_total, TransitionCounts};

/// A trained Kneser–Ney n-gram model.
#[derive(Debug, Clone)]
pub struct KneserNey {
    /// `tables[k]` covers contexts of length `k`; `tables[n]` is raw
    /// counts, the rest are continuation counts.
    tables: Vec<TransitionCounts>,
    /// Per-order discounts, aligned with `tables`.
    discounts: Vec<f64>,
    vocab: usize,
    order: usize,
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
        let mut tables = Vec::with_capacity(order + 1);
        tables.push(top);
        for _ in 0..order {
            let next = tables.last().expect("nonempty").continuation_table();
            tables.push(next);
        }
        tables.reverse(); // tables[k] = context length k
        let discounts = tables.iter().map(estimate_discount).collect();
        Self {
            tables,
            discounts,
            vocab,
            order,
        }
    }

    /// Context length of the model.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
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
    /// This is the module-level recursion written out for one token;
    /// [`Self::distribution_into`] computes the same values (bit for
    /// bit, property-tested) a vocabulary row at a time.
    pub fn prob(&self, history: &[u16], next: u16) -> f64 {
        self.prob_at(self.context(history), next)
    }

    /// The full next-token distribution given `history`; sums to 1.
    pub fn distribution(&self, history: &[u16]) -> Vec<f64> {
        let mut out = vec![0.0; self.vocab];
        self.distribution_into(history, &mut out);
        out
    }

    /// [`Self::distribution`] written into `out`, without allocating:
    /// one table-row lookup per order, lowest order first, each order
    /// folding its discounted counts over the lower-order row already
    /// in `out`. Orders whose context was never seen leave `out` as it
    /// is (full weight on the lower-order model).
    ///
    /// # Panics
    /// Panics when `out.len()` is not the vocabulary size.
    pub fn distribution_into(&self, history: &[u16], out: &mut [f64]) {
        assert_eq!(out.len(), self.vocab, "one slot per vocabulary token");
        let ctx = self.context(history);
        out.fill(1.0 / self.vocab as f64);
        for k in 0..=ctx.len() {
            let Some(row) = self.tables[k].row(&ctx[ctx.len() - k..]) else {
                continue;
            };
            // A stored row holds at least one observation: total > 0.
            let total = row_total(row) as f64;
            let d = self.discounts[k];
            let backoff_weight = d * row_distinct(row) as f64 / total;
            for (p, &c) in out.iter_mut().zip(row) {
                let discounted = (c as f64 - d).max(0.0) / total;
                *p = discounted + backoff_weight * *p;
            }
        }
    }

    /// The last `order` tokens of `history` (all of it when shorter).
    fn context<'h>(&self, history: &'h [u16]) -> &'h [u16] {
        &history[history.len() - history.len().min(self.order)..]
    }

    /// Tokens ranked by probability (descending), with ties broken by
    /// token id for determinism.
    pub fn ranked(&self, history: &[u16]) -> Vec<(u16, f64)> {
        let mut v: Vec<(u16, f64)> = self
            .distribution(history)
            .into_iter()
            .enumerate()
            .map(|(w, p)| (w as u16, p))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v
    }

    fn prob_at(&self, ctx: &[u16], next: u16) -> f64 {
        let k = ctx.len();
        let table = &self.tables[k];
        let total = table.context_total(ctx) as f64;
        let lower = |this: &Self| -> f64 {
            if k == 0 {
                1.0 / this.vocab as f64
            } else {
                this.prob_at(&ctx[1..], next)
            }
        };
        if total == 0.0 {
            // Unseen context: full weight on the lower-order model.
            return lower(self);
        }
        let d = self.discounts[k];
        let c = table.count(ctx, next) as f64;
        let n1plus = table.distinct_continuations(ctx) as f64;
        let discounted = (c - d).max(0.0) / total;
        let backoff_weight = d * n1plus / total;
        discounted + backoff_weight * lower(self)
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

    #[test]
    fn frequent_continuation_dominates() {
        let m = toy_model(3);
        let d = m.distribution(&[3, 3, 3]);
        let best = d
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 3, "panning right thrice should predict right");
    }

    #[test]
    fn ranked_is_sorted_desc_and_deterministic() {
        let m = toy_model(3);
        let r = m.ranked(&[3, 3, 3]);
        assert_eq!(r.len(), V);
        for w in r.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(r, m.ranked(&[3, 3, 3]));
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
        let after_45 = m2.ranked(&[4, 5]);
        assert_eq!(after_45[0].0, 6);
        let after_x5 = m2.ranked(&[2, 5]);
        assert_eq!(after_x5[0].0, 7);
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
