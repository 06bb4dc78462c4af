//! Transition-frequency counting — the paper's Algorithm 2.
//!
//! `PROCESSTRACES` iterates over user traces, extracts the move sequence
//! of each (`GETMOVESEQUENCE`), and for every sub-sequence of length `n`
//! increments the counter of the move observed immediately after it
//! (`UPDATEFREQUENCIES`, line 14:
//! `F[sequence(v_{i-n}, …, v_{i-1}) → v_i] += 1`).

use std::collections::HashMap;

/// Raw transition frequencies for contexts of one fixed length.
///
/// Contexts are token sequences of exactly `order` tokens; counts are kept
/// densely per vocabulary token because ForeCache's vocabulary (nine
/// moves) is tiny.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionCounts {
    order: usize,
    vocab: usize,
    /// context → per-token counts.
    table: HashMap<Vec<u16>, Vec<u32>>,
}

impl TransitionCounts {
    /// Creates an empty table for contexts of length `order` over a
    /// vocabulary of `vocab` tokens.
    ///
    /// # Panics
    /// Panics when `vocab` is 0 or does not fit `u16`.
    pub fn new(order: usize, vocab: usize) -> Self {
        assert!(vocab > 0, "vocabulary must be non-empty");
        assert!(vocab <= u16::MAX as usize + 1, "vocabulary too large");
        Self {
            order,
            vocab,
            table: HashMap::new(),
        }
    }

    /// Algorithm 2, `PROCESSTRACES`: builds counts from a set of traces.
    pub fn process_traces<'a, I>(traces: I, order: usize, vocab: usize) -> Self
    where
        I: IntoIterator<Item = &'a [u16]>,
    {
        let mut f = Self::new(order, vocab);
        for trace in traces {
            f.update_frequencies(trace);
        }
        f
    }

    /// Algorithm 2, `UPDATEFREQUENCIES`: for each position `i > n`, count
    /// the transition `(v_{i-n}, …, v_{i-1}) → v_i`.
    pub fn update_frequencies(&mut self, seq: &[u16]) {
        let n = self.order;
        if seq.len() <= n {
            return;
        }
        for i in n..seq.len() {
            debug_assert!((seq[i] as usize) < self.vocab, "token out of vocabulary");
            let ctx = seq[i - n..i].to_vec();
            let counts = self
                .table
                .entry(ctx)
                .or_insert_with(|| vec![0u32; self.vocab]);
            counts[seq[i] as usize] += 1;
        }
    }

    /// The per-token counts observed after `context`, or `None` for a
    /// context never seen: one table lookup for a whole vocabulary row.
    pub fn row(&self, context: &[u16]) -> Option<&[u32]> {
        self.table.get(context).map(Vec::as_slice)
    }

    /// Count for `context → next`.
    pub fn count(&self, context: &[u16], next: u16) -> u32 {
        self.row(context).map_or(0, |c| c[next as usize])
    }

    /// Total transitions observed from `context`.
    pub fn context_total(&self, context: &[u16]) -> u32 {
        self.row(context).map_or(0, row_total)
    }

    /// Number of distinct next-tokens observed after `context`
    /// (`N1+(context ·)` in Kneser–Ney notation).
    pub fn distinct_continuations(&self, context: &[u16]) -> u32 {
        self.row(context).map_or(0, row_distinct)
    }

    /// Context length of this table.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Number of distinct contexts with at least one observation.
    pub fn num_contexts(&self) -> usize {
        self.table.len()
    }

    /// Iterates over `(context, per-token counts)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (&[u16], &[u32])> {
        self.table.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Derives the lower-order **continuation count** table used by
    /// Kneser–Ney: the count of `(c, w)` at order `k-1` is the number of
    /// distinct one-token left-extensions `u` such that `(u·c) → w` has a
    /// nonzero count in this table.
    ///
    /// # Panics
    /// Panics when called on an order-0 table.
    pub fn continuation_table(&self) -> TransitionCounts {
        assert!(self.order > 0, "order-0 table has no lower order");
        let mut lower = TransitionCounts::new(self.order - 1, self.vocab);
        for (ctx, counts) in &self.table {
            let suffix = ctx[1..].to_vec();
            let entry = lower
                .table
                .entry(suffix)
                .or_insert_with(|| vec![0u32; self.vocab]);
            for (w, &c) in counts.iter().enumerate() {
                if c > 0 {
                    entry[w] += 1;
                }
            }
        }
        lower
    }

    /// `(n1, n2)`: number of (context, token) pairs with count exactly 1
    /// and exactly 2 — the statistics behind the standard absolute
    /// discount estimate `D = n1 / (n1 + 2·n2)`.
    pub fn count_of_counts(&self) -> (usize, usize) {
        let mut n1 = 0;
        let mut n2 = 0;
        for counts in self.table.values() {
            for &c in counts {
                match c {
                    1 => n1 += 1,
                    2 => n2 += 1,
                    _ => {}
                }
            }
        }
        (n1, n2)
    }
}

/// Sum of one row's counts (`count(c)`).
pub(crate) fn row_total(row: &[u32]) -> u32 {
    row.iter().sum()
}

/// Number of nonzero counts in one row (`N1+(c ·)`).
pub(crate) fn row_distinct(row: &[u32]) -> u32 {
    row.iter().filter(|&&x| x > 0).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's example: with n = 3, being in state (left, left, left)
    /// and panning right takes the edge "right".
    #[test]
    fn update_frequencies_counts_paper_example() {
        // tokens: 0 = left, 1 = right
        let seq = [0u16, 0, 0, 1];
        let mut f = TransitionCounts::new(3, 2);
        f.update_frequencies(&seq);
        assert_eq!(f.count(&[0, 0, 0], 1), 1);
        assert_eq!(f.count(&[0, 0, 0], 0), 0);
        assert_eq!(f.context_total(&[0, 0, 0]), 1);
    }

    #[test]
    fn process_traces_accumulates_over_traces() {
        let t1 = [0u16, 0, 1, 0, 0, 1];
        let t2 = [0u16, 0, 1];
        let f = TransitionCounts::process_traces([t1.as_slice(), t2.as_slice()], 2, 2);
        // (0,0) → 1 occurs in t1 at i=2 and i=5, and t2 at i=2.
        assert_eq!(f.count(&[0, 0], 1), 3);
        // (0,1) → 0 occurs once (t1 i=3).
        assert_eq!(f.count(&[0, 1], 0), 1);
        assert_eq!(f.num_contexts(), 3); // (0,0), (0,1), (1,0)
    }

    #[test]
    fn short_traces_contribute_nothing() {
        let mut f = TransitionCounts::new(3, 2);
        f.update_frequencies(&[0, 1, 0]); // len == order → no transition
        assert_eq!(f.num_contexts(), 0);
    }

    #[test]
    fn distinct_continuations_counts_types_not_tokens() {
        let mut f = TransitionCounts::new(1, 3);
        f.update_frequencies(&[0, 1, 0, 1, 0, 2]);
        // context (0) followed by 1 (twice) and 2 (once) → 2 distinct.
        assert_eq!(f.distinct_continuations(&[0]), 2);
        assert_eq!(f.context_total(&[0]), 3);
    }

    #[test]
    fn continuation_table_counts_left_extensions() {
        // Bigram table (order 1): observe (0)→2 and (1)→2 — the unigram
        // continuation count of token 2 should be 2 (two distinct
        // one-token histories), even though raw count of 2 is 5.
        let mut f = TransitionCounts::new(1, 3);
        f.update_frequencies(&[0, 2, 0, 2, 0, 2, 0, 2]); // (0)->2 x4, (2)->0 x3
        f.update_frequencies(&[1, 2]); // (1)->2
        let uni = f.continuation_table();
        assert_eq!(uni.order(), 0);
        assert_eq!(uni.count(&[], 2), 2); // distinct histories {0, 1}
        assert_eq!(uni.count(&[], 0), 1); // history {2}
    }

    #[test]
    fn count_of_counts() {
        let mut f = TransitionCounts::new(1, 3);
        f.update_frequencies(&[0, 1, 0, 1, 0, 2]);
        // (0)->1: 2, (0)->2: 1, (1)->0: 2  → n1 = 1, n2 = 2
        let (n1, n2) = f.count_of_counts();
        assert_eq!((n1, n2), (1, 2));
    }

    #[test]
    #[should_panic(expected = "no lower order")]
    fn continuation_of_order0_panics() {
        TransitionCounts::new(0, 2).continuation_table();
    }
}
