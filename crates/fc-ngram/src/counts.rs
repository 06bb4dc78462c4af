//! Transition-frequency counting — the paper's Algorithm 2.
//!
//! `PROCESSTRACES` iterates over user traces, extracts the move sequence
//! of each (`GETMOVESEQUENCE`), and for every sub-sequence of length `n`
//! increments the counter of the move observed immediately after it
//! (`UPDATEFREQUENCIES`, line 14:
//! `F[sequence(v_{i-n}, …, v_{i-1}) → v_i] += 1`).
//!
//! # Layout
//!
//! A context is packed into one `u64`, its base-`vocab` positional
//! value with the newest token in the units place:
//! `key(c_1 … c_n) = Σ c_i · vocab^(n−i)`. Distinct contexts of one
//! length have distinct keys, dropping the oldest token is
//! `key mod vocab^(n−1)`, and prepending an older token `u` to a
//! context of length `k` is `key + u · vocab^k` — so no lookup hashes a
//! slice or owns a heap key. One open-addressed index maps a key to a
//! row number, and row `r` is `vocab` consecutive counts of one flat
//! arena (`PackedRows`).
//! Every order uses this one representation; [`TransitionCounts::new`]
//! rejects an `order` whose contexts would not fit the key.

/// Rows of `width` cells keyed by a packed context: an open-addressed
/// index (linear probing from a Fibonacci hash of the key, never more
/// than half full, nothing ever removed) over one flat arena, where
/// row `r` — rows are numbered in insertion order — is
/// `cells[r * width..(r + 1) * width]`.
///
/// The multiplicative hash is not collision-resistant. Keys are inserted
/// only while training, from traces the operator chose; serving probes
/// and never inserts, so a session cannot lengthen a probe run.
#[derive(Debug, Clone)]
pub(crate) struct PackedRows<T> {
    /// Power-of-two many `(key, row number)`; row `VACANT` is a free slot.
    slots: Vec<(u64, u32)>,
    /// `64 − log2(slots.len())`: the hash's top bits are the home slot.
    shift: u32,
    width: usize,
    cells: Vec<T>,
}

const VACANT: u32 = u32::MAX;

impl<T: Copy + Default> PackedRows<T> {
    fn new(width: usize) -> Self {
        Self {
            slots: vec![(0, VACANT); 8],
            shift: 64 - 3,
            width,
            cells: Vec::new(),
        }
    }

    /// The slot holding `key`, or the free one its probe run ends at.
    fn slot(&self, key: u64) -> usize {
        let mut i = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        while self.slots[i].1 != VACANT && self.slots[i].0 != key {
            i = (i + 1) & (self.slots.len() - 1);
        }
        i
    }

    /// The row stored for `key`.
    pub(crate) fn get(&self, key: u64) -> Option<&[T]> {
        let (_, row) = self.slots[self.slot(key)];
        (row != VACANT).then(|| &self.cells[row as usize * self.width..][..self.width])
    }

    /// The row of `key`, all `T::default()` when the key is new.
    fn get_or_insert(&mut self, key: u64) -> &mut [T] {
        let mut i = self.slot(key);
        if self.slots[i].1 == VACANT {
            let rows = self.cells.len() / self.width;
            assert!(rows < VACANT as usize, "fewer than 2^32 contexts");
            if (rows + 1) * 2 > self.slots.len() {
                let grown = vec![(0, VACANT); self.slots.len() * 2];
                self.shift -= 1;
                for slot in std::mem::replace(&mut self.slots, grown) {
                    if slot.1 != VACANT {
                        let to = self.slot(slot.0);
                        self.slots[to] = slot;
                    }
                }
                i = self.slot(key);
            }
            self.slots[i] = (key, rows as u32);
            self.cells
                .resize(self.cells.len() + self.width, T::default());
        }
        let row = self.slots[i].1 as usize;
        &mut self.cells[row * self.width..][..self.width]
    }

    /// Every `(key, row)`, in slot order.
    fn iter(&self) -> impl Iterator<Item = (u64, &[T])> + '_ {
        self.slots
            .iter()
            .filter(|slot| slot.1 != VACANT)
            .map(|&(key, row)| (key, &self.cells[row as usize * self.width..][..self.width]))
    }

    /// The same keys over rows of `width` cells, each appended by `f`
    /// from the key and the row it replaces.
    pub(crate) fn map_rows<U>(
        self,
        width: usize,
        mut f: impl FnMut(u64, &[T], &mut Vec<U>),
    ) -> PackedRows<U> {
        let mut keys = vec![0; self.cells.len() / self.width];
        for &(key, row) in self.slots.iter().filter(|slot| slot.1 != VACANT) {
            keys[row as usize] = key;
        }
        let mut cells = Vec::with_capacity(keys.len() * width);
        for (&key, row) in keys.iter().zip(self.cells.chunks_exact(self.width)) {
            f(key, row, &mut cells);
        }
        PackedRows {
            slots: self.slots,
            shift: self.shift,
            width,
            cells,
        }
    }
}

/// Raw transition frequencies for contexts of one fixed length.
///
/// Contexts are token sequences of exactly `order` tokens; counts are kept
/// densely per vocabulary token because ForeCache's vocabulary (nine
/// moves) is tiny. The module doc describes the packed layout.
#[derive(Debug, Clone)]
pub struct TransitionCounts {
    order: usize,
    vocab: usize,
    rows: PackedRows<u32>,
}

impl TransitionCounts {
    /// Creates an empty table for contexts of length `order` over a
    /// vocabulary of `vocab` tokens.
    ///
    /// # Panics
    /// Panics when `vocab` is 0 or does not fit `u16`, and when `order`
    /// tokens do not fit one `u64` key (`vocab^order` overflows: the
    /// longest order is 63 for two tokens, 20 for nine, 15 for sixteen).
    pub fn new(order: usize, vocab: usize) -> Self {
        assert!(vocab > 0, "vocabulary must be non-empty");
        assert!(vocab <= u16::MAX as usize + 1, "vocabulary too large");
        let keys = u32::try_from(order)
            .ok()
            .and_then(|n| (vocab as u64).checked_pow(n));
        assert!(
            keys.is_some(),
            "contexts of {order} tokens over a vocabulary of {vocab} do not fit a u64 key"
        );
        Self {
            order,
            vocab,
            rows: PackedRows::new(vocab),
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
    ///
    /// # Panics
    /// Panics when `seq` holds a token outside the vocabulary (its key
    /// would be another context's).
    pub fn update_frequencies(&mut self, seq: &[u16]) {
        assert!(
            seq.iter().all(|&t| (t as usize) < self.vocab),
            "token out of vocabulary"
        );
        let n = self.order;
        for i in n..seq.len() {
            let key = self.key_of(&seq[i - n..i]);
            self.rows.get_or_insert(key)[seq[i] as usize] += 1;
        }
    }

    /// The packed key of `context`, whose tokens the caller has checked.
    fn key_of(&self, context: &[u16]) -> u64 {
        context
            .iter()
            .fold(0, |key, &t| key * self.vocab as u64 + u64::from(t))
    }

    /// The per-token counts observed after `context`, or `None` for a
    /// context never seen — which one of another length, or holding a
    /// token outside the vocabulary, never was.
    pub fn row(&self, context: &[u16]) -> Option<&[u32]> {
        if context.len() != self.order || context.iter().any(|&t| t as usize >= self.vocab) {
            return None;
        }
        self.rows.get(self.key_of(context))
    }

    /// Context length of this table.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// The count rows by packed context.
    pub(crate) fn into_rows(self) -> PackedRows<u32> {
        self.rows
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
        // A key below this has no oldest token left to drop.
        let oldest_place = (self.vocab as u64).pow(self.order as u32 - 1);
        for (key, counts) in self.rows.iter() {
            let entry = lower.rows.get_or_insert(key % oldest_place);
            for (e, &c) in entry.iter_mut().zip(counts) {
                *e += u32::from(c > 0);
            }
        }
        lower
    }

    /// `(n1, n2)`: number of (context, token) pairs with count exactly 1
    /// and exactly 2 — the statistics behind the standard absolute
    /// discount estimate `D = n1 / (n1 + 2·n2)`.
    pub fn count_of_counts(&self) -> (usize, usize) {
        let n1 = self.rows.cells.iter().filter(|&&c| c == 1).count();
        let n2 = self.rows.cells.iter().filter(|&&c| c == 2).count();
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
        assert_eq!(f.row(&[0, 0, 0]), Some(&[0, 1][..]));
    }

    #[test]
    fn process_traces_accumulates_over_traces() {
        let t1 = [0u16, 0, 1, 0, 0, 1];
        let t2 = [0u16, 0, 1];
        let f = TransitionCounts::process_traces([t1.as_slice(), t2.as_slice()], 2, 2);
        // (0,0) → 1 occurs in t1 at i=2 and i=5, and t2 at i=2.
        assert_eq!(f.row(&[0, 0]), Some(&[0, 3][..]));
        // (0,1) → 0 occurs once (t1 i=3), (1,0) → 0 once (t1 i=4).
        assert_eq!(f.row(&[0, 1]), Some(&[1, 0][..]));
        assert_eq!(f.row(&[1, 0]), Some(&[1, 0][..]));
        assert_eq!(f.row(&[1, 1]), None);
    }

    #[test]
    fn short_traces_contribute_nothing() {
        let mut f = TransitionCounts::new(3, 2);
        f.update_frequencies(&[0, 1, 0]); // len == order → no transition
        assert_eq!(f.row(&[0, 1, 0]), None);
        assert_eq!(f.count_of_counts(), (0, 0));
    }

    #[test]
    fn distinct_continuations_counts_types_not_tokens() {
        let mut f = TransitionCounts::new(1, 3);
        f.update_frequencies(&[0, 1, 0, 1, 0, 2]);
        // context (0) followed by 1 (twice) and 2 (once) → 2 distinct.
        let row = f.row(&[0]).unwrap();
        assert_eq!(row_distinct(row), 2);
        assert_eq!(row_total(row), 3);
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
        // Token 2 after histories {0, 1}, token 0 after history {2}.
        assert_eq!(uni.row(&[]), Some(&[1, 0, 2][..]));
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

    #[test]
    #[should_panic(expected = "token out of vocabulary")]
    fn out_of_vocabulary_token_is_rejected_when_counted() {
        // Unchecked, (0, 3) over three tokens would pack to the key of (1, 0).
        TransitionCounts::new(2, 3).update_frequencies(&[0, 3, 1]);
    }

    #[test]
    fn row_of_a_foreign_context_is_none() {
        let mut f = TransitionCounts::new(2, 3);
        f.update_frequencies(&[1, 0, 2]);
        assert!(f.row(&[1, 0]).is_some());
        assert_eq!(f.row(&[0, 3]), None, "would alias (1, 0) unchecked");
        assert_eq!(f.row(&[0, 1, 0]), None, "wrong length");
        assert_eq!(f.row(&[0]), None, "wrong length");
    }

    /// Every context of a table larger than the index's first
    /// allocation, distinct counts per row, survives the index growing.
    #[test]
    fn rows_survive_index_growth() {
        let mut f = TransitionCounts::new(3, 9);
        let contexts: Vec<[u16; 3]> = (0..9u16)
            .flat_map(|a| (0..9).flat_map(move |b| (0..9).map(move |c| [a, b, c])))
            .collect();
        for (i, c) in contexts.iter().enumerate() {
            for _ in 0..=i % 5 {
                f.update_frequencies(&[c[0], c[1], c[2], (i % 9) as u16]);
            }
        }
        for (i, c) in contexts.iter().enumerate() {
            let mut want = [0u32; 9];
            want[i % 9] = (i % 5) as u32 + 1;
            assert_eq!(f.row(c), Some(&want[..]), "context {c:?}");
        }
    }

    /// The longest order whose contexts fit the key trains and answers;
    /// one more is rejected.
    #[test]
    fn longest_order_that_fits_the_key() {
        for (vocab, longest) in [(2usize, 63usize), (9, 20), (16, 15)] {
            let top = (vocab - 1) as u16;
            let mut seq = vec![top; longest];
            seq.push(0);
            let mut f = TransitionCounts::new(longest, vocab);
            f.update_frequencies(&seq);
            // The all-`top` context has the largest key there is.
            let mut want = vec![0u32; vocab];
            want[0] = 1;
            assert_eq!(f.row(&seq[..longest]), Some(&want[..]), "vocab {vocab}");
            seq[0] = 0;
            assert_eq!(f.row(&seq[..longest]), None, "vocab {vocab}");
            assert_eq!(f.continuation_table().order(), longest - 1);
            let rejected = std::panic::catch_unwind(|| TransitionCounts::new(longest + 1, vocab));
            assert!(rejected.is_err(), "order {} over {vocab}", longest + 1);
        }
    }
}
