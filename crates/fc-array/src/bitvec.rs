//! A compact bit vector used for whole-cell validity (emptiness) masks.
//!
//! SciDB arrays distinguish *empty* cells from present cells; regridding a
//! region with empty cells must skip them, and tiles cut from the border of
//! a dataset may be partially empty. A `Vec<bool>` would use 8x the memory
//! of this packed representation, which matters when every tile in a
//! pyramid carries a mask.

/// Each byte value's eight bits as eight bytes (1 = set), low bit
/// first: the per-byte step of [`BitVec::expand_into`].
const BYTE_BITS: [[u8; 8]; 256] = {
    let mut table = [[0u8; 8]; 256];
    let mut v = 0;
    while v < 256 {
        let mut b = 0;
        while b < 8 {
            table[v][b] = (v >> b) as u8 & 1;
            b += 1;
        }
        v += 1;
    }
    table
};

/// A packed, growable bit vector.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Creates a bit vector of `len` bits, all set to `value`.
    pub(crate) fn filled(len: usize, value: bool) -> Self {
        let word = if value { u64::MAX } else { 0 };
        let nwords = len.div_ceil(64);
        let mut v = Self {
            words: vec![word; nwords],
            len,
        };
        v.clear_tail();
        v
    }

    /// Number of bits stored.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Returns the bit at `idx`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Sets the bit at `idx` to `value`.
    ///
    /// # Panics
    /// Panics if `idx >= len`.
    #[inline]
    pub(crate) fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let (w, b) = (idx / 64, idx % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Appends a bit.
    pub(crate) fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        let idx = self.len - 1;
        if value {
            self.words[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every bit is set.
    pub(crate) fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Whether every bit in `lo..hi` is set. Scans whole 64-bit words, so
    /// checking a row of a dense validity mask costs a handful of loads —
    /// the blocked `regrid` uses this to route fully-present input rows
    /// onto a branch-free accumulation path.
    ///
    /// # Panics
    /// Panics if `hi > len` or `lo > hi`.
    pub(crate) fn all_set_in(&self, lo: usize, hi: usize) -> bool {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of range");
        if lo == hi {
            return true;
        }
        let (wlo, blo) = (lo / 64, lo % 64);
        let (whi, bhi) = ((hi - 1) / 64, (hi - 1) % 64 + 1);
        let lo_mask = u64::MAX << blo;
        let hi_mask = u64::MAX >> (64 - bhi);
        if wlo == whi {
            let mask = lo_mask & hi_mask;
            return self.words[wlo] & mask == mask;
        }
        if self.words[wlo] & lo_mask != lo_mask {
            return false;
        }
        if self.words[whi] & hi_mask != hi_mask {
            return false;
        }
        self.words[wlo + 1..whi].iter().all(|&w| w == u64::MAX)
    }

    /// Sets every bit in `lo..hi` to `value` with whole-word masks —
    /// the bulk counterpart of [`BitVec::set`] used when copying
    /// validity rows between dense arrays.
    ///
    /// # Panics
    /// Panics if `hi > len` or `lo > hi`.
    pub(crate) fn set_range(&mut self, lo: usize, hi: usize, value: bool) {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of range");
        if lo == hi {
            return;
        }
        let (wlo, blo) = (lo / 64, lo % 64);
        let (whi, bhi) = ((hi - 1) / 64, (hi - 1) % 64 + 1);
        let lo_mask = u64::MAX << blo;
        let hi_mask = u64::MAX >> (64 - bhi);
        let apply = |word: &mut u64, mask: u64| {
            if value {
                *word |= mask;
            } else {
                *word &= !mask;
            }
        };
        if wlo == whi {
            apply(&mut self.words[wlo], lo_mask & hi_mask);
            return;
        }
        apply(&mut self.words[wlo], lo_mask);
        for word in &mut self.words[wlo + 1..whi] {
            apply(word, u64::MAX);
        }
        apply(&mut self.words[whi], hi_mask);
    }

    /// The word-wise AND of two vectors of equal length.
    pub(crate) fn and(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "bit vector lengths differ");
        let mut out = self.clone();
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        out
    }

    /// Iterates over the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Appends the bits to `out` as one byte each (1 = set) — the wire
    /// form of a validity mask. Expands a 64-bit word at a time, each of
    /// its bytes by one lookup in `BYTE_BITS`: eight 8-byte copies and
    /// one append per word, where shifting out one bit at a time pays a
    /// shift, a mask and a store per bit.
    pub fn expand_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.len);
        let mut left = self.len;
        let mut expanded = [0u8; 64];
        for &word in &self.words {
            let n = left.min(64);
            for (bits, byte) in expanded.chunks_exact_mut(8).zip(word.to_le_bytes()) {
                bits.copy_from_slice(&BYTE_BITS[usize::from(byte)]);
            }
            out.extend_from_slice(&expanded[..n]);
            left -= n;
        }
    }

    /// Approximate heap footprint in bytes (used by the simulated disk to
    /// charge transfer time).
    pub(crate) fn nbytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Zeroes bits beyond `len` in the final word so `count_ones` stays
    /// correct after `filled(len, true)`.
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut v = BitVec::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_true_has_all_ones_and_clean_tail() {
        let v = BitVec::filled(70, true);
        assert_eq!(v.len(), 70);
        assert_eq!(v.count_ones(), 70);
        assert!(v.all());
    }

    #[test]
    fn filled_false_is_all_zero() {
        let v = BitVec::filled(130, false);
        assert_eq!(v.count_ones(), 0);
        assert!(!v.all());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::filled(100, false);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(99, true);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(99));
        assert!(!v.get(1) && !v.get(65));
        assert_eq!(v.count_ones(), 4);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn set_range_matches_per_bit_sets() {
        for (lo, hi) in [(0, 130), (5, 5), (3, 64), (64, 128), (63, 66), (70, 129)] {
            let mut bulk = BitVec::filled(130, false);
            bulk.set_range(lo, hi, true);
            let mut single = BitVec::filled(130, false);
            for i in lo..hi {
                single.set(i, true);
            }
            assert_eq!(bulk, single, "set {lo}..{hi}");
            bulk.set_range(lo, hi, false);
            assert_eq!(bulk.count_ones(), 0, "clear {lo}..{hi}");
        }
        let mut v = BitVec::filled(100, true);
        v.set_range(10, 90, false);
        assert_eq!(v.count_ones(), 20);
    }

    #[test]
    fn all_set_in_matches_per_bit_scan() {
        let mut v = BitVec::filled(200, true);
        assert!(v.all_set_in(0, 200));
        assert!(v.all_set_in(63, 65));
        assert!(v.all_set_in(5, 5), "empty range is trivially set");
        v.set(100, false);
        assert!(!v.all_set_in(0, 200));
        assert!(!v.all_set_in(100, 101));
        assert!(v.all_set_in(0, 100));
        assert!(v.all_set_in(101, 200));
        // Single-word sub-ranges.
        assert!(v.all_set_in(64, 100));
        assert!(!v.all_set_in(96, 104));
        // Exhaustive cross-check against the per-bit definition.
        let mut w = BitVec::filled(130, true);
        w.set(0, false);
        w.set(77, false);
        w.set(129, false);
        for lo in 0..=130 {
            for hi in lo..=130 {
                let expect = (lo..hi).all(|i| w.get(i));
                assert_eq!(w.all_set_in(lo, hi), expect, "{lo}..{hi}");
            }
        }
    }

    #[test]
    fn expand_into_matches_per_bit_iteration() {
        let per_bit = |v: &BitVec| v.iter().map(u8::from).collect::<Vec<u8>>();
        for len in [0, 1, 7, 63, 64, 65, 127, 1000, 4096] {
            // A pattern with no period dividing 64, so a word expanded
            // at the wrong offset cannot look right.
            let v: BitVec = (0..len).map(|i| i % 7 < 3 || i % 64 == 63).collect();
            let mut out = vec![9, 9];
            v.expand_into(&mut out);
            assert_eq!(&out[..2], [9, 9], "appends, len {len}");
            assert_eq!(out[2..], per_bit(&v), "len {len}");
        }
        // A ragged tail after bulk writes: bits past `len` in the last
        // word never reach the output.
        let mut v = BitVec::filled(130, false);
        v.set_range(60, 130, true);
        v.set_range(100, 129, false);
        let mut out = Vec::new();
        v.expand_into(&mut out);
        assert_eq!(out, per_bit(&v));
        assert_eq!(out.len(), 130);
        assert_eq!(out.iter().map(|&b| b as usize).sum::<usize>(), 41);
    }

    #[test]
    fn push_and_collect() {
        let v: BitVec = [true, false, true, true].into_iter().collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![true, false, true, true]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::filled(8, false).get(8);
    }

    #[test]
    fn nbytes_tracks_words() {
        assert_eq!(BitVec::filled(64, true).nbytes(), 8);
        assert_eq!(BitVec::filled(65, true).nbytes(), 16);
        assert_eq!(BitVec::new().nbytes(), 0);
    }
}
