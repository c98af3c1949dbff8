//! Dense failure-state storage.
//!
//! The failure-state table of §3.2.1 (Table 1) — one row per component, one
//! column per sampling round — is stored as a bit matrix: a set bit means
//! *failed*. Rows are padded to [`WideWord`] alignment (4×u64, 256 rounds)
//! so per-round reads, per-row population counts, and 256-lane wide reads
//! are all branch-free; padding words are invisible to every accessor and
//! are kept zero by all writers (`set_word`/`set_wide_word` mask, bit
//! writers bounds-check against `rounds`).
//!
//! At the paper's largest setting (≈30K components × 10⁴ rounds) this is
//! ~37 MB; assessment code typically works in *blocks* of rounds (one
//! extended-dagger macro-cycle at a time), which keeps the working set in
//! cache. Both layouts are served by the same structure since rows are
//! independent.

use crate::wide::WideWord;

/// A borrowed view of one component's failure states across rounds.
#[derive(Clone, Copy, Debug)]
pub struct BitRow<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> BitRow<'a> {
    /// True if the component failed in `round`.
    #[inline]
    pub fn get(&self, round: usize) -> bool {
        debug_assert!(round < self.len);
        (self.words[round / 64] >> (round % 64)) & 1 == 1
    }

    /// Number of rounds.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rounds.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of failed rounds.
    pub fn count_ones(&self) -> usize {
        // Trailing bits beyond `len` are kept zero by all writers.
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the failure flag of each round.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |r| self.get(r))
    }
}

/// Components × rounds failure-state matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct BitMatrix {
    components: usize,
    rounds: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An all-alive matrix of the given shape. Rows are padded to wide-word
    /// alignment so each row holds a whole number of [`WideWord`]s.
    pub fn new(components: usize, rounds: usize) -> Self {
        let words_per_row = rounds.div_ceil(64).next_multiple_of(WideWord::WORDS);
        BitMatrix { components, rounds, words_per_row, bits: vec![0; components * words_per_row] }
    }

    /// Number of component rows.
    #[inline]
    pub fn components(&self) -> usize {
        self.components
    }

    /// Number of round columns.
    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Clears every bit (all components alive in all rounds).
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Marks component `c` failed in `round`.
    #[inline]
    pub fn set(&mut self, c: usize, round: usize) {
        debug_assert!(c < self.components && round < self.rounds);
        self.bits[c * self.words_per_row + round / 64] |= 1u64 << (round % 64);
    }

    /// Clears component `c`'s failure in `round` (marks it alive).
    #[inline]
    pub fn unset(&mut self, c: usize, round: usize) {
        debug_assert!(c < self.components && round < self.rounds);
        self.bits[c * self.words_per_row + round / 64] &= !(1u64 << (round % 64));
    }

    /// True if component `c` failed in `round`.
    #[inline]
    pub fn get(&self, c: usize, round: usize) -> bool {
        debug_assert!(c < self.components && round < self.rounds);
        (self.bits[c * self.words_per_row + round / 64] >> (round % 64)) & 1 == 1
    }

    /// Borrowed view of component `c`'s row.
    #[inline]
    pub fn row(&self, c: usize) -> BitRow<'_> {
        BitRow { words: self.row_words(c), len: self.rounds }
    }

    /// Component `c`'s row as raw words, alignment padding included.
    #[inline]
    pub fn row_words(&self, c: usize) -> &[u64] {
        let start = c * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }

    /// Mutable [`BitMatrix::row_words`], for writers that fill one row at
    /// a time. Writers keep bits beyond the round count zero.
    #[inline]
    pub fn row_words_mut(&mut self, c: usize) -> &mut [u64] {
        let start = c * self.words_per_row;
        &mut self.bits[start..start + self.words_per_row]
    }

    /// Number of 64-bit words per component row.
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Writes the `w`-th 64-round word of component `c`'s row. Bits beyond
    /// the round count are masked off so population counts stay exact —
    /// this includes alignment-padding words, where every bit is masked,
    /// so blanket row writes (e.g. fault injection) stay safe.
    #[inline]
    pub fn set_word(&mut self, c: usize, w: usize, value: u64) {
        debug_assert!(c < self.components && w < self.words_per_row);
        self.bits[c * self.words_per_row + w] = value & self.word_mask(w);
    }

    /// Number of valid rounds covered by word `w` (64 for every word but
    /// the tail, where it is `rounds % 64`; 0 for alignment-padding words).
    #[inline]
    pub fn rounds_in_word(&self, w: usize) -> usize {
        debug_assert!(w < self.words_per_row || (self.words_per_row == 0 && w == 0));
        self.rounds.saturating_sub(w * 64).min(64)
    }

    /// Mask of the valid round bits of word `w`: bit r is set iff round
    /// `64·w + r` exists. All-ones except for the tail word, and all-zeros
    /// for alignment-padding words.
    #[inline]
    pub fn word_mask(&self, w: usize) -> u64 {
        let n = self.rounds_in_word(w);
        if n == 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }

    /// Number of [`WideWord`]s per component row.
    #[inline]
    pub fn wide_words_per_row(&self) -> usize {
        self.words_per_row / WideWord::WORDS
    }

    /// Reads the `ww`-th 256-round wide word of component `c`'s row.
    #[inline]
    pub fn wide_word(&self, c: usize, ww: usize) -> WideWord {
        debug_assert!(c < self.components && ww < self.wide_words_per_row());
        let start = c * self.words_per_row + ww * WideWord::WORDS;
        WideWord([
            self.bits[start],
            self.bits[start + 1],
            self.bits[start + 2],
            self.bits[start + 3],
        ])
    }

    /// Writes the `ww`-th 256-round wide word of component `c`'s row. Like
    /// [`BitMatrix::set_word`], lanes beyond the round count are masked off.
    #[inline]
    pub fn set_wide_word(&mut self, c: usize, ww: usize, value: WideWord) {
        debug_assert!(c < self.components && ww < self.wide_words_per_row());
        let start = c * self.words_per_row + ww * WideWord::WORDS;
        let masked = value & self.wide_mask(ww);
        self.bits[start] = masked.word(0);
        self.bits[start + 1] = masked.word(1);
        self.bits[start + 2] = masked.word(2);
        self.bits[start + 3] = masked.word(3);
    }

    /// Number of valid rounds covered by wide word `ww` (256 for every wide
    /// word but the tail, where it is `rounds % 256`).
    #[inline]
    pub fn rounds_in_wide(&self, ww: usize) -> usize {
        self.rounds.saturating_sub(ww * WideWord::LANES).min(WideWord::LANES)
    }

    /// Mask of the valid round lanes of wide word `ww`: lane r is set iff
    /// round `256·ww + r` exists.
    #[inline]
    pub fn wide_mask(&self, ww: usize) -> WideWord {
        WideWord::lane_mask(self.rounds_in_wide(ww))
    }

    /// OR of every component's wide word `ww`: lane r is set iff round
    /// `256·ww + r` exists and *some* component failed in it. This is the
    /// batched route-and-check screen — a clear lane proves the round's
    /// verdict equals the all-alive baseline, so the round can skip routing
    /// entirely. The sweep stops once no round of the word is clean:
    /// there is nothing left to clear.
    pub fn any_failed_wide(&self, ww: usize) -> WideWord {
        debug_assert!(ww < self.wide_words_per_row());
        let full = self.wide_mask(ww);
        let mut clean = full.0;
        let mut i = ww * WideWord::WORDS;
        for _ in 0..self.components {
            clean[0] &= !self.bits[i];
            clean[1] &= !self.bits[i + 1];
            clean[2] &= !self.bits[i + 2];
            clean[3] &= !self.bits[i + 3];
            // (An array compare here spills `clean` to the stack every row.)
            if clean[0] | clean[1] | clean[2] | clean[3] == 0 {
                break;
            }
            i += self.words_per_row;
        }
        full & !WideWord(clean)
    }

    /// Total failed (component, round) cells — handy for sanity checks.
    pub fn total_failures(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Memory footprint of the bit store in bytes.
    pub fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::new(3, 100);
        m.set(0, 0);
        m.set(1, 63);
        m.set(1, 64);
        m.set(2, 99);
        assert!(m.get(0, 0));
        assert!(m.get(1, 63));
        assert!(m.get(1, 64));
        assert!(m.get(2, 99));
        assert!(!m.get(0, 1));
        assert!(!m.get(2, 98));
        assert_eq!(m.total_failures(), 4);
    }

    #[test]
    fn rows_are_independent() {
        let mut m = BitMatrix::new(2, 64);
        m.set(0, 5);
        assert!(!m.get(1, 5));
        assert_eq!(m.row(0).count_ones(), 1);
        assert_eq!(m.row(1).count_ones(), 0);
    }

    #[test]
    fn row_iteration_matches_get() {
        let mut m = BitMatrix::new(1, 130);
        for r in (0..130).step_by(7) {
            m.set(0, r);
        }
        let row = m.row(0);
        assert_eq!(row.len(), 130);
        for (r, failed) in row.iter().enumerate() {
            assert_eq!(failed, r % 7 == 0, "round {r}");
        }
        assert_eq!(row.count_ones(), 130usize.div_ceil(7));
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = BitMatrix::new(4, 70);
        for c in 0..4 {
            m.set(c, c * 10);
        }
        m.clear();
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    fn zero_rounds_matrix_is_legal() {
        let m = BitMatrix::new(5, 0);
        assert_eq!(m.rounds(), 0);
        assert!(m.row(2).is_empty());
    }

    #[test]
    fn bytes_accounts_padding() {
        let m = BitMatrix::new(2, 65);
        // 65 bits -> 2 words, padded to one wide word (4), 2 rows -> 64 bytes.
        assert_eq!(m.bytes(), 64);
        assert_eq!(m.words_per_row(), 4);
        assert_eq!(m.wide_words_per_row(), 1);
        let exact = BitMatrix::new(3, 256);
        assert_eq!(exact.words_per_row(), 4);
        assert_eq!(exact.bytes(), 3 * 4 * 8);
    }

    #[test]
    fn padding_words_are_inert() {
        // 65 rounds: words 2 and 3 of the row are pure alignment padding.
        let mut m = BitMatrix::new(1, 65);
        assert_eq!(m.rounds_in_word(0), 64);
        assert_eq!(m.rounds_in_word(1), 1);
        assert_eq!(m.rounds_in_word(2), 0);
        assert_eq!(m.rounds_in_word(3), 0);
        assert_eq!(m.word_mask(1), 1);
        assert_eq!(m.word_mask(2), 0);
        // Blanket writes across the whole row (the fault-injection pattern)
        // leave tail and padding bits clear.
        for w in 0..m.words_per_row() {
            m.set_word(0, w, u64::MAX);
        }
        assert_eq!(m.row_words(0), [u64::MAX, 1, 0, 0]);
        assert_eq!(m.total_failures(), 65);
        assert_eq!(m.row(0).count_ones(), 65);
    }

    #[test]
    fn word_mask_and_rounds_in_word() {
        let m = BitMatrix::new(1, 130);
        assert_eq!(m.rounds_in_word(0), 64);
        assert_eq!(m.rounds_in_word(1), 64);
        assert_eq!(m.rounds_in_word(2), 2);
        assert_eq!(m.word_mask(0), !0);
        assert_eq!(m.word_mask(2), 0b11);
        let exact = BitMatrix::new(1, 64);
        assert_eq!(exact.rounds_in_word(0), 64);
        assert_eq!(exact.word_mask(0), !0);
    }

    #[test]
    fn wide_words_mirror_narrow_words_at_lane_boundaries() {
        // 255/256/257 rounds: the wide analogue of PR 2's 63/64/65 coverage.
        for rounds in [255usize, 256, 257] {
            let mut m = BitMatrix::new(2, rounds);
            for r in (0..rounds).step_by(13) {
                m.set(0, r);
                if r % 2 == 0 {
                    m.set(1, r);
                }
            }
            assert_eq!(m.wide_words_per_row(), rounds.div_ceil(256));
            for ww in 0..m.wide_words_per_row() {
                let n = m.rounds_in_wide(ww);
                assert_eq!(n, (rounds - ww * 256).min(256));
                assert_eq!(m.wide_mask(ww), WideWord::lane_mask(n));
                for c in 0..2 {
                    let wide = m.wide_word(c, ww);
                    for i in 0..WideWord::WORDS {
                        let w = ww * WideWord::WORDS + i;
                        assert_eq!(wide.word(i), m.row_words(c)[w], "c={c} ww={ww} i={i}");
                    }
                }
                assert_eq!(m.any_failed_wide(ww), m.wide_word(0, ww) | m.wide_word(1, ww));
            }
            // count_ones over rows ignores padding lanes.
            let expect0 = (0..rounds).step_by(13).count();
            assert_eq!(m.row(0).count_ones(), expect0, "rounds={rounds}");
        }
    }

    #[test]
    fn set_wide_word_masks_tail_lanes() {
        for rounds in [255usize, 256, 257] {
            let mut m = BitMatrix::new(1, rounds);
            for ww in 0..m.wide_words_per_row() {
                m.set_wide_word(0, ww, WideWord::ONES);
            }
            assert_eq!(m.total_failures(), rounds, "rounds={rounds}");
            // Round-trip: reads return exactly what survived the mask.
            for ww in 0..m.wide_words_per_row() {
                assert_eq!(m.wide_word(0, ww), m.wide_mask(ww));
            }
        }
    }

    #[test]
    fn any_failed_wide_is_column_or() {
        let mut m = BitMatrix::new(3, 300);
        assert_eq!(m.any_failed_wide(0), WideWord::ZERO);
        assert_eq!(m.any_failed_wide(1), WideWord::ZERO);
        m.set(0, 3);
        m.set(1, 3);
        m.set(1, 70);
        m.set(2, 270);
        for r in 0..300 {
            let expect = (0..3).any(|c| m.get(c, r));
            assert_eq!(m.any_failed_wide(r / 256).bit(r % 256), expect, "round {r}");
        }
    }

    /// Once every round of the wide word is dirty the sweep may stop: rows
    /// below a saturating prefix change nothing a caller can see. Neither
    /// does a row with bits beyond the round count (a poisoned table row).
    #[test]
    fn any_failed_wide_saturates() {
        for rounds in [1usize, 255, 256, 257, 300] {
            let mut m = BitMatrix::new(4, rounds);
            for ww in 0..m.wide_words_per_row() {
                m.set_wide_word(0, ww, WideWord::lane_mask(100));
                m.set_wide_word(1, ww, !WideWord::lane_mask(100));
                assert_eq!(m.any_failed_wide(ww), m.wide_mask(ww), "rounds={rounds}");
            }
            let mut poisoned = BitMatrix::new(4, rounds);
            poisoned.row_words_mut(2).fill(!0);
            for ww in 0..poisoned.wide_words_per_row() {
                assert_eq!(poisoned.any_failed_wide(ww), poisoned.wide_mask(ww), "rounds={rounds}");
            }
        }
    }
}
