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
//! Every row is read through an index, component → position. A matrix made
//! with [`BitMatrix::new`] holds every component's row at its own position
//! (the identity index): Monte-Carlo, ground truth and every other
//! full-width caller. One made with [`BitMatrix::packed`] holds none: a
//! component gets the next free position when its row is first
//! [placed](BitMatrix::place), so rows are packed in the order they are
//! materialised, and a matrix holding a few hundred of 30K rows writes a
//! few hundred rows' worth of memory. A component without a row reads as
//! failed in every round: its index names the poison row at the front of
//! the store, which is never handed out.
//!
//! At the paper's largest setting (≈30K components × 10⁴ rounds) a full
//! matrix is ~37 MB; assessment code typically works in *blocks* of rounds
//! (one extended-dagger macro-cycle at a time), which keeps the working
//! set in cache. Both layouts are served by the same structure since rows
//! are independent.

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
    /// Position of each component's row in `bits`. In a packed matrix, 0 —
    /// the poison row — for a component without one.
    index: Vec<u32>,
    /// Packed: the component at each held position, in placement order.
    /// Empty for a full-width matrix.
    order: Vec<u32>,
    /// First position that holds a row: 1 in a packed matrix (position 0
    /// is the poison row), 0 in a full-width one.
    first: usize,
    /// The most rows ever held at once: positions past them were never
    /// written.
    high_water: usize,
}

impl BitMatrix {
    /// An all-alive matrix of the given shape, every component's row at its
    /// own position. Rows are padded to wide-word alignment so each row
    /// holds a whole number of [`WideWord`]s.
    pub fn new(components: usize, rounds: usize) -> Self {
        let words_per_row = Self::row_width(rounds);
        BitMatrix {
            components,
            rounds,
            words_per_row,
            bits: vec![0; components * words_per_row],
            index: (0..Self::position(components)).collect(),
            order: Vec::new(),
            first: 0,
            high_water: components,
        }
    }

    /// A matrix with room for every component's row and none placed: each
    /// component reads as failed in every round until [`BitMatrix::place`]
    /// gives it a row. The store and the index are reserved once, zeroed
    /// by the allocator, and written only where rows are placed — the store
    /// front to back, right after the poison row.
    pub fn packed(components: usize, rounds: usize) -> Self {
        let words_per_row = Self::row_width(rounds);
        assert!(u32::try_from(components).is_ok(), "row positions fit in 32 bits");
        let mut m = BitMatrix {
            components,
            rounds,
            words_per_row,
            bits: vec![0; (components + 1) * words_per_row],
            index: vec![0; components],
            order: Vec::with_capacity(components),
            first: 1,
            high_water: 0,
        };
        for w in 0..words_per_row {
            m.bits[w] = m.word_mask(w);
        }
        m
    }

    fn row_width(rounds: usize) -> usize {
        rounds.div_ceil(64).next_multiple_of(WideWord::WORDS)
    }

    fn position(p: usize) -> u32 {
        u32::try_from(p).expect("row positions fit in 32 bits")
    }

    /// Word offset of component `c`'s row.
    #[inline]
    fn start(&self, c: usize) -> usize {
        self.index[c] as usize * self.words_per_row
    }

    /// Word offset of component `c`'s row, to write it: a component without
    /// a row has nothing to write to.
    #[inline]
    fn start_mut(&self, c: usize) -> usize {
        assert!(self.holds(c), "component {c} has no row to write");
        self.start(c)
    }

    /// Word range of the rows held.
    fn held_words(&self) -> std::ops::Range<usize> {
        self.first * self.words_per_row..(self.first + self.rows_held()) * self.words_per_row
    }

    /// True if component `c` has a row — always, in a full-width matrix.
    #[inline]
    pub fn holds(&self, c: usize) -> bool {
        self.index[c] as usize >= self.first
    }

    /// Gives component `c`, which has no row, the next free position and
    /// returns that row for the caller to fill. The row holds whatever was
    /// last written there: the caller overwrites every word.
    ///
    /// # Panics
    /// Panics on a full-width matrix, or when `c` already has a row.
    pub fn place(&mut self, c: usize) -> &mut [u64] {
        assert!(self.first == 1 && !self.holds(c), "component {c} cannot be placed");
        let position = self.first + self.order.len();
        self.order.push(Self::position(c));
        self.index[c] = Self::position(position);
        self.high_water = self.high_water.max(self.order.len());
        let start = position * self.words_per_row;
        &mut self.bits[start..start + self.words_per_row]
    }

    /// Takes every placed row away: each component reads as failed again.
    /// Only the index entries those rows used are touched, and the store
    /// is kept for the rows placed next.
    ///
    /// # Panics
    /// Panics on a full-width matrix.
    pub fn release(&mut self) {
        assert!(self.first == 1, "a full-width matrix keeps its rows");
        for &c in &self.order {
            self.index[c as usize] = 0;
        }
        self.order.clear();
    }

    /// Rows held: every component's in a full-width matrix; in a packed
    /// one, the rows placed since the last [`BitMatrix::release`].
    #[inline]
    pub fn rows_held(&self) -> usize {
        if self.first == 0 {
            self.components
        } else {
            self.order.len()
        }
    }

    /// Rows this matrix has written: the most it has held at once, plus a
    /// packed matrix's poison row. The rest of the store is untouched.
    pub fn rows_written(&self) -> usize {
        self.first + self.high_water
    }

    /// Bytes this matrix has written: [`BitMatrix::rows_written`], its
    /// index and, packed, the placement order of the rows it has held.
    pub fn written_bytes(&self) -> usize {
        let order = self.first * self.high_water;
        self.rows_written() * self.words_per_row * 8 + 4 * (self.index.len() + order)
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

    /// Clears every bit of every row held (those components alive in all
    /// rounds).
    pub fn clear(&mut self) {
        let held = self.held_words();
        self.bits[held].fill(0);
    }

    /// Marks component `c` failed in `round`.
    #[inline]
    pub fn set(&mut self, c: usize, round: usize) {
        debug_assert!(c < self.components && round < self.rounds);
        let i = self.start_mut(c) + round / 64;
        self.bits[i] |= 1u64 << (round % 64);
    }

    /// Clears component `c`'s failure in `round` (marks it alive).
    #[inline]
    pub fn unset(&mut self, c: usize, round: usize) {
        debug_assert!(c < self.components && round < self.rounds);
        let i = self.start_mut(c) + round / 64;
        self.bits[i] &= !(1u64 << (round % 64));
    }

    /// True if component `c` failed in `round`.
    #[inline]
    pub fn get(&self, c: usize, round: usize) -> bool {
        debug_assert!(c < self.components && round < self.rounds);
        (self.bits[self.start(c) + round / 64] >> (round % 64)) & 1 == 1
    }

    /// Borrowed view of component `c`'s row.
    #[inline]
    pub fn row(&self, c: usize) -> BitRow<'_> {
        BitRow { words: self.row_words(c), len: self.rounds }
    }

    /// Component `c`'s row as raw words, alignment padding included.
    #[inline]
    pub fn row_words(&self, c: usize) -> &[u64] {
        let start = self.start(c);
        &self.bits[start..start + self.words_per_row]
    }

    /// Mutable [`BitMatrix::row_words`], for writers that fill one row at
    /// a time. Writers keep bits beyond the round count zero.
    ///
    /// # Panics
    /// Panics if `c` has no row ([`BitMatrix::place`] gives it one).
    #[inline]
    pub fn row_words_mut(&mut self, c: usize) -> &mut [u64] {
        let start = self.start_mut(c);
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
        let i = self.start_mut(c) + w;
        self.bits[i] = value & self.word_mask(w);
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
        let start = self.start(c) + ww * WideWord::WORDS;
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
        let start = self.start_mut(c) + ww * WideWord::WORDS;
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

    /// OR of every held row's wide word `ww`: lane r is set iff round
    /// `256·ww + r` exists and *some* component with a row failed in it.
    /// This is the batched route-and-check screen — a clear lane proves the
    /// round's verdict equals the all-alive baseline for a reader of held
    /// rows only, so the round can skip routing entirely. The sweep stops
    /// once no round of the word is clean: there is nothing left to clear.
    pub fn any_failed_wide(&self, ww: usize) -> WideWord {
        debug_assert!(ww < self.wide_words_per_row());
        let full = self.wide_mask(ww);
        let mut clean = full.0;
        let mut i = self.first * self.words_per_row + ww * WideWord::WORDS;
        for _ in 0..self.rows_held() {
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

    /// Total failed (component, round) cells of the rows held — handy for
    /// sanity checks.
    pub fn total_failures(&self) -> usize {
        self.bits[self.held_words()].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bytes reserved for the bit store; a packed matrix writes only
    /// [`BitMatrix::written_bytes`] of it.
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

    #[test]
    fn a_packed_matrix_reads_all_failed_until_placed() {
        let mut m = BitMatrix::packed(5, 300);
        assert_eq!((m.rows_held(), m.rows_written()), (0, 1), "the poison row only");
        for c in 0..5 {
            assert!(!m.holds(c));
            assert_eq!(m.row(c).count_ones(), 300, "component {c} reads all-failed");
            assert_eq!(m.row_words(c)[5..], [0, 0, 0], "past the rounds, the poison is clear");
        }
        assert_eq!(m.any_failed_wide(0), WideWord::ZERO, "no row held, nothing to screen");
        assert_eq!(m.total_failures(), 0);

        m.place(3).fill(0);
        m.set(3, 7);
        m.place(1).copy_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
        assert!(m.holds(3) && m.holds(1) && !m.holds(0));
        assert_eq!((m.row(3).count_ones(), m.row(1).count_ones()), (1, 1));
        assert!(m.get(3, 7) && m.get(1, 0) && m.get(0, 150));
        assert_eq!(m.any_failed_wide(0), WideWord([1 | 1 << 7, 0, 0, 0]), "rounds 0 and 7");
        assert_eq!(m.total_failures(), 2);
        assert_eq!((m.rows_held(), m.rows_written()), (2, 3));
        assert_eq!(m.written_bytes(), 3 * 8 * 8 + 4 * (5 + 2));

        // Released rows read all-failed again; what was written stays
        // counted, and the next rows reuse the same positions.
        m.release();
        assert_eq!(m.rows_held(), 0);
        assert!((0..5).all(|c| !m.holds(c) && m.row(c).count_ones() == 300));
        m.place(4).fill(0);
        assert_eq!((m.rows_held(), m.rows_written()), (1, 3));
        assert_eq!(m.row(4).count_ones(), 0);
        assert_eq!(m.row(3).count_ones(), 300);
    }

    #[test]
    fn a_full_width_matrix_holds_every_row() {
        let m = BitMatrix::new(3, 100);
        assert!((0..3).all(|c| m.holds(c)));
        assert_eq!((m.rows_held(), m.rows_written()), (3, 3));
        assert_eq!(m.written_bytes(), m.bytes() + 4 * 3);
    }

    #[test]
    #[should_panic(expected = "has no row")]
    fn a_row_never_placed_cannot_be_written() {
        BitMatrix::packed(3, 64).set(1, 0);
    }

    /// Once every round of the wide word is dirty the sweep may stop: rows
    /// below a saturating prefix change nothing a caller can see. Neither
    /// does a row with bits beyond the round count (a row poisoned with
    /// `!0`, as the routers' cone-contract test poisons its matrices).
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
