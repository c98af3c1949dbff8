//! The 256-lane wide word of the bit-sliced kernel.
//!
//! The route-and-check kernel evaluates many sampling rounds per
//! operation: bit r of every intermediate value is one round's value, and
//! all combining operations are lanewise, so rounds never interact. At
//! Large scale [27072 hosts] the per-round context (switch-tier digests,
//! fault-tree collapse scratch) does not fit hot in cache, so the lane
//! width and the memory layout grow together: [`WideWord`] packs **256
//! rounds** into one value (4×`u64`, 32-byte aligned so a row of wide
//! words is one cache-line pair), and [`crate::BitMatrix`] rows are padded
//! to wide-word alignment so every row can be read wide without bounds
//! fix-ups.
//!
//! The type exposes the algebra the kernel needs — AND/OR/NOT, population
//! count, lane masks — and nothing else; it is the one batched width.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not};

/// 256 round lanes: 4 little-endian `u64` words, `words()[i]` holding
/// lanes `64·i .. 64·i + 64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(align(32))]
pub struct WideWord(pub [u64; 4]);

impl WideWord {
    /// Component `u64` words per wide word.
    pub const WORDS: usize = 4;
    /// Round lanes per wide word.
    pub const LANES: usize = 256;
    /// All lanes clear.
    pub const ZERO: WideWord = WideWord([0; 4]);
    /// All lanes set.
    pub const ONES: WideWord = WideWord([!0; 4]);

    /// A wide word with every component word equal to `w`.
    #[inline]
    pub const fn splat(w: u64) -> Self {
        WideWord([w; 4])
    }

    /// The component words, low lanes first.
    #[inline]
    pub const fn words(&self) -> &[u64; 4] {
        &self.0
    }

    /// The `i`-th component word (lanes `64·i .. 64·i + 64`).
    #[inline]
    pub const fn word(&self, i: usize) -> u64 {
        self.0[i]
    }

    /// Sets the `i`-th component word.
    #[inline]
    pub fn set_word(&mut self, i: usize, w: u64) {
        self.0[i] = w;
    }

    /// True if lane `lane` is set.
    #[inline]
    pub const fn bit(&self, lane: usize) -> bool {
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Number of set lanes.
    #[inline]
    pub fn count_ones(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// True if no lane is set.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// True if every lane is set.
    #[inline]
    pub fn is_ones(&self) -> bool {
        self.0 == [!0; 4]
    }

    /// Mask of the low `n` lanes (`n ≤ 256`): lane r set iff `r < n` —
    /// the tail mask of a chunk's last wide word.
    #[inline]
    pub fn lane_mask(n: usize) -> Self {
        debug_assert!(n <= Self::LANES, "a wide word holds at most 256 lanes");
        let mut out = [0u64; 4];
        for (i, w) in out.iter_mut().enumerate() {
            let lanes = n.saturating_sub(i * 64).min(64);
            *w = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
        }
        WideWord(out)
    }
}

impl Default for WideWord {
    fn default() -> Self {
        Self::ZERO
    }
}

impl BitAnd for WideWord {
    type Output = WideWord;
    #[inline]
    fn bitand(self, rhs: WideWord) -> WideWord {
        WideWord([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for WideWord {
    type Output = WideWord;
    #[inline]
    fn bitor(self, rhs: WideWord) -> WideWord {
        WideWord([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for WideWord {
    type Output = WideWord;
    #[inline]
    fn bitxor(self, rhs: WideWord) -> WideWord {
        WideWord([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl Not for WideWord {
    type Output = WideWord;
    #[inline]
    fn not(self) -> WideWord {
        WideWord([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl BitAndAssign for WideWord {
    #[inline]
    fn bitand_assign(&mut self, rhs: WideWord) {
        *self = *self & rhs;
    }
}

impl BitOrAssign for WideWord {
    #[inline]
    fn bitor_assign(&mut self, rhs: WideWord) {
        *self = *self | rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algebra_matches_per_word_ops() {
        let a = WideWord([0xF0F0, !0, 0, 0xDEAD_BEEF_0123_4567]);
        let b = WideWord([0x0FF0, 0x1234, !0, 0xFFFF_0000_FFFF_0000]);
        for i in 0..4 {
            assert_eq!((a & b).word(i), a.word(i) & b.word(i));
            assert_eq!((a | b).word(i), a.word(i) | b.word(i));
            assert_eq!((a ^ b).word(i), a.word(i) ^ b.word(i));
            assert_eq!((!a).word(i), !a.word(i));
        }
        let mut c = a;
        c &= b;
        assert_eq!(c, a & b);
        let mut d = a;
        d |= b;
        assert_eq!(d, a | b);
    }

    #[test]
    fn count_ones_sums_words() {
        assert_eq!(WideWord::ZERO.count_ones(), 0);
        assert_eq!(WideWord::ONES.count_ones(), 256);
        assert_eq!(WideWord([1, 3, 7, 15]).count_ones(), 1 + 2 + 3 + 4);
    }

    #[test]
    fn bit_reads_cross_word_lanes() {
        let mut w = WideWord::ZERO;
        for lane in [0usize, 63, 64, 127, 128, 200, 255] {
            w.set_word(lane / 64, w.word(lane / 64) | 1 << (lane % 64));
        }
        for lane in 0..256 {
            let expect = [0usize, 63, 64, 127, 128, 200, 255].contains(&lane);
            assert_eq!(w.bit(lane), expect, "lane {lane}");
        }
    }

    #[test]
    fn lane_mask_covers_boundaries() {
        assert_eq!(WideWord::lane_mask(0), WideWord::ZERO);
        assert_eq!(WideWord::lane_mask(256), WideWord::ONES);
        for n in [1usize, 63, 64, 65, 127, 128, 129, 255] {
            let m = WideWord::lane_mask(n);
            for lane in 0..256 {
                assert_eq!(m.bit(lane), lane < n, "n={n} lane={lane}");
            }
            assert_eq!(m.count_ones() as usize, n);
        }
    }

    #[test]
    fn zero_ones_predicates() {
        assert!(WideWord::ZERO.is_zero());
        assert!(!WideWord::ZERO.is_ones());
        assert!(WideWord::ONES.is_ones());
        assert!(!WideWord([0, 0, 1, 0]).is_zero());
        assert!(!WideWord([!0, !0, !0, !1]).is_ones());
    }

    #[test]
    fn splat_and_alignment() {
        assert_eq!(WideWord::splat(7), WideWord([7, 7, 7, 7]));
        assert_eq!(std::mem::align_of::<WideWord>(), 32);
        assert_eq!(std::mem::size_of::<WideWord>(), 32);
    }
}
