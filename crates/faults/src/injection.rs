//! FIFL-style fault injection (§2.1 cites fault injection as one way to
//! obtain software failure behaviour; we also use it for deterministic
//! what-if analyses and tests).
//!
//! An injector post-processes a sampled state matrix: chosen components are
//! forced failed (in all rounds or a round range) or forced alive. Applied
//! *before* fault-tree collapsing, so forcing a power supply down exercises
//! the full correlated-failure path — e.g. "what happens to this deployment
//! plan if power supply 3 browns out?"

use recloud_sampling::BitMatrix;
use recloud_topology::ComponentId;
use std::ops::Range;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Injection {
    FailAll(ComponentId),
    FailRange(ComponentId, Range<usize>),
    ReviveAll(ComponentId),
}

/// A reusable list of forced component states.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultInjector {
    injections: Vec<Injection>,
}

impl FaultInjector {
    /// No injections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forces a component failed in every round.
    pub fn fail(&mut self, c: ComponentId) -> &mut Self {
        self.injections.push(Injection::FailAll(c));
        self
    }

    /// Forces a component failed in a round range (half-open).
    pub fn fail_rounds(&mut self, c: ComponentId, rounds: Range<usize>) -> &mut Self {
        self.injections.push(Injection::FailRange(c, rounds));
        self
    }

    /// Forces a component alive in every round (masking sampled failures).
    pub fn revive(&mut self, c: ComponentId) -> &mut Self {
        self.injections.push(Injection::ReviveAll(c));
        self
    }

    /// Number of registered injections.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Applies all injections to a raw sampled matrix, in registration
    /// order (later injections win on conflict).
    pub fn apply(&self, matrix: &mut BitMatrix) {
        let rounds = matrix.rounds();
        for inj in &self.injections {
            inj.apply(matrix.row_words_mut(inj.component().index()), rounds);
        }
    }

    /// Applies the injections that target event `c` to that event's raw
    /// sampled row alone (`rounds` bits of `row`), in registration order.
    /// Injections on different rows commute, so applying this to every row
    /// equals [`FaultInjector::apply`] on the whole matrix.
    pub fn apply_row(&self, c: ComponentId, row: &mut [u64], rounds: usize) {
        for inj in self.injections.iter().filter(|inj| inj.component() == c) {
            inj.apply(row, rounds);
        }
    }
}

impl Injection {
    fn component(&self) -> ComponentId {
        match self {
            Injection::FailAll(c) | Injection::FailRange(c, _) | Injection::ReviveAll(c) => *c,
        }
    }

    /// Forces the first `rounds` bits of one row; bits beyond stay zero.
    fn apply(&self, row: &mut [u64], rounds: usize) {
        match self {
            Injection::FailAll(_) => {
                for (w, word) in row.iter_mut().enumerate() {
                    let n = rounds.saturating_sub(w * 64).min(64);
                    *word = if n == 64 { !0 } else { (1u64 << n) - 1 };
                }
            }
            Injection::FailRange(_, range) => {
                for r in range.start..range.end.min(rounds) {
                    row[r / 64] |= 1u64 << (r % 64);
                }
            }
            Injection::ReviveAll(_) => row.fill(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_all_sets_every_round() {
        let mut m = BitMatrix::new(2, 130);
        let mut inj = FaultInjector::new();
        inj.fail(ComponentId(1));
        inj.apply(&mut m);
        assert_eq!(m.row(1).count_ones(), 130);
        assert_eq!(m.row(0).count_ones(), 0);
    }

    #[test]
    fn fail_range_is_half_open_and_clamped() {
        let mut m = BitMatrix::new(1, 10);
        let mut inj = FaultInjector::new();
        inj.fail_rounds(ComponentId(0), 3..7);
        inj.fail_rounds(ComponentId(0), 9..25);
        inj.apply(&mut m);
        let failed: Vec<usize> = (0..10).filter(|&r| m.get(0, r)).collect();
        assert_eq!(failed, vec![3, 4, 5, 6, 9]);
    }

    #[test]
    fn revive_masks_previous_failures() {
        let mut m = BitMatrix::new(1, 64);
        m.set(0, 5);
        m.set(0, 50);
        let mut inj = FaultInjector::new();
        inj.revive(ComponentId(0));
        inj.apply(&mut m);
        assert_eq!(m.total_failures(), 0);
    }

    #[test]
    fn later_injection_wins() {
        let mut m = BitMatrix::new(1, 16);
        let mut inj = FaultInjector::new();
        inj.fail(ComponentId(0)).revive(ComponentId(0));
        inj.apply(&mut m);
        assert_eq!(m.total_failures(), 0);

        let mut m2 = BitMatrix::new(1, 16);
        let mut inj2 = FaultInjector::new();
        inj2.revive(ComponentId(0)).fail(ComponentId(0));
        inj2.apply(&mut m2);
        assert_eq!(m2.total_failures(), 16);
    }

    #[test]
    fn row_application_equals_matrix_application() {
        let mut inj = FaultInjector::new();
        inj.fail(ComponentId(0)).revive(ComponentId(1)).fail_rounds(ComponentId(1), 60..70);
        inj.fail_rounds(ComponentId(2), 5..400).revive(ComponentId(3)).fail(ComponentId(3));
        let mut whole = BitMatrix::new(5, 130);
        whole.set(1, 3);
        whole.set(4, 7);
        let mut by_row = whole.clone();
        inj.apply(&mut whole);
        for c in 0..5 {
            inj.apply_row(ComponentId(c as u32), by_row.row_words_mut(c), 130);
        }
        assert_eq!(whole, by_row);
        assert_eq!(whole.row(0).count_ones(), 130);
        assert_eq!(whole.row(2).count_ones(), 125);
        assert_eq!(whole.row(4).count_ones(), 1, "untargeted rows are left alone");
    }

    #[test]
    fn word_writes_respect_round_boundary() {
        // 70 rounds: the last word has 6 valid bits; fail-all must not
        // corrupt counts past the boundary.
        let mut m = BitMatrix::new(1, 70);
        let mut inj = FaultInjector::new();
        inj.fail(ComponentId(0));
        inj.apply(&mut m);
        assert_eq!(m.total_failures(), 70);
    }
}
