//! Picking the next core to step.
//!
//! The simulator advances the core with the smallest local clock; among
//! cores with equal clocks the lowest index wins ("first minimum
//! wins"), and that tie-break is part of the deterministic schedule.
//! Up to [`SCAN_MAX_CORES`] cores, [`System::run`](crate::System::run)
//! finds that core with a linear scan. Above it, a [`WinnerTree`]
//! finds it in O(log cores) per step.
//!
//! The tree keeps one packed key per core, `clock << 8 | core`. With
//! `clock < 2^56` and `core < 256`, comparing two keys compares the
//! clocks first and the core indices second, so the smallest key names
//! the smallest clock and, among equal clocks, the lowest index: the
//! core the scan picks.

use cmp_mem::{CoreId, Cycle};

/// Machines with at most this many cores pick the next core with a
/// linear scan; larger ones use a [`WinnerTree`]. At 8 cores or fewer
/// the scan's compares are well predicted, so the CPU overlaps the next
/// pick with the current step; the tree's dependent `min` chain costs
/// more there than it saves.
pub const SCAN_MAX_CORES: usize = 8;

/// Bits of a packed key that hold the core index.
const CORE_BITS: u32 = 8;

/// Largest clock a packed key can hold: `clock << 8` must fit in a
/// `u64`. At one reference per cycle that is over 2^56 cycles, far
/// beyond any run.
pub const MAX_CLOCK: Cycle = (1 << (64 - CORE_BITS)) - 1;

/// A winner tree over packed `clock << 8 | core` keys.
///
/// One flat vector: `nodes[1]` is the root, node `i` has children
/// `2i` and `2i + 1`, and the leaves start at `nodes[leaves]`, one per
/// core, padded to a power of two with `u64::MAX` (a key no core can
/// have). Each internal node holds the smaller of its children's keys,
/// so the root's low byte names the next core. After a core steps,
/// [`WinnerTree::update`] rewrites its leaf and the log2(leaves)
/// ancestors above it.
#[derive(Clone, Debug)]
pub struct WinnerTree {
    nodes: Vec<u64>,
    leaves: usize,
    cores: usize,
}

impl WinnerTree {
    /// Builds the tree over each core's current clock, core 0 first.
    ///
    /// # Panics
    ///
    /// Panics on no cores, on more than [`CoreId::MAX_CORES`] cores,
    /// or on a clock above [`MAX_CLOCK`].
    pub fn new(clocks: impl ExactSizeIterator<Item = Cycle>) -> Self {
        let cores = clocks.len();
        assert!(
            (1..=CoreId::MAX_CORES).contains(&cores),
            "winner tree needs 1..={} cores, got {cores}",
            CoreId::MAX_CORES
        );
        let leaves = cores.next_power_of_two();
        let mut nodes = vec![u64::MAX; 2 * leaves];
        for (core, clock) in clocks.enumerate() {
            nodes[leaves + core] = pack(core, clock);
        }
        for i in (1..leaves).rev() {
            nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
        }
        WinnerTree { nodes, leaves, cores }
    }

    /// The core with the smallest clock, the lowest index among ties.
    #[inline]
    pub fn next_core(&self) -> usize {
        (self.nodes[1] & ((1 << CORE_BITS) - 1)) as usize
    }

    /// Records `core`'s new clock and replays the matches on its path
    /// to the root.
    ///
    /// # Panics
    ///
    /// Panics if `core` is not one of the tree's cores or `clock` is
    /// above [`MAX_CLOCK`].
    #[inline(always)]
    pub fn update(&mut self, core: usize, clock: Cycle) {
        assert!(core < self.cores, "core {core} outside a {}-core winner tree", self.cores);
        let mut key = pack(core, clock);
        let mut i = self.leaves + core;
        self.nodes[i] = key;
        while i > 1 {
            key = key.min(self.nodes[i ^ 1]);
            i >>= 1;
            self.nodes[i] = key;
        }
    }
}

/// The key of `core` at `clock`.
#[inline]
fn pack(core: usize, clock: Cycle) -> u64 {
    assert!(
        clock <= MAX_CLOCK,
        "clock {clock} exceeds the winner tree's packed-key bound (clock < 2^56)"
    );
    clock << CORE_BITS | core as u64
}

#[cfg(test)]
mod tests {
    //! Ties at 1..=64 cores are checked against the scan by the
    //! `winner_tree_picks_the_first_minimum` property test.

    use super::*;

    #[test]
    fn every_core_of_a_full_machine_can_win() {
        let mut tree = WinnerTree::new((0..CoreId::MAX_CORES).rev().map(|c| c as Cycle));
        assert_eq!(tree.next_core(), 255);
        tree.update(255, MAX_CLOCK);
        assert_eq!(tree.next_core(), 254);
    }

    #[test]
    #[should_panic(expected = "packed-key bound (clock < 2^56)")]
    fn clocks_beyond_the_packed_key_are_rejected() {
        let mut tree = WinnerTree::new([0, 0].into_iter());
        tree.update(1, MAX_CLOCK + 1);
    }

    #[test]
    #[should_panic(expected = "winner tree needs 1..=256 cores, got 0")]
    fn an_empty_machine_is_rejected() {
        let _ = WinnerTree::new(std::iter::empty());
    }

    #[test]
    #[should_panic(expected = "winner tree needs 1..=256 cores, got 257")]
    fn more_cores_than_core_ids_are_rejected() {
        let _ = WinnerTree::new([0; 257].into_iter());
    }
}
