//! True-LRU recency tracking for cache sets.
//!
//! Each set's recency is a *rank vector* packed into byte lanes of
//! `u64` words: lane `w` holds way `w`'s recency rank (0 = LRU,
//! `ways-1` = MRU). `touch` and `demote` adjust every affected lane
//! at once with SWAR arithmetic — a handful of register ops instead
//! of the `Vec<u8>` remove/insert (two linear scans plus a memmove)
//! this structure used before, on every access of every cache level.
//!
//! [`LruSets`] stores the rank vectors of a whole tag array in one
//! flat buffer of `u64`, `ceil(ways / 8)` words per set, with the mask of
//! lanes backing real ways kept once for the array. Up to 8 ways a
//! set costs one word: 4 B per slot at 2 ways, 1 B at 8 ways (a
//! self-contained per-set order with its own mask cost 72 B). Each
//! word is stored XOR the initial order (way `w` at rank `w`), so a
//! zero word is a set no access has reordered yet and a new array is
//! one zeroed allocation that costs no resident memory until touched
//! (unless built with [`Storage::Eager`]).

use cmp_mem::{L2Vec, Storage};

/// Byte-lane MSBs, the carry-free comparison bit of each lane.
const LANE_MSB: u64 = 0x8080_8080_8080_8080;

/// Lanes per word (byte lanes in a `u64`).
const LANES: usize = 8;

/// Most words in one set's rank vector; `LANES * WORDS` = 32 ways
/// maximum.
const WORDS: usize = 4;

/// Broadcasts a byte into every lane of a word.
#[inline]
fn bcast(x: u8) -> u64 {
    x as u64 * 0x0101_0101_0101_0101
}

/// Per-lane `>=` against a broadcast byte: returns a word with each
/// lane's MSB set iff that lane of `x` is `>= y`. Requires every lane
/// of `x` to be `<= 127` and `y <= 128` (ranks are `< 32`, so both
/// hold); under those bounds `(lane + 128) - y` never borrows across
/// lanes and its MSB survives exactly when `lane >= y`.
#[inline]
fn lanes_ge(x: u64, y: u8) -> u64 {
    ((x | LANE_MSB) - bcast(y)) & LANE_MSB
}

/// Recency orders of `sets` equal-associativity sets: rank 0 is a
/// set's least recently used way, rank `ways-1` its most recently
/// used.
///
/// `O(1)` per operation (at most four word-ops regardless of
/// associativity), supporting the paper's ≤ 32-way sets.
///
/// # Example
///
/// ```
/// use cmp_cache::lru::LruSets;
///
/// let mut lru = LruSets::new(2, 4);
/// lru.touch(1, 2);
/// assert_eq!(lru.most_recent(1), 2);
/// assert_eq!(lru.most_recent(0), 3, "other sets are untouched");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LruSets {
    /// `ranks[set * words + i]` is word `i` of `set`'s rank vector
    /// XOR `initial[i]`: byte lane `w` of the set's words holds way
    /// `w`'s rank XOR `w`; lanes beyond `ways` stay 0 and are masked
    /// out of every update.
    ranks: L2Vec<u64>,
    /// The initial rank vector, way `w` at rank `w`: the all-zero
    /// stored word.
    initial: [u64; WORDS],
    /// Per-word lane-MSB mask selecting the lanes that back real
    /// ways, shared by every set.
    valid: [u64; WORDS],
    /// Number of ways per set.
    ways: u8,
    /// Words per set: `ceil(ways / 8)`.
    words: u8,
}

impl LruSets {
    /// Creates `sets` orders over `ways` ways each; initially way 0
    /// is every set's LRU way.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds 32.
    pub fn new(sets: usize, ways: usize) -> Self {
        Self::with_storage(sets, ways, Storage::OnDemand)
    }

    /// [`LruSets::new`] with its rank words backed by memory as
    /// `storage` says.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds 32.
    pub fn with_storage(sets: usize, ways: usize, storage: Storage) -> Self {
        assert!(ways > 0 && ways <= LANES * WORDS, "ways must be in 1..=32");
        let words = ways.div_ceil(LANES);
        let mut initial = [0u64; WORDS];
        let mut valid = [0u64; WORDS];
        for w in 0..ways {
            // Way w starts at rank w, matching insertion order.
            initial[w / LANES] |= (w as u64) << (8 * (w % LANES));
            valid[w / LANES] |= 0x80 << (8 * (w % LANES));
        }
        let ranks = L2Vec::zeroed(sets * words, storage);
        LruSets { ranks, initial, valid, ways: ways as u8, words: words as u8 }
    }

    /// Number of ways per set.
    pub fn ways(&self) -> usize {
        self.ways as usize
    }

    /// Number of sets tracked.
    pub fn sets(&self) -> usize {
        self.ranks.len() / self.words as usize
    }

    /// The stored words of `set`'s rank vector.
    #[inline]
    fn words_of(&mut self, set: usize) -> &mut [u64] {
        let words = self.words as usize;
        &mut self.ranks[set * words..(set + 1) * words]
    }

    #[inline]
    fn lane(&self, set: usize, way: usize) -> u8 {
        let word = self.ranks[set * self.words as usize + way / LANES] ^ self.initial[way / LANES];
        (word >> (8 * (way % LANES))) as u8
    }

    /// Applies `f` to each word of `set`'s rank vector together with
    /// its valid-lane mask, then gives `way` the rank `rank`.
    #[inline]
    fn update(&mut self, set: usize, way: usize, rank: u8, f: impl Fn(u64, u64) -> u64) {
        let (initial, valid) = (self.initial, self.valid);
        let words = self.words_of(set);
        for ((word, init), valid) in words.iter_mut().zip(initial).zip(valid) {
            *word = f(*word ^ init, valid) ^ init;
        }
        let shift = 8 * (way % LANES);
        let lane = (u64::from(rank ^ way as u8)) << shift;
        let word = &mut words[way / LANES];
        *word = (*word & !(0xFF << shift)) | lane;
    }

    #[inline]
    fn checked_rank(&self, set: usize, way: usize) -> u8 {
        if way >= self.ways as usize {
            panic!("way {way} out of range for {}-way set", self.ways);
        }
        self.lane(set, way)
    }

    /// Marks `way` of `set` most recently used.
    ///
    /// Already-MRU ways return immediately — the common case for a
    /// core re-hitting the same block.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        let old = self.checked_rank(set, way);
        let mru = self.ways - 1;
        if old == mru {
            return;
        }
        // Every way ranked above `old` slides down one; `way` takes MRU.
        self.update(set, way, mru, |word, valid| word - ((lanes_ge(word, old + 1) & valid) >> 7));
    }

    /// Marks `way` of `set` least recently used (used when an entry
    /// is invalidated, so the slot is preferred for the next fill).
    ///
    /// Already-LRU ways return immediately.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    #[inline]
    pub fn demote(&mut self, set: usize, way: usize) {
        let old = self.checked_rank(set, way);
        if old == 0 {
            return;
        }
        // Every way ranked below `old` slides up one; `way` takes LRU.
        self.update(set, way, 0, |word, valid| {
            word + ((!lanes_ge(word, old) & LANE_MSB & valid) >> 7)
        });
    }

    /// The least recently used way of `set`.
    pub fn least_recent(&self, set: usize) -> usize {
        self.way_at_rank(set, 0)
    }

    /// The most recently used way of `set`.
    pub fn most_recent(&self, set: usize) -> usize {
        self.way_at_rank(set, self.ways - 1)
    }

    /// Recency rank of `way` in `set`: 0 = LRU, `ways()-1` = MRU.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    #[inline]
    pub fn rank(&self, set: usize, way: usize) -> usize {
        self.checked_rank(set, way) as usize
    }

    /// The recency rank of each way of `set`, in way order.
    #[inline]
    pub(crate) fn ranks(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        let words = self.words as usize;
        let mut ranks = self.initial;
        for (rank, stored) in ranks.iter_mut().zip(&self.ranks[set * words..(set + 1) * words]) {
            *rank ^= stored;
        }
        (0..self.ways as usize).map(move |w| (ranks[w / LANES] >> (8 * (w % LANES))) as u8 as usize)
    }

    /// The ways of `set` in recency order, LRU first.
    pub fn iter(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        let mut by_rank = [0u8; LANES * WORDS];
        for w in 0..self.ways as usize {
            by_rank[self.lane(set, w) as usize] = w as u8;
        }
        (0..self.ways as usize).map(move |r| by_rank[r] as usize)
    }

    fn way_at_rank(&self, set: usize, rank: u8) -> usize {
        (0..self.ways as usize)
            .find(|&w| self.lane(set, w) == rank)
            .expect("ranks form a permutation of the ways")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_moves_to_mru() {
        let mut lru = LruSets::new(1, 4);
        lru.touch(0, 1);
        lru.touch(0, 3);
        assert_eq!(lru.most_recent(0), 3);
        assert_eq!(lru.least_recent(0), 0);
        assert_eq!(lru.rank(0, 1), 2);
    }

    #[test]
    fn demote_moves_to_lru() {
        let mut lru = LruSets::new(1, 4);
        lru.touch(0, 0); // order now 1,2,3,0
        lru.demote(0, 3);
        assert_eq!(lru.least_recent(0), 3);
    }

    #[test]
    fn repeated_touches_keep_order_consistent() {
        let mut lru = LruSets::new(1, 3);
        for w in [0, 1, 2, 0, 1, 0] {
            lru.touch(0, w);
        }
        // Recency: 2 (oldest), 1, 0 (newest).
        assert_eq!(lru.iter(0).collect::<Vec<_>>(), vec![2, 1, 0]);
    }

    #[test]
    fn single_way_set() {
        let mut lru = LruSets::new(1, 1);
        lru.touch(0, 0);
        assert_eq!(lru.least_recent(0), 0);
        assert_eq!(lru.most_recent(0), 0);
    }

    #[test]
    fn all_ways_present_exactly_once() {
        let mut lru = LruSets::new(1, 8);
        for w in [5, 2, 7, 2, 5] {
            lru.touch(0, w);
        }
        let mut ws: Vec<_> = lru.iter(0).collect();
        ws.sort_unstable();
        assert_eq!(ws, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn full_width_32_way_set() {
        let mut lru = LruSets::new(1, 32);
        for w in (0..32).rev() {
            lru.touch(0, w);
        }
        // Touched 31, 30, ..., 0: way 31 is now LRU, way 0 MRU.
        assert_eq!(lru.iter(0).collect::<Vec<_>>(), (0..32).rev().collect::<Vec<_>>());
        assert_eq!(lru.least_recent(0), 31);
        assert_eq!(lru.most_recent(0), 0);
    }

    #[test]
    fn touch_of_mru_way_is_a_noop() {
        let mut lru = LruSets::new(1, 4);
        lru.touch(0, 2);
        let before = lru.clone();
        lru.touch(0, 2); // already MRU: early return
        assert_eq!(lru, before);
        assert_eq!(lru.iter(0).collect::<Vec<_>>(), vec![0, 1, 3, 2]);
    }

    #[test]
    fn demote_of_lru_way_is_a_noop() {
        let mut lru = LruSets::new(1, 4);
        lru.touch(0, 0); // order now 1,2,3,0
        let before = lru.clone();
        lru.demote(0, 1); // already LRU: early return
        assert_eq!(lru, before);
        assert_eq!(lru.iter(0).collect::<Vec<_>>(), vec![1, 2, 3, 0]);
    }

    #[test]
    fn interleaved_touch_demote_pin_exact_order() {
        let mut lru = LruSets::new(1, 5);
        lru.touch(0, 3); // 0,1,2,4,3
        lru.demote(0, 2); // 2,0,1,4,3
        lru.touch(0, 0); // 2,1,4,3,0
        lru.demote(0, 3); // 3,2,1,4,0
        assert_eq!(lru.iter(0).collect::<Vec<_>>(), vec![3, 2, 1, 4, 0]);
        assert_eq!(lru.rank(0, 4), 3);
        assert_eq!(lru.least_recent(0), 3);
        assert_eq!(lru.most_recent(0), 0);
    }

    #[test]
    fn rebuilt_eager_ranks_are_in_initial_order() {
        let (sets, ways) = (600, 12); // two words per set
        let mut dirty = LruSets::with_storage(sets, ways, Storage::Eager);
        for i in 0..5000 {
            dirty.touch(i % sets, i * 7 % ways);
            dirty.demote(i * 3 % sets, i % ways);
        }
        let words = dirty.ranks.as_ptr();
        drop(dirty);
        let rebuilt = LruSets::with_storage(sets, ways, Storage::Eager);
        assert_eq!(rebuilt.ranks.as_ptr(), words, "the dropped ranks are reused");
        assert_eq!(rebuilt, LruSets::with_storage(sets, ways, Storage::Eager));
        for set in 0..sets {
            assert!(rebuilt.iter(set).eq(0..ways), "set {set}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touch_rejects_bad_way() {
        LruSets::new(1, 2).touch(0, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rank_rejects_bad_way() {
        let _ = LruSets::new(1, 3).rank(0, 3);
    }

    #[test]
    #[should_panic(expected = "1..=32")]
    fn rejects_oversized_sets() {
        let _ = LruSets::new(1, 33);
    }
}
