//! Per-core L1 data cache.
//!
//! 64 KB, 2-way, 64 B blocks, 3-cycle latency (Section 4.1),
//! inclusive under the L2. Lines are write-back unless the L2 marked
//! them write-through (MESIC C-state blocks, Section 3.2). A line
//! filled by a read does not carry write permission: the first store
//! to it consults the L2 (which performs the silent E→M upgrade or a
//! BusUpg), after which stores are local.
//!
//! Every simulated reference looks up an L1, so its storage is packed
//! for the host rather than built on the generic `cmp_cache::TagArray`.
//! The cache is two-way, so a set is one 16-byte record of two words,
//! one per way: the tag above the valid, dirty, write-through and
//! write-permitted bits. One more bit of way 0's word names the set's
//! LRU way, which is all the recency two ways need. A lookup, hit,
//! store-permission check, fill or invalidate reads and writes that
//! one record, so one host cache line, and a core's 512 sets take
//! 8 KiB in one array.

use cmp_mem::{AccessKind, BlockAddr, CacheGeometry, Cycle};

/// The line was dirtied by a local store.
const DIRTY: u64 = 1;
/// Stores must be forwarded to the L2 (C-state block).
const WRITETHROUGH: u64 = 1 << 1;
/// Stores may complete locally (L2 line is M).
const WRITE_PERMITTED: u64 = 1 << 2;
/// In way 0's word only: way 1 is the set's LRU way (clear: way 0 is).
const LRU_IS_WAY1: u64 = 1 << 3;
/// The way holds a block.
const VALID: u64 = 1 << 4;
/// Low bits of a way's word that hold flags; the tag sits above them.
const FLAG_BITS: u32 = 5;
/// The bits a lookup compares: the tag and [`VALID`].
const KEY_MASK: u64 = !(DIRTY | WRITETHROUGH | WRITE_PERMITTED | LRU_IS_WAY1);
/// Largest tag that fits above the flag bits.
const MAX_TAG: u64 = u64::MAX >> FLAG_BITS;
/// Lookup key of a block whose tag does not fit: it has [`DIRTY`] set,
/// which [`KEY_MASK`] clears from every stored word, so it matches no
/// way.
const NO_MATCH: u64 = u64::MAX;

/// One set: way `w`'s word is `tag << FLAG_BITS | VALID | flags`, or
/// 0 (apart from [`LRU_IS_WAY1`]) when vacant. Aligned so a set never
/// straddles a host cache line.
#[derive(Clone, Copy, Default)]
#[repr(align(16))]
struct Set([u64; 2]);

impl Set {
    /// The way whose word matches `key`, if any.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.0[0] & KEY_MASK == key {
            Some(0)
        } else if self.0[1] & KEY_MASK == key {
            Some(1)
        } else {
            None
        }
    }

    /// The least recently used way.
    #[inline]
    fn lru(&self) -> usize {
        usize::from(self.0[0] & LRU_IS_WAY1 != 0)
    }

    /// Makes `way` the LRU way (and so the other way the MRU one).
    #[inline]
    fn demote(&mut self, way: usize) {
        self.0[0] = (self.0[0] & !LRU_IS_WAY1) | (way as u64 * LRU_IS_WAY1);
    }

    /// Makes `way` the MRU way.
    #[inline]
    fn touch(&mut self, way: usize) {
        self.demote(way ^ 1);
    }

    /// Replaces `way`'s block and flags with `word`, keeping the
    /// recency bit.
    #[inline]
    fn store(&mut self, way: usize, word: u64) {
        self.0[way] = (self.0[way] & LRU_IS_WAY1) | word;
    }
}

/// What the L1 decided about one processor reference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L1Outcome {
    /// Served locally.
    Hit,
    /// Present and write-through (a MESIC C block): the store is
    /// *posted* to the L2 — the L2 state updates and the bus sees the
    /// BusRdX, but the core retires the store through its store
    /// buffer without stalling for the L2.
    HitWritethrough,
    /// Present, but the store needs L2 write permission first (the
    /// L2's silent E->M upgrade or a BusUpg); the core waits.
    HitNeedsPermission,
    /// Not present: the L2 must be accessed and the line filled.
    Miss,
}

/// L1 statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// References served entirely by the L1.
    pub hits: u64,
    /// References that had to touch the L2.
    pub misses: u64,
    /// Store hits forwarded to the L2 (write-throughs and write-
    /// permission upgrades).
    pub store_forwards: u64,
    /// Lines invalidated by coherence/inclusion.
    pub invalidations: u64,
    /// Dirty lines evicted (absorbed by the L2, not timed).
    pub writebacks: u64,
}

/// One core's L1 data cache.
///
/// # Example
///
/// ```
/// use cmp_sim::l1::{L1Cache, L1Outcome};
/// use cmp_mem::{AccessKind, BlockAddr};
///
/// let mut l1 = L1Cache::paper();
/// assert_eq!(l1.access(BlockAddr(5), AccessKind::Read), L1Outcome::Miss);
/// l1.fill(BlockAddr(5), false, false);
/// assert_eq!(l1.access(BlockAddr(5), AccessKind::Read), L1Outcome::Hit);
/// ```
pub struct L1Cache {
    geom: CacheGeometry,
    sets: Vec<Set>,
    latency: Cycle,
    stats: L1Stats,
}

impl L1Cache {
    /// Creates an L1 with the given geometry and latency.
    ///
    /// # Panics
    ///
    /// Panics unless the geometry is two-way.
    pub fn new(geom: CacheGeometry, latency: Cycle) -> Self {
        assert!(
            geom.associativity() == 2,
            "L1Cache packs two-way sets; got a {}-way geometry",
            geom.associativity()
        );
        L1Cache {
            geom,
            sets: vec![Set::default(); geom.num_sets()],
            latency,
            stats: L1Stats::default(),
        }
    }

    /// The paper's configuration: 64 KB, 2-way, 64 B blocks, 3 cycles.
    pub fn paper() -> Self {
        L1Cache::new(CacheGeometry::new(64 * 1024, cmp_mem::L1_BLOCK_BYTES, 2), 3)
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Statistics so far.
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    /// Resets statistics (contents kept).
    pub fn reset_stats(&mut self) {
        self.stats = L1Stats::default();
    }

    /// The word a resident `block` matches under [`KEY_MASK`], or
    /// [`NO_MATCH`] if its tag cannot be stored.
    #[inline]
    fn key_of(&self, block: BlockAddr) -> u64 {
        let tag = self.geom.tag_of(block);
        if tag <= MAX_TAG {
            (tag << FLAG_BITS) | VALID
        } else {
            NO_MATCH
        }
    }

    /// Looks up `block` (L1-block address) for a read or write.
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> L1Outcome {
        let key = self.key_of(block);
        let set = &mut self.sets[self.geom.set_of(block)];
        let Some(way) = set.find(key) else {
            self.stats.misses += 1;
            return L1Outcome::Miss;
        };
        set.touch(way);
        if kind == AccessKind::Read {
            self.stats.hits += 1;
            return L1Outcome::Hit;
        }
        let word = &mut set.0[way];
        if *word & WRITETHROUGH != 0 {
            self.stats.store_forwards += 1;
            L1Outcome::HitWritethrough
        } else if *word & WRITE_PERMITTED != 0 {
            *word |= DIRTY;
            self.stats.hits += 1;
            L1Outcome::Hit
        } else {
            // Needs L2 write permission; granted via the refill path
            // when the L2 access completes.
            self.stats.store_forwards += 1;
            L1Outcome::HitNeedsPermission
        }
    }

    /// Installs `block` after an L2 access. `writethrough` comes from
    /// the L2 response (C-state block); `written` is true when the
    /// triggering reference was a store.
    ///
    /// # Panics
    ///
    /// Panics if the block's tag does not fit beside the flag bits
    /// (only possible on geometries with very few sets).
    pub fn fill(&mut self, block: BlockAddr, writethrough: bool, written: bool) {
        let key = self.key_of(block);
        assert!(key != NO_MATCH, "block tag does not fit beside the L1 flag bits");
        // A store that completes locally also dirties the line.
        let mut flags = 0;
        if writethrough {
            flags |= WRITETHROUGH;
        } else if written {
            flags |= WRITE_PERMITTED | DIRTY;
        }
        let set = &mut self.sets[self.geom.set_of(block)];
        if let Some(way) = set.find(key) {
            // Already present (store-forward path): update flags, keep
            // recency and a dirty line's dirt.
            let word = &mut set.0[way];
            *word = (*word & (KEY_MASK | LRU_IS_WAY1 | DIRTY)) | flags;
            return;
        }
        // The victim is the LRU way. A lone vacant way is always the
        // LRU one (an invalidate demotes the way it empties, and only
        // hits and fills, both of valid ways, promote), so this is the
        // "vacant first, then LRU" choice without testing vacancy.
        let way = set.lru();
        if set.0[way] & DIRTY != 0 {
            self.stats.writebacks += 1;
        }
        set.store(way, key | flags);
        set.touch(way);
    }

    /// Invalidates `block` if present (coherence or inclusion);
    /// returns whether a line was dropped.
    pub fn invalidate(&mut self, block: BlockAddr) -> bool {
        let key = self.key_of(block);
        let set = &mut self.sets[self.geom.set_of(block)];
        let Some(way) = set.find(key) else { return false };
        if set.0[way] & DIRTY != 0 {
            // Dirty data is pulled down with the invalidation
            // (flush); counted, not timed.
            self.stats.writebacks += 1;
        }
        set.store(way, 0);
        set.demote(way);
        self.stats.invalidations += 1;
        true
    }

    /// `true` if `block` is resident.
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.sets[self.geom.set_of(block)].find(self.key_of(block)).is_some()
    }
}

impl std::fmt::Debug for L1Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let occupied = self.sets.iter().flat_map(|s| s.0).filter(|w| w & VALID != 0).count();
        f.debug_struct("L1Cache").field("occupied", &occupied).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_fill_then_hit() {
        let mut l1 = L1Cache::paper();
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Read), L1Outcome::Miss);
        l1.fill(BlockAddr(9), false, false);
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Read), L1Outcome::Hit);
        assert_eq!(l1.stats().hits, 1);
        assert_eq!(l1.stats().misses, 1);
    }

    #[test]
    fn first_store_to_read_line_needs_l2() {
        let mut l1 = L1Cache::paper();
        l1.access(BlockAddr(9), AccessKind::Read);
        l1.fill(BlockAddr(9), false, false);
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Write), L1Outcome::HitNeedsPermission);
        // The L2 granted permission via the refill path.
        l1.fill(BlockAddr(9), false, true);
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Write), L1Outcome::Hit);
    }

    #[test]
    fn writethrough_lines_forward_every_store() {
        let mut l1 = L1Cache::paper();
        l1.fill(BlockAddr(9), true, true);
        for _ in 0..3 {
            assert_eq!(l1.access(BlockAddr(9), AccessKind::Write), L1Outcome::HitWritethrough);
        }
        assert_eq!(l1.stats().store_forwards, 3);
        // Reads are still local.
        assert_eq!(l1.access(BlockAddr(9), AccessKind::Read), L1Outcome::Hit);
    }

    #[test]
    fn invalidate_drops_line() {
        let mut l1 = L1Cache::paper();
        l1.fill(BlockAddr(9), false, false);
        assert!(l1.contains(BlockAddr(9)));
        assert!(l1.invalidate(BlockAddr(9)));
        assert!(!l1.contains(BlockAddr(9)));
        assert!(!l1.invalidate(BlockAddr(9)));
        assert_eq!(l1.stats().invalidations, 1);
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        // 2-way sets: three conflicting blocks evict the first.
        let mut l1 = L1Cache::new(CacheGeometry::new(256, 64, 2), 3);
        let sets = 2u64;
        l1.fill(BlockAddr(0), false, true); // dirty
        l1.fill(BlockAddr(sets), false, false);
        l1.fill(BlockAddr(2 * sets), false, false); // evicts block 0
        assert_eq!(l1.stats().writebacks, 1);
        assert!(!l1.contains(BlockAddr(0)));
    }

    #[test]
    fn dirty_invalidation_counts_writeback() {
        let mut l1 = L1Cache::paper();
        l1.fill(BlockAddr(9), false, true);
        l1.fill(BlockAddr(10), false, false);
        assert!(l1.invalidate(BlockAddr(9)));
        assert!(l1.invalidate(BlockAddr(10)));
        assert_eq!(l1.stats().writebacks, 1, "only the dirty line is flushed");
        assert_eq!(l1.stats().invalidations, 2);
    }

    #[test]
    fn invalidated_way_is_refilled_before_the_lru_way() {
        // 2 sets: blocks 0, 2, 4 share set 0.
        let mut l1 = L1Cache::new(CacheGeometry::new(256, 64, 2), 3);
        l1.fill(BlockAddr(0), false, false);
        l1.fill(BlockAddr(2), false, false);
        // Block 0 is LRU; invalidating block 2 leaves its way vacant,
        // and the next fill takes that way, not block 0's.
        assert!(l1.invalidate(BlockAddr(2)));
        l1.fill(BlockAddr(4), false, false);
        assert!(l1.contains(BlockAddr(0)));
        assert!(l1.contains(BlockAddr(4)));
        // Now block 0 is LRU again and is the next victim.
        l1.fill(BlockAddr(6), false, false);
        assert!(!l1.contains(BlockAddr(0)));
        assert!(l1.contains(BlockAddr(4)) && l1.contains(BlockAddr(6)));
    }

    #[test]
    fn refill_of_resident_line_keeps_recency_and_dirt() {
        let mut l1 = L1Cache::new(CacheGeometry::new(256, 64, 2), 3);
        l1.fill(BlockAddr(0), false, true); // dirty, permitted
        l1.fill(BlockAddr(2), false, false);
        // Re-filling block 0 must not make it MRU: block 2 stays.
        l1.fill(BlockAddr(0), true, false);
        assert_eq!(l1.access(BlockAddr(0), AccessKind::Write), L1Outcome::HitWritethrough);
        l1.fill(BlockAddr(4), false, false); // evicts LRU block 2
        assert!(l1.contains(BlockAddr(0)) && !l1.contains(BlockAddr(2)));
        l1.fill(BlockAddr(6), false, false); // evicts block 0, still dirty
        assert_eq!(l1.stats().writebacks, 1);
    }

    #[test]
    fn unstorable_tag_is_a_miss() {
        // 2 sets leave 63 tag bits, more than fit beside the flags;
        // such a block must not alias the block its low tag bits name.
        let mut l1 = L1Cache::new(CacheGeometry::new(256, 64, 2), 3);
        let low = BlockAddr(0b1_1111); // tag 15, set 1
        let high = BlockAddr(low.0 | 1 << 62); // tag 15 + 2^61
        l1.fill(low, false, false);
        assert!(l1.contains(low));
        assert!(!l1.contains(high));
        assert_eq!(l1.access(high, AccessKind::Read), L1Outcome::Miss);
        assert!(!l1.invalidate(high));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn fill_rejects_unstorable_tag() {
        let mut l1 = L1Cache::new(CacheGeometry::new(256, 64, 2), 3);
        l1.fill(BlockAddr(u64::MAX), false, false);
    }

    #[test]
    #[should_panic(expected = "two-way")]
    fn new_rejects_other_associativity() {
        let _ = L1Cache::new(CacheGeometry::new(64 * 1024, 64, 4), 3);
    }

    #[test]
    fn paper_geometry() {
        let l1 = L1Cache::paper();
        assert_eq!(l1.latency(), 3);
    }
}
