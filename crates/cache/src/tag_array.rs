//! Generic set-associative tag array with pluggable payloads.
//!
//! Every L2 organization's tag store — the private MESI caches, the
//! shared caches, the NUCA banks, and CMP-NuRAPID's per-core tag
//! arrays — is an instance of [`TagArray`] with a different payload
//! type. (The per-core L1s are fixed at two ways and pack each set
//! into one 16-byte record instead; see `cmp_sim::l1`.) Victim
//! selection is caller-controlled (via [`TagArray::victim_by`])
//! because the paper's organizations rank victims differently: plain
//! LRU for the baselines, the invalid → private → shared category
//! order for CMP-NuRAPID (Section 3.3.2).
//!
//! Storage is flat and holds each slot's state once: one contiguous
//! buffer of `u64` complemented tags (scanned by [`TagArray::lookup`]
//! without touching payloads, and the only copy of each tag, so a
//! zero word is a vacant slot), one flat payload store that is read
//! only where the tag says the slot is occupied, the packed recency
//! ranks of every set in one [`LruSets`], and a maintained occupancy
//! counter so [`TagArray::len`] is `O(1)`. An empty array is all zero
//! bytes or never-written payloads, so [`TagArray::new`] writes
//! nothing that scales with capacity: a large array costs resident
//! memory only for the sets a run touches. [`TagArray::with_storage`]
//! with [`Storage::Eager`] backs it all at construction instead.

use std::mem::MaybeUninit;

use cmp_mem::{BlockAddr, CacheGeometry, L2Vec, Storage};

use crate::lru::LruSets;

/// Stored word of a vacant slot. Slots store the complement of their
/// tag, so [`fill`] rejects the one real tag, `u64::MAX`, whose
/// complement this is, and a lookup can never falsely match a vacant
/// way.
///
/// [`fill`]: TagArray::fill
const VACANT: u64 = 0;

/// One resident tag entry (its tag lives in the array's tag vector).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry<P> {
    /// Organization-specific state (coherence state, pointers, reuse
    /// counters, ...).
    pub payload: P,
}

/// A set-associative tag array.
///
/// Payloads are `Copy`: a vacated slot's payload is simply left
/// behind, never dropped.
///
/// # Example
///
/// ```
/// use cmp_cache::TagArray;
/// use cmp_mem::{BlockAddr, CacheGeometry};
///
/// let mut tags: TagArray<u32> = TagArray::new(CacheGeometry::new(1024, 64, 2));
/// let b = BlockAddr(3);
/// assert!(tags.lookup(b).is_none());
/// let way = tags.victim_by(tags.set_of(b), |e| if e.is_none() { 0 } else { 1 });
/// tags.fill(tags.set_of(b), way, b, 7);
/// assert_eq!(tags.lookup(b), Some(way));
/// ```
pub struct TagArray<P> {
    geom: CacheGeometry,
    ways: usize,
    /// `tags[set * ways + way]`: the complement of the raw tag, or
    /// [`VACANT`].
    tags: L2Vec<u64>,
    /// Entry storage, parallel to `tags`: initialized exactly where
    /// the tag is not [`VACANT`].
    entries: L2Vec<MaybeUninit<Entry<P>>>,
    /// Recency order of every set.
    lru: LruSets,
    /// Occupied-slot count, maintained by `fill`/`evict`.
    occupied: usize,
}

impl<P: Copy> TagArray<P> {
    /// Creates an empty array with the given geometry, backed by
    /// memory as runs touch it.
    pub fn new(geom: CacheGeometry) -> Self {
        Self::with_storage(geom, Storage::OnDemand)
    }

    /// Creates an empty array with the given geometry, backed by
    /// memory as `storage` says.
    pub fn with_storage(geom: CacheGeometry, storage: Storage) -> Self {
        let slots = geom.num_sets() * geom.associativity();
        TagArray {
            geom,
            ways: geom.associativity(),
            tags: L2Vec::zeroed(slots, storage), // all VACANT
            entries: L2Vec::uninit(slots, storage),
            lru: LruSets::with_storage(geom.num_sets(), geom.associativity(), storage),
            occupied: 0,
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geom
    }

    /// Set index for a block.
    #[inline]
    pub fn set_of(&self, block: BlockAddr) -> usize {
        self.geom.set_of(block)
    }

    /// Finds the way holding `block`, if resident.
    #[inline]
    pub fn lookup(&self, block: BlockAddr) -> Option<usize> {
        let stored = !self.geom.tag_of(block);
        if stored == VACANT {
            return None; // cannot be resident: `fill` rejects it
        }
        let base = self.geom.set_of(block) * self.ways;
        self.tags[base..base + self.ways].iter().position(|&t| t == stored)
    }

    /// The entry in slot `idx`, if occupied.
    #[inline]
    fn slot(&self, idx: usize) -> Option<&Entry<P>> {
        // SAFETY: a slot's entry is initialized wherever its tag is
        // not `VACANT` (`fill` writes the entry before the tag).
        (self.tags[idx] != VACANT).then(|| unsafe { self.entries[idx].assume_init_ref() })
    }

    /// The ways of `set` in order, as `(stored tag, entry if
    /// occupied)`.
    #[inline]
    fn ways_of(&self, set: usize) -> impl Iterator<Item = (u64, Option<&Entry<P>>)> + '_ {
        let base = set * self.ways;
        let tags = &self.tags[base..base + self.ways];
        tags.iter().zip(&self.entries[base..base + self.ways]).map(|(&stored, entry)| {
            // SAFETY: as in `slot`; `stored` is this entry's tag.
            (stored, (stored != VACANT).then(|| unsafe { entry.assume_init_ref() }))
        })
    }

    /// Reference to the entry at (`set`, `way`), if occupied.
    #[inline]
    pub fn entry(&self, set: usize, way: usize) -> Option<&Entry<P>> {
        self.slot(set * self.ways + way)
    }

    /// Mutable reference to the entry at (`set`, `way`), if occupied.
    #[inline]
    pub fn entry_mut(&mut self, set: usize, way: usize) -> Option<&mut Entry<P>> {
        let idx = set * self.ways + way;
        // SAFETY: as in `slot`.
        (self.tags[idx] != VACANT).then(|| unsafe { self.entries[idx].assume_init_mut() })
    }

    /// Block address stored at (`set`, `way`), if occupied.
    pub fn block_at(&self, set: usize, way: usize) -> Option<BlockAddr> {
        let stored = self.tags[set * self.ways + way];
        (stored != VACANT).then(|| self.geom.block_of(!stored, set))
    }

    /// Marks (`set`, `way`) most recently used.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        self.lru.touch(set, way);
    }

    /// Recency rank of a way within its set (0 = LRU).
    #[inline]
    pub fn recency_rank(&self, set: usize, way: usize) -> usize {
        self.lru.rank(set, way)
    }

    /// Selects a victim way: the way minimizing `(rank_fn(entry),
    /// recency)`. Passing a category function implements the paper's
    /// "invalid, then private, then shared; LRU within each category"
    /// policy; passing a constant gives plain LRU.
    pub fn victim_by(
        &self,
        set: usize,
        mut rank_fn: impl FnMut(Option<&Entry<P>>) -> u32,
    ) -> usize {
        let mut best = (u32::MAX, usize::MAX, 0usize);
        let ways = self.ways_of(set).zip(self.lru.ranks(set));
        for (way, ((_, entry), recency)) in ways.enumerate() {
            let key = (rank_fn(entry), recency, way);
            if (key.0, key.1) < (best.0, best.1) {
                best = key;
            }
        }
        best.2
    }

    /// Removes and returns the entry at (`set`, `way`) together with
    /// its block address; the slot becomes the set's LRU way.
    pub fn evict(&mut self, set: usize, way: usize) -> Option<(BlockAddr, P)> {
        let idx = set * self.ways + way;
        self.lru.demote(set, way);
        let taken = *self.slot(idx)?;
        let stored = std::mem::replace(&mut self.tags[idx], VACANT);
        self.occupied -= 1;
        Some((self.geom.block_of(!stored, set), taken.payload))
    }

    /// Installs `block` at (`set`, `way`) and marks it MRU.
    ///
    /// # Panics
    ///
    /// Panics if the slot is still occupied (callers must evict
    /// first), if `set` does not match the block's set index, or if
    /// the block's tag collides with the vacant-slot sentinel.
    pub fn fill(&mut self, set: usize, way: usize, block: BlockAddr, payload: P) {
        assert_eq!(set, self.geom.set_of(block), "block filled into wrong set");
        let stored = !self.geom.tag_of(block);
        assert_ne!(stored, VACANT, "block tag collides with the vacant-slot sentinel");
        let idx = set * self.ways + way;
        assert!(self.tags[idx] == VACANT, "fill into occupied way; evict first");
        self.entries[idx].write(Entry { payload });
        self.tags[idx] = stored;
        self.occupied += 1;
        self.lru.touch(set, way);
    }

    /// Iterates over occupied entries of one set as `(way, block,
    /// &payload)`.
    pub fn iter_set(&self, set: usize) -> impl Iterator<Item = (usize, BlockAddr, &P)> + '_ {
        self.ways_of(set).enumerate().filter_map(move |(way, (stored, entry))| {
            entry.map(|e| (way, self.geom.block_of(!stored, set), &e.payload))
        })
    }

    /// Iterates over all occupied entries as `(set, way, block,
    /// &payload)`.
    pub fn iter_all(&self) -> impl Iterator<Item = (usize, usize, BlockAddr, &P)> + '_ {
        (0..self.geom.num_sets()).flat_map(move |set| {
            self.iter_set(set).map(move |(way, block, p)| (set, way, block, p))
        })
    }

    /// Number of occupied entries (`O(1)`: maintained, not scanned).
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }
}

impl<P> std::fmt::Debug for TagArray<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TagArray")
            .field("geometry", &self.geom)
            .field("occupied", &self.occupied)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TagArray<u32> {
        // 4 sets, 2 ways, 64 B blocks.
        TagArray::new(CacheGeometry::new(512, 64, 2))
    }

    fn fill_block(t: &mut TagArray<u32>, block: BlockAddr, payload: u32) -> usize {
        let set = t.set_of(block);
        let way = t.victim_by(set, |e| if e.is_none() { 0 } else { 1 });
        t.evict(set, way);
        t.fill(set, way, block, payload);
        way
    }

    #[test]
    fn lookup_after_fill() {
        let mut t = small();
        let b = BlockAddr(5);
        let way = fill_block(&mut t, b, 99);
        assert_eq!(t.lookup(b), Some(way));
        assert_eq!(t.entry(t.set_of(b), way).unwrap().payload, 99);
        assert_eq!(t.block_at(t.set_of(b), way), Some(b));
    }

    #[test]
    fn conflicting_blocks_evict_lru() {
        let mut t = small();
        // Three blocks mapping to set 1 in a 2-way array.
        let b1 = BlockAddr(1);
        let b2 = BlockAddr(5);
        let b3 = BlockAddr(9);
        fill_block(&mut t, b1, 1);
        fill_block(&mut t, b2, 2);
        // Touch b1 so b2 is LRU.
        let w1 = t.lookup(b1).unwrap();
        t.touch(t.set_of(b1), w1);
        fill_block(&mut t, b3, 3);
        assert!(t.lookup(b1).is_some());
        assert!(t.lookup(b2).is_none(), "LRU entry should be the victim");
        assert!(t.lookup(b3).is_some());
    }

    #[test]
    fn victim_prefers_lower_rank_category() {
        let mut t = small();
        let b1 = BlockAddr(1);
        let b2 = BlockAddr(5);
        fill_block(&mut t, b1, 10); // payload 10 = "shared"
        fill_block(&mut t, b2, 20); // payload 20 = "private"
                                    // Rank: prefer evicting the "private" (20) entry despite b1
                                    // being older.
        let set = t.set_of(b1);
        let victim = t.victim_by(set, |e| match e {
            None => 0,
            Some(e) if e.payload == 20 => 1,
            Some(_) => 2,
        });
        assert_eq!(t.block_at(set, victim), Some(b2));
    }

    #[test]
    fn evict_returns_block_and_payload() {
        let mut t = small();
        let b = BlockAddr(7);
        let way = fill_block(&mut t, b, 42);
        let (evicted, payload) = t.evict(t.set_of(b), way).unwrap();
        assert_eq!(evicted, b);
        assert_eq!(payload, 42);
        assert!(t.lookup(b).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn evicted_way_becomes_preferred_victim() {
        let mut t = small();
        let b1 = BlockAddr(1);
        let b2 = BlockAddr(5);
        fill_block(&mut t, b1, 1);
        fill_block(&mut t, b2, 2);
        let w1 = t.lookup(b1).unwrap();
        let set = t.set_of(b1);
        t.evict(set, w1);
        // Plain LRU victim should be the just-vacated way.
        assert_eq!(t.victim_by(set, |_| 0), w1);
    }

    #[test]
    fn evict_of_vacant_way_still_demotes_it() {
        // The recency order must evolve identically whether or not the
        // evicted slot was occupied (fill helpers evict
        // unconditionally).
        let mut t = small();
        let b1 = BlockAddr(1);
        let b2 = BlockAddr(5);
        fill_block(&mut t, b1, 1);
        fill_block(&mut t, b2, 2);
        let w1 = t.lookup(b1).unwrap();
        let set = t.set_of(b1);
        t.evict(set, w1);
        assert!(t.evict(set, w1).is_none()); // vacant, but still demoted
        assert_eq!(t.victim_by(set, |_| 0), w1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn len_is_maintained_across_fill_and_evict() {
        let mut t = small();
        assert_eq!(t.len(), 0);
        for (i, raw) in [0u64, 1, 2, 3, 4, 5].iter().enumerate() {
            fill_block(&mut t, BlockAddr(*raw), i as u32);
        }
        // 4 sets x 2 ways, blocks 0..6 land pairwise: 6 resident.
        assert_eq!(t.len(), 6);
        let b = BlockAddr(2);
        let way = t.lookup(b).unwrap();
        t.evict(t.set_of(b), way);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn iter_set_reports_all_occupied_ways() {
        let mut t = small();
        fill_block(&mut t, BlockAddr(1), 1);
        fill_block(&mut t, BlockAddr(5), 2);
        let entries: Vec<_> = t.iter_set(1).collect();
        assert_eq!(entries.len(), 2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn iter_all_spans_sets() {
        let mut t = small();
        fill_block(&mut t, BlockAddr(0), 1);
        fill_block(&mut t, BlockAddr(1), 2);
        fill_block(&mut t, BlockAddr(2), 3);
        assert_eq!(t.iter_all().count(), 3);
    }

    #[test]
    fn a_rebuilt_eager_array_is_as_clean_as_a_fresh_one() {
        let geom = CacheGeometry::new(64 << 10, 64, 8); // 128 sets of 8 ways
        let blocks: Vec<_> = (0..3000).map(|b| BlockAddr(b * 7 + 1)).collect();
        let mut dirty: TagArray<u32> = TagArray::with_storage(geom, Storage::Eager);
        for (i, &b) in blocks.iter().enumerate() {
            fill_block(&mut dirty, b, i as u32);
            let set = dirty.set_of(b);
            dirty.touch(set, i % 8);
        }
        assert_eq!(dirty.len(), 1024);
        let buffers = (dirty.tags.as_ptr(), dirty.entries.as_ptr() as usize);
        drop(dirty);
        let rebuilt: TagArray<u32> = TagArray::with_storage(geom, Storage::Eager);
        assert_eq!((rebuilt.tags.as_ptr(), rebuilt.entries.as_ptr() as usize), buffers);
        let fresh = TagArray::with_storage(geom, Storage::Eager);
        for t in [&rebuilt, &fresh] {
            assert!(t.is_empty());
            assert!(blocks.iter().all(|&b| t.lookup(b).is_none()));
            assert_eq!(t.iter_all().count(), 0);
            for set in 0..geom.num_sets() {
                assert!((0..8).all(|way| t.recency_rank(set, way) == way), "set {set}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn double_fill_panics() {
        let mut t = small();
        let b = BlockAddr(3);
        let set = t.set_of(b);
        t.fill(set, 0, b, 1);
        t.fill(set, 0, BlockAddr(7), 2);
    }

    #[test]
    #[should_panic(expected = "wrong set")]
    fn fill_checks_set_index() {
        let mut t = small();
        t.fill(0, 0, BlockAddr(1), 1); // block 1 belongs to set 1
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn fill_rejects_sentinel_tag() {
        // A single-set array keeps the whole block address as the tag,
        // so block u64::MAX collides with the vacant marker.
        let mut t: TagArray<u32> = TagArray::new(CacheGeometry::new(128, 64, 2));
        t.fill(0, 0, BlockAddr(u64::MAX), 1);
    }
}
