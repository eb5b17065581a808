//! Per-core tag arrays behind one snoop filter.
//!
//! A snoopy organization answers "which other cores hold this block?"
//! on every miss. The hardware probes every core's tag array in
//! parallel; a simulator that probes them one after another pays
//! `O(cores)` lookups per question. [`CoreTags`] keeps the per-core
//! [`TagArray`]s of an organization whose cores share one tag
//! geometry, plus a **holder summary**: for each (set, bucket) pair a
//! `u64` mask of the cores whose tag set holds some block hashing to
//! that bucket. A snoop then looks up only the cores whose bit is set.
//!
//! The summary is a filter, not an exact index: a set bit may be a
//! bucket collision, so every candidate is confirmed with an exact
//! [`TagArray::lookup`]. It never misses a holder, because fills and
//! evictions go only through [`CoreTags`]: a fill sets the core's
//! bit, and an eviction clears it only when that core's same set
//! holds no other block in the bucket. Its cost is fixed at
//! `sets × BUCKETS × 8` bytes, whatever the core count.
//!
//! Candidates are walked lowest core first, so holders come back in
//! core order, exactly as a scan over every core would find them.

use cmp_mem::{BlockAddr, CacheGeometry, CoreId, L2Vec, Storage};

use crate::tag_array::{Entry, TagArray};
use crate::violation::Violation;

/// Buckets per set in the holder summary, a fixed constant. It trades
/// false candidates (a core whose set holds `k` other blocks is one
/// with odds `1 - (15/16)^k`) against the summary's size, 128 B per
/// set.
pub const BUCKETS: usize = 16;

/// The summary bucket of a block within its set: the top bits of a
/// Fibonacci hash of its tag.
#[inline]
fn bucket(geom: &CacheGeometry, block: BlockAddr) -> usize {
    (geom.tag_of(block).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize
}

/// A set of cores as a `u64` bit mask, iterated lowest core first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreMask(pub u64);

impl Iterator for CoreMask {
    type Item = CoreId;

    #[inline]
    fn next(&mut self) -> Option<CoreId> {
        if self.0 == 0 {
            return None;
        }
        let core = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(CoreId(core as u8))
    }
}

/// The per-core tag arrays of one organization and their holder
/// summary.
///
/// # Example
///
/// ```
/// use cmp_cache::holders::CoreTags;
/// use cmp_mem::{BlockAddr, CacheGeometry, CoreId};
///
/// let mut tags: CoreTags<u8> = CoreTags::new(4, CacheGeometry::new(1024, 64, 2));
/// let b = BlockAddr(3);
/// let set = tags.array(CoreId(2)).set_of(b);
/// tags.fill(CoreId(2), set, 0, b, 7);
/// let holders: Vec<_> = tags.holders(b).map(|(c, _, _)| c).collect();
/// assert_eq!(holders, vec![CoreId(2)]);
/// tags.evict(CoreId(2), set, 0);
/// assert_eq!(tags.holders(b).count(), 0);
/// ```
pub struct CoreTags<P> {
    geom: CacheGeometry,
    arrays: Vec<TagArray<P>>,
    /// `summary[set * BUCKETS + bucket]`: cores whose tag set holds a
    /// block in that bucket.
    pub(crate) summary: L2Vec<u64>,
}

impl<P: Copy> CoreTags<P> {
    /// `cores` empty tag arrays of geometry `geom`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cores <= 64` (one mask bit per core).
    pub fn new(cores: usize, geom: CacheGeometry) -> Self {
        Self::with_storage(cores, geom, Storage::OnDemand)
    }

    /// [`CoreTags::new`] with the arrays and summary backed by memory
    /// as `storage` says.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cores <= 64`.
    pub fn with_storage(cores: usize, geom: CacheGeometry, storage: Storage) -> Self {
        assert!((1..=64).contains(&cores), "1..=64 cores required, got {cores}");
        CoreTags {
            geom,
            summary: L2Vec::zeroed(geom.num_sets() * BUCKETS, storage),
            arrays: (0..cores).map(|_| TagArray::with_storage(geom, storage)).collect(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.arrays.len()
    }

    /// `core`'s tag array, read-only: fills and evictions must go
    /// through [`CoreTags`] to keep the summary exact.
    #[inline]
    pub fn array(&self, core: CoreId) -> &TagArray<P> {
        &self.arrays[core.index()]
    }

    /// Iterates over every core's tag array, in core order.
    pub fn arrays(&self) -> impl Iterator<Item = (CoreId, &TagArray<P>)> + '_ {
        self.arrays.iter().enumerate().map(|(i, a)| (CoreId(i as u8), a))
    }

    #[inline]
    fn slot(&self, block: BlockAddr) -> usize {
        self.geom.set_of(block) * BUCKETS + bucket(&self.geom, block)
    }

    /// Finds `block` in `core`'s array as `(set, way)`.
    #[inline]
    pub fn lookup(&self, core: CoreId, block: BlockAddr) -> Option<(usize, usize)> {
        let arr = &self.arrays[core.index()];
        arr.lookup(block).map(|way| (arr.set_of(block), way))
    }

    /// The entry at (`set`, `way`) of `core`'s array, if occupied.
    #[inline]
    pub fn entry(&self, core: CoreId, set: usize, way: usize) -> Option<&Entry<P>> {
        self.arrays[core.index()].entry(set, way)
    }

    /// Mutable entry at (`set`, `way`) of `core`'s array, if occupied.
    #[inline]
    pub fn entry_mut(&mut self, core: CoreId, set: usize, way: usize) -> Option<&mut Entry<P>> {
        self.arrays[core.index()].entry_mut(set, way)
    }

    /// Marks (`set`, `way`) of `core`'s array most recently used.
    #[inline]
    pub fn touch(&mut self, core: CoreId, set: usize, way: usize) {
        self.arrays[core.index()].touch(set, way);
    }

    /// Installs `block` at (`set`, `way`) of `core`'s array (see
    /// [`TagArray::fill`]) and records `core` as a holder.
    pub fn fill(&mut self, core: CoreId, set: usize, way: usize, block: BlockAddr, payload: P) {
        self.arrays[core.index()].fill(set, way, block, payload);
        let slot = self.slot(block);
        self.summary[slot] |= 1u64 << core.index();
    }

    /// Evicts (`set`, `way`) of `core`'s array (see
    /// [`TagArray::evict`]). The core's summary bit falls only when
    /// its set holds no other block in the evicted block's bucket.
    pub fn evict(&mut self, core: CoreId, set: usize, way: usize) -> Option<(BlockAddr, P)> {
        let (block, payload) = self.arrays[core.index()].evict(set, way)?;
        let b = bucket(&self.geom, block);
        let geom = &self.geom;
        if !self.arrays[core.index()].iter_set(set).any(|(_, other, _)| bucket(geom, other) == b) {
            self.summary[set * BUCKETS + b] &= !(1u64 << core.index());
        }
        Some((block, payload))
    }

    /// The cores that *may* hold `block`: a superset of its holders,
    /// lowest core first. Callers that change the arrays while they
    /// walk copy this mask and confirm each core with
    /// [`CoreTags::lookup`].
    #[inline]
    pub fn candidates(&self, block: BlockAddr) -> CoreMask {
        CoreMask(self.summary[self.slot(block)])
    }

    /// Every core holding `block`, as `(core, set, way)` in core order.
    #[inline]
    pub fn holders(&self, block: BlockAddr) -> impl Iterator<Item = (CoreId, usize, usize)> + '_ {
        self.candidates(block).filter_map(move |c| self.lookup(c, block).map(|(s, w)| (c, s, w)))
    }

    /// Checks the summary against the tag arrays in both directions
    /// (`holder-summary-exact`): every resident block's bit is set,
    /// and every set bit has a resident block in its bucket.
    pub fn check_summary(&self) -> Result<(), Violation> {
        let mut exact = vec![0u64; self.summary.len()];
        for (core, arr) in self.arrays() {
            for (_, _, block, _) in arr.iter_all() {
                let slot = self.slot(block);
                if self.summary[slot] & (1u64 << core.index()) == 0 {
                    return Err(Violation::at(
                        "holder-summary-exact",
                        core,
                        block,
                        format!("{core} set in the summary of a block it holds"),
                        format!("mask {:#x}", self.summary[slot]),
                    ));
                }
                exact[slot] |= 1u64 << core.index();
            }
        }
        for (slot, (&have, &want)) in self.summary.iter().zip(&exact).enumerate() {
            if let Some(core) = CoreMask(have & !want).next() {
                return Err(Violation::new(
                    "holder-summary-exact",
                    Some(core),
                    None,
                    format!(
                        "a block of set {} bucket {} resident in {core} behind its summary bit",
                        slot / BUCKETS,
                        slot % BUCKETS
                    ),
                    format!("no resident block (mask {have:#x}, exact {want:#x})"),
                ));
            }
        }
        Ok(())
    }

    /// Occupied entries over every core (`O(cores)`).
    pub fn len(&self) -> usize {
        self.arrays.iter().map(TagArray::len).sum()
    }

    /// `true` when no core holds any entry.
    pub fn is_empty(&self) -> bool {
        self.arrays.iter().all(TagArray::is_empty)
    }
}

impl<P: Copy> std::fmt::Debug for CoreTags<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreTags")
            .field("cores", &self.cores())
            .field("geometry", &self.geom)
            .field("occupied", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 sets x 2 ways: every block collides with every other.
    fn tiny(cores: usize) -> CoreTags<u32> {
        CoreTags::new(cores, CacheGeometry::new(256, 64, 2))
    }

    /// Blocks of set 0 whose buckets match and differ, respectively.
    fn same_and_other_bucket(t: &CoreTags<u32>) -> (BlockAddr, BlockAddr, BlockAddr) {
        let g = t.geom;
        let blocks: Vec<BlockAddr> = (0..4096u64).map(|i| BlockAddr(i * 2)).collect();
        let a = blocks[0];
        let same = *blocks[1..].iter().find(|b| bucket(&g, **b) == bucket(&g, a)).unwrap();
        let other = *blocks[1..].iter().find(|b| bucket(&g, **b) != bucket(&g, a)).unwrap();
        (a, same, other)
    }

    #[test]
    fn a_rebuilt_eager_summary_is_clean() {
        let geom = CacheGeometry::new(32 << 10, 64, 4);
        let blocks: Vec<_> = (0..2000).map(|b| BlockAddr(b * 5 + 3)).collect();
        let mut dirty: CoreTags<u32> = CoreTags::with_storage(4, geom, Storage::Eager);
        for (i, &b) in blocks.iter().enumerate() {
            let core = CoreId((i % 4) as u8);
            let set = dirty.array(core).set_of(b);
            let way = i / 4 % 4;
            dirty.evict(core, set, way);
            dirty.fill(core, set, way, b, i as u32);
        }
        assert!(dirty.summary.iter().any(|&m| m != 0));
        let summary = dirty.summary.as_ptr();
        drop(dirty);
        let rebuilt: CoreTags<u32> = CoreTags::with_storage(4, geom, Storage::Eager);
        assert_eq!(rebuilt.summary.as_ptr(), summary, "the dropped summary is reused");
        let fresh: CoreTags<u32> = CoreTags::with_storage(4, geom, Storage::Eager);
        assert_eq!(rebuilt.summary, fresh.summary);
        assert!(rebuilt.summary.iter().all(|&m| m == 0));
        assert!(rebuilt.is_empty());
        assert!(blocks.iter().all(|&b| rebuilt.candidates(b) == CoreMask(0)));
        assert_eq!(rebuilt.check_summary(), Ok(()));
    }

    #[test]
    fn core_mask_iterates_lowest_first_through_bit_63() {
        let cores: Vec<u8> = CoreMask((1 << 63) | (1 << 5) | 1).map(|c| c.0).collect();
        assert_eq!(cores, vec![0, 5, 63]);
    }

    #[test]
    fn evict_keeps_the_bit_while_a_bucket_mate_remains() {
        let mut t = tiny(2);
        let (a, same, other) = same_and_other_bucket(&t);
        t.fill(CoreId(1), 0, 0, a, 1);
        t.fill(CoreId(1), 0, 1, same, 2);
        assert_eq!(t.candidates(a), CoreMask(0b10));
        t.evict(CoreId(1), 0, 0);
        // `same` shares the bucket: the bit stays, but `a` is gone.
        assert_eq!(t.candidates(a), CoreMask(0b10));
        assert_eq!(t.holders(a).count(), 0);
        assert_eq!(t.holders(same).map(|h| h.0).collect::<Vec<_>>(), vec![CoreId(1)]);
        t.evict(CoreId(1), 0, 1);
        assert_eq!(t.candidates(a), CoreMask(0));
        t.fill(CoreId(0), 0, 0, a, 3);
        t.fill(CoreId(0), 0, 1, other, 4);
        t.evict(CoreId(0), 0, 0);
        assert_eq!(t.candidates(a), CoreMask(0), "a different bucket must not hold the bit");
        t.check_summary().unwrap();
    }

    #[test]
    fn evicting_a_vacant_way_leaves_the_summary_alone() {
        let mut t = tiny(1);
        let (a, _, _) = same_and_other_bucket(&t);
        t.fill(CoreId(0), 0, 0, a, 1);
        assert!(t.evict(CoreId(0), 0, 1).is_none());
        assert_eq!(t.candidates(a), CoreMask(1));
        t.check_summary().unwrap();
    }

    #[test]
    fn check_summary_flags_a_missing_bit() {
        let mut t = tiny(4);
        let (a, _, _) = same_and_other_bucket(&t);
        t.fill(CoreId(3), 0, 0, a, 1);
        let slot = t.slot(a);
        t.summary[slot] = 0;
        let v = t.check_summary().unwrap_err();
        assert_eq!((v.check, v.core, v.block), ("holder-summary-exact", Some(CoreId(3)), Some(a)));
    }

    #[test]
    fn check_summary_flags_a_stale_bit() {
        let mut t = tiny(64);
        let (a, _, _) = same_and_other_bucket(&t);
        t.fill(CoreId(0), 0, 0, a, 1);
        let slot = t.slot(a);
        t.summary[slot] |= 1 << 63;
        let v = t.check_summary().unwrap_err();
        assert_eq!((v.check, v.core, v.block), ("holder-summary-exact", Some(CoreId(63)), None));
    }

    #[test]
    #[should_panic(expected = "1..=64 cores")]
    fn more_than_64_cores_is_rejected() {
        tiny(65);
    }
}
