//! The uniform-shared baseline (and the ideal cache).
//!
//! An 8 MB, 32-way shared L2 with a single copy per block: no
//! replication, no coherence misses at the L2 level (Figure 5's
//! shared bars show only hits and capacity misses). L1 coherence is
//! maintained directory-style with per-block L1 presence bits, as in
//! the commercial CMPs the paper cites (Piranha et al.): a write by
//! one core invalidates the other cores' L1 copies without a bus
//! transaction.
//!
//! The **ideal** cache of Section 5.1.1 — shared capacity at private
//! latency, the upper bound on CMP-NuRAPID's improvement — is the
//! same organization constructed with the private cache's latency.

use cmp_coherence::Bus;
use cmp_latency::LatencyBook;
use cmp_mem::{AccessKind, BlockAddr, CacheGeometry, CoreId, Cycle, Storage};

use crate::org::{AccessClass, AccessResponse, CacheOrg, InvalScratch, OrgStats};
use crate::tag_array::TagArray;

/// Per-block state: dirtiness and which cores' L1s hold copies.
#[derive(Clone, Copy, Debug, Default)]
struct SharedEntry {
    dirty: bool,
    l1_presence: u64,
}

/// A uniform-latency shared L2 cache.
///
/// # Example
///
/// ```
/// use cmp_cache::{CacheOrg, InvalScratch, UniformShared};
/// use cmp_coherence::Bus;
/// use cmp_latency::LatencyBook;
/// use cmp_mem::{AccessKind, BlockAddr, CoreId};
///
/// let book = LatencyBook::paper();
/// let mut l2 = UniformShared::paper_shared(&book);
/// let mut bus = Bus::paper();
/// let mut inv = InvalScratch::new();
/// let miss = l2.access(CoreId(0), BlockAddr(1), AccessKind::Read, 0, &mut bus, &mut inv);
/// let hit = l2.access(CoreId(1), BlockAddr(1), AccessKind::Read, 400, &mut bus, &mut inv);
/// assert!(miss.latency > hit.latency);
/// assert_eq!(hit.latency, 59);
/// ```
pub struct UniformShared {
    tags: TagArray<SharedEntry>,
    cores: usize,
    tag_latency: Cycle,
    hit_latency: Cycle,
    memory_latency: Cycle,
    name: &'static str,
    stats: OrgStats,
}

impl UniformShared {
    /// Creates a shared cache with explicit latencies.
    pub fn new(
        cores: usize,
        geom: CacheGeometry,
        tag_latency: Cycle,
        hit_latency: Cycle,
        memory_latency: Cycle,
        name: &'static str,
    ) -> Self {
        assert!(cores > 0 && cores <= 64, "cores must be in 1..=64");
        UniformShared {
            tags: TagArray::with_storage(geom, Storage::for_l2(geom.capacity_bytes())),
            cores,
            tag_latency,
            hit_latency,
            memory_latency,
            name,
            stats: OrgStats::default(),
        }
    }

    /// The paper's uniform-shared configuration: 8 MB, 32-way, 59-cycle
    /// hits (Table 1).
    pub fn paper_shared(book: &LatencyBook) -> Self {
        Self::sized_shared(book, cmp_mem::L2_TOTAL_BYTES)
    }

    /// The ideal cache: shared capacity at private latency
    /// (Section 5.1.1's upper bound).
    pub fn paper_ideal(book: &LatencyBook) -> Self {
        Self::sized_ideal(book, cmp_mem::L2_TOTAL_BYTES)
    }

    /// The paper's shared organization at an explicit total capacity
    /// (scenario-spec machines scale capacity with the core count;
    /// [`UniformShared::paper_shared`] keeps the fixed 8 MB).
    pub fn sized_shared(book: &LatencyBook, total_bytes: usize) -> Self {
        UniformShared::new(
            book.cores(),
            CacheGeometry::new(total_bytes, cmp_mem::L2_BLOCK_BYTES, 32),
            book.shared_tag,
            book.shared_total,
            book.memory,
            "shared",
        )
    }

    /// The ideal organization at an explicit total capacity.
    pub fn sized_ideal(book: &LatencyBook, total_bytes: usize) -> Self {
        UniformShared::new(
            book.cores(),
            CacheGeometry::new(total_bytes, cmp_mem::L2_BLOCK_BYTES, 32),
            book.private_tag,
            book.ideal_total,
            book.memory,
            "ideal",
        )
    }

    fn core_bit(core: CoreId) -> u64 {
        1 << core.index()
    }
}

impl CacheOrg for UniformShared {
    fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    fn access(
        &mut self,
        core: CoreId,
        block: BlockAddr,
        kind: AccessKind,
        _now: Cycle,
        _bus: &mut Bus,
        inv: &mut InvalScratch,
    ) -> AccessResponse {
        inv.begin();
        let set = self.tags.set_of(block);
        let resp;
        if let Some(way) = self.tags.lookup(block) {
            self.tags.touch(set, way);
            resp = AccessResponse::simple(self.hit_latency, AccessClass::Hit { closest: true });
            let entry = self.tags.entry_mut(set, way).expect("hit entry exists");
            if kind.is_write() {
                entry.payload.dirty = true;
                // Directory-style L1 coherence: invalidate every other
                // core's L1 copy.
                let others = entry.payload.l1_presence & !Self::core_bit(core);
                entry.payload.l1_presence &= !others;
                for c in CoreId::all(self.cores) {
                    if others & Self::core_bit(c) != 0 {
                        inv.push(c, block);
                    }
                }
            }
            entry.payload.l1_presence |= Self::core_bit(core);
        } else {
            // Miss: single copy per block, so every miss is capacity
            // (or cold) by construction.
            resp = AccessResponse::simple(
                self.tag_latency + self.memory_latency,
                AccessClass::MissCapacity,
            );
            let victim_way = self.tags.victim_by(set, |e| u32::from(e.is_some()));
            if let Some((victim_block, payload)) = self.tags.evict(set, victim_way) {
                if payload.dirty {
                    self.stats.writebacks += 1;
                }
                // Inclusion: L1 copies of the victim must go.
                for c in CoreId::all(self.cores) {
                    if payload.l1_presence & Self::core_bit(c) != 0 {
                        inv.push(c, victim_block);
                    }
                }
            }
            self.tags.fill(
                set,
                victim_way,
                block,
                SharedEntry { dirty: kind.is_write(), l1_presence: Self::core_bit(core) },
            );
        }
        self.stats.l1_invalidations += inv.len() as u64;
        self.stats.record_class(resp.class);
        resp
    }

    fn stats(&self) -> &OrgStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = OrgStats::default();
    }

    fn cores(&self) -> usize {
        self.cores
    }
}

impl std::fmt::Debug for UniformShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniformShared")
            .field("name", &self.name)
            .field("hit_latency", &self.hit_latency)
            .field("occupied", &self.tags.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> UniformShared {
        // 4 sets x 2 ways of 128 B blocks = 1 KB.
        UniformShared::new(4, CacheGeometry::new(1024, 128, 2), 26, 59, 300, "shared")
    }

    use crate::org::CollectedResponse;

    fn rd(l2: &mut UniformShared, core: u8, block: u64) -> CollectedResponse {
        let mut bus = Bus::paper();
        l2.access_collected(CoreId(core), BlockAddr(block), AccessKind::Read, 0, &mut bus)
    }

    fn wr(l2: &mut UniformShared, core: u8, block: u64) -> CollectedResponse {
        let mut bus = Bus::paper();
        l2.access_collected(CoreId(core), BlockAddr(block), AccessKind::Write, 0, &mut bus)
    }

    #[test]
    fn miss_then_hit_latencies() {
        let mut l2 = tiny();
        let miss = rd(&mut l2, 0, 1);
        assert_eq!(miss.latency, 26 + 300);
        assert_eq!(miss.class, AccessClass::MissCapacity);
        let hit = rd(&mut l2, 0, 1);
        assert_eq!(hit.latency, 59);
        assert!(hit.class.is_hit());
    }

    #[test]
    fn sharing_reads_hit_without_coherence_misses() {
        let mut l2 = tiny();
        rd(&mut l2, 0, 1);
        let hit = rd(&mut l2, 3, 1);
        assert!(hit.class.is_hit(), "single shared copy serves every core");
        assert_eq!(l2.stats().miss_ros + l2.stats().miss_rws, 0);
    }

    #[test]
    fn write_invalidates_other_l1_copies() {
        let mut l2 = tiny();
        rd(&mut l2, 0, 1);
        rd(&mut l2, 1, 1);
        rd(&mut l2, 2, 1);
        let w = wr(&mut l2, 0, 1);
        let mut cores: Vec<_> = w.l1_invalidate.iter().map(|(c, _)| c.index()).collect();
        cores.sort_unstable();
        assert_eq!(cores, vec![1, 2]);
    }

    #[test]
    fn repeated_writes_by_same_core_invalidate_nothing() {
        let mut l2 = tiny();
        wr(&mut l2, 0, 1);
        let w = wr(&mut l2, 0, 1);
        assert!(w.l1_invalidate.is_empty());
    }

    #[test]
    fn eviction_invalidates_l1_copies_and_writes_back_dirty() {
        let mut l2 = tiny();
        // Fill set with two conflicting blocks; blocks 1, 5, 9 share a
        // set in a 4-set array.
        wr(&mut l2, 0, 1);
        rd(&mut l2, 1, 5);
        let resp = rd(&mut l2, 2, 9); // evicts LRU = block 1 (dirty)
        assert!(resp.l1_invalidate.contains(&(CoreId(0), BlockAddr(1))));
        assert_eq!(l2.stats().writebacks, 1);
    }

    #[test]
    fn ideal_uses_private_latency() {
        let book = LatencyBook::paper();
        let mut ideal = UniformShared::paper_ideal(&book);
        let mut bus = Bus::paper();
        let mut inv = InvalScratch::new();
        ideal.access(CoreId(0), BlockAddr(1), AccessKind::Read, 0, &mut bus, &mut inv);
        let hit = ideal.access(CoreId(0), BlockAddr(1), AccessKind::Read, 0, &mut bus, &mut inv);
        assert_eq!(hit.latency, 10);
        assert_eq!(ideal.name(), "ideal");
    }

    #[test]
    fn paper_capacity_is_8mb() {
        let book = LatencyBook::paper();
        let l2 = UniformShared::paper_shared(&book);
        assert_eq!(l2.tags.geometry().capacity_bytes(), 8 * 1024 * 1024);
        assert_eq!(l2.tags.geometry().associativity(), 32);
        assert_eq!(l2.cores(), 4);
    }
}
