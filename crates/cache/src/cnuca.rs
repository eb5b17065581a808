//! CMP-CNUCA: a compressed banked non-uniform shared L2.
//!
//! A scenario-spec extension beyond the paper's four baselines,
//! modelled on YACC-style compressed caches for NUCA substrates
//! (arXiv:2201.00774): the bank/latency substrate is exactly
//! CMP-SNUCA's, but the data array holds *compressed* blocks.
//! Compressibility is a deterministic property of the block address
//! (a seeded hash, standing in for content entropy): a compressible
//! block occupies one half-block data unit, an incompressible one two.
//! Each set owns a fixed data budget of [`SET_UNIT_BUDGET`] units with
//! twice as many tag ways as uncompressed data frames, so a fully
//! compressible working set doubles the effective capacity while an
//! incompressible one degenerates to the plain banked cache.
//!
//! Hits on compressed blocks pay a small decompression penalty on top
//! of the bank's routing latency. Coherence is directory-style L1
//! presence bits, exactly as in the other shared organizations.

use cmp_coherence::Bus;
use cmp_latency::{LatencyBook, SnucaLatencies};
use cmp_mem::{AccessKind, BlockAddr, CacheGeometry, CoreId, Cycle, Storage};

use crate::org::{AccessClass, AccessResponse, CacheOrg, InvalScratch, OrgStats};
use crate::tag_array::TagArray;

/// Decompression latency added to hits on compressed blocks.
pub const DECOMPRESS_CYCLES: Cycle = 2;

/// Data-unit budget per set: 32 half-block units = 16 uncompressed
/// frames, matching a 16-way uncompressed set's data space.
pub const SET_UNIT_BUDGET: u32 = 32;

/// Fraction of the address space that compresses, in 256ths (~62%,
/// the mid-range compression coverage reported for SPEC-like mixes).
const COMPRESSIBLE_OUT_OF_256: u64 = 160;

#[derive(Clone, Copy, Debug, Default)]
struct CnucaEntry {
    dirty: bool,
    compressed: bool,
    l1_presence: u64,
}

/// The compressed banked shared L2.
///
/// # Example
///
/// ```
/// use cmp_cache::{CacheOrg, Cnuca, InvalScratch};
/// use cmp_coherence::Bus;
/// use cmp_latency::LatencyBook;
/// use cmp_mem::{AccessKind, BlockAddr, CoreId};
///
/// let mut l2 = Cnuca::paper(&LatencyBook::paper());
/// let mut bus = Bus::paper();
/// let mut inv = InvalScratch::new();
/// l2.access(CoreId(0), BlockAddr(0), AccessKind::Read, 0, &mut bus, &mut inv);
/// let hit = l2.access(CoreId(0), BlockAddr(0), AccessKind::Read, 100, &mut bus, &mut inv);
/// assert!(hit.class.is_hit());
/// ```
pub struct Cnuca {
    tags: TagArray<CnucaEntry>,
    latencies: SnucaLatencies,
    near_threshold: Vec<Cycle>,
    cores: usize,
    memory_latency: Cycle,
    stats: OrgStats,
}

impl Cnuca {
    /// The paper-scale machine with compression on top: the 8 MB
    /// banked substrate with doubled tags.
    pub fn paper(book: &LatencyBook) -> Self {
        Self::sized(book, cmp_mem::L2_TOTAL_BYTES)
    }

    /// The compressed organization at an explicit uncompressed data
    /// capacity. The tag array carries twice the ways of the
    /// equivalent 16-frame set so compressed sets can overcommit.
    pub fn sized(book: &LatencyBook, total_bytes: usize) -> Self {
        let cores = book.cores();
        let latencies = book.snuca.clone();
        let near_threshold = CoreId::all(cores)
            .map(|c| {
                let mut lats: Vec<Cycle> =
                    (0..latencies.banks()).map(|b| latencies.latency(c, b)).collect();
                lats.sort_unstable();
                lats[lats.len() / 4] // nearest quartile, as in SNUCA
            })
            .collect();
        // Same set count as a 16-way array over `total_bytes`, but 32
        // tag ways: double the tag space over the same data space.
        let tag_geom = CacheGeometry::new(2 * total_bytes, cmp_mem::L2_BLOCK_BYTES, 32);
        Cnuca {
            tags: TagArray::with_storage(tag_geom, Storage::for_l2(total_bytes)),
            latencies,
            near_threshold,
            cores,
            memory_latency: book.memory,
            stats: OrgStats::default(),
        }
    }

    fn core_bit(core: CoreId) -> u64 {
        1 << core.index()
    }

    /// Deterministic stand-in for content compressibility: a seeded
    /// splitmix of the block address.
    pub fn compressible(block: BlockAddr) -> bool {
        let mut z = block.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z & 0xFF) < COMPRESSIBLE_OUT_OF_256
    }

    fn units_of(block: BlockAddr) -> u32 {
        if Self::compressible(block) {
            1
        } else {
            2
        }
    }

    /// Data units currently resident in `set`.
    fn used_units(&self, set: usize) -> u32 {
        self.tags.iter_set(set).map(|(_, _, p)| if p.compressed { 1 } else { 2 }).sum()
    }

    /// Hit latency for `core` accessing `block`'s bank (before any
    /// decompression penalty).
    pub fn bank_latency(&self, core: CoreId, block: BlockAddr) -> Cycle {
        self.latencies.latency(core, self.latencies.bank_of(block))
    }

    /// Number of resident blocks stored compressed (diagnostic hook).
    pub fn compressed_resident(&self) -> usize {
        self.tags.iter_all().filter(|(_, _, _, p)| p.compressed).count()
    }
}

impl CacheOrg for Cnuca {
    fn name(&self) -> &'static str {
        "cnuca"
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
        let bank_lat = self.bank_latency(core, block);
        let resp;
        if let Some(way) = self.tags.lookup(block) {
            self.tags.touch(set, way);
            let entry = self.tags.entry_mut(set, way).expect("hit entry exists");
            let lat = bank_lat + if entry.payload.compressed { DECOMPRESS_CYCLES } else { 0 };
            let closest = lat <= self.near_threshold[core.index()];
            resp = AccessResponse::simple(lat, AccessClass::Hit { closest });
            if kind.is_write() {
                entry.payload.dirty = true;
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
            resp =
                AccessResponse::simple(bank_lat + self.memory_latency, AccessClass::MissCapacity);
            let need = Self::units_of(block);
            // Evict LRU residents until the set's data budget and a
            // free tag way can take the incoming block.
            loop {
                let has_free_way = self.tags.iter_set(set).count() < 32;
                if has_free_way && self.used_units(set) + need <= SET_UNIT_BUDGET {
                    break;
                }
                let victim = self.tags.victim_by(set, |e| u32::from(e.is_none()));
                let Some((victim_block, payload)) = self.tags.evict(set, victim) else {
                    break; // empty set, nothing more to free
                };
                if payload.dirty {
                    self.stats.writebacks += 1;
                }
                for c in CoreId::all(self.cores) {
                    if payload.l1_presence & Self::core_bit(c) != 0 {
                        inv.push(c, victim_block);
                    }
                }
            }
            let way = self.tags.victim_by(set, |e| u32::from(e.is_some()));
            self.tags.fill(
                set,
                way,
                block,
                CnucaEntry {
                    dirty: kind.is_write(),
                    compressed: Self::compressible(block),
                    l1_presence: Self::core_bit(core),
                },
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

impl std::fmt::Debug for Cnuca {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cnuca")
            .field("banks", &self.latencies.banks())
            .field("occupied", &self.tags.len())
            .field("compressed", &self.compressed_resident())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::org::CollectedResponse;

    fn paper_cnuca() -> Cnuca {
        Cnuca::paper(&LatencyBook::paper())
    }

    fn rd(l2: &mut Cnuca, core: u8, block: u64) -> CollectedResponse {
        let mut bus = Bus::paper();
        l2.access_collected(CoreId(core), BlockAddr(block), AccessKind::Read, 0, &mut bus)
    }

    #[test]
    fn compressibility_is_deterministic_and_mixed() {
        let compressed = (0..1000u64).filter(|&b| Cnuca::compressible(BlockAddr(b))).count();
        assert!(compressed > 400 && compressed < 800, "got {compressed}/1000");
        for b in 0..100u64 {
            assert_eq!(Cnuca::compressible(BlockAddr(b)), Cnuca::compressible(BlockAddr(b)));
        }
    }

    #[test]
    fn compressed_hits_pay_decompression() {
        let mut l2 = paper_cnuca();
        let comp = (0..1_000u64).find(|&b| Cnuca::compressible(BlockAddr(b))).unwrap();
        let incomp = (0..1_000u64).find(|&b| !Cnuca::compressible(BlockAddr(b))).unwrap();
        rd(&mut l2, 0, comp);
        rd(&mut l2, 0, incomp);
        let hit_c = rd(&mut l2, 0, comp);
        let hit_i = rd(&mut l2, 0, incomp);
        assert_eq!(hit_c.latency, l2.bank_latency(CoreId(0), BlockAddr(comp)) + DECOMPRESS_CYCLES);
        assert_eq!(hit_i.latency, l2.bank_latency(CoreId(0), BlockAddr(incomp)));
    }

    #[test]
    fn compressed_sets_hold_more_blocks_than_sixteen_frames() {
        let mut l2 = paper_cnuca();
        let sets = l2.tags.geometry().num_sets() as u64;
        // Walk compressible blocks of one set until the tag ways cap out.
        let set0: Vec<u64> = (0..(64 * sets))
            .step_by(sets as usize)
            .filter(|&b| Cnuca::compressible(BlockAddr(b)))
            .take(24)
            .collect();
        assert!(set0.len() >= 20, "need enough compressible blocks in one set");
        for &b in &set0 {
            rd(&mut l2, 0, b);
        }
        let resident = set0.iter().filter(|&&b| l2.tags.lookup(BlockAddr(b)).is_some()).count();
        assert!(
            resident > 16,
            "compression must overcommit the 16-frame data budget, got {resident}"
        );
    }

    #[test]
    fn incompressible_sets_degrade_to_sixteen_frames() {
        let mut l2 = paper_cnuca();
        let sets = l2.tags.geometry().num_sets() as u64;
        let set0: Vec<u64> = (0..(128 * sets))
            .step_by(sets as usize)
            .filter(|&b| !Cnuca::compressible(BlockAddr(b)))
            .take(20)
            .collect();
        assert!(set0.len() == 20);
        for &b in &set0 {
            rd(&mut l2, 0, b);
        }
        let resident = set0.iter().filter(|&&b| l2.tags.lookup(BlockAddr(b)).is_some()).count();
        assert_eq!(resident, 16, "two units each: exactly 16 incompressible blocks fit");
    }

    #[test]
    fn write_invalidates_remote_l1s() {
        let mut l2 = paper_cnuca();
        rd(&mut l2, 0, 7);
        rd(&mut l2, 1, 7);
        let mut bus = Bus::paper();
        let w = l2.access_collected(CoreId(0), BlockAddr(7), AccessKind::Write, 0, &mut bus);
        assert_eq!(w.l1_invalidate, vec![(CoreId(1), BlockAddr(7))]);
    }

    #[test]
    fn misses_are_capacity_only_and_pay_memory() {
        let mut l2 = paper_cnuca();
        let miss = rd(&mut l2, 0, 42);
        assert_eq!(miss.class, AccessClass::MissCapacity);
        assert!(miss.latency > 300);
        assert_eq!(l2.stats().miss_ros + l2.stats().miss_rws, 0);
    }
}
