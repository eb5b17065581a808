//! CMP-SNUCA: the non-uniform-shared baseline.
//!
//! The shared 8 MB cache is statically partitioned into 16 banks
//! spread over the chip (Section 4.2; similar to Piranha's banked
//! cache). Blocks are address-interleaved across banks; a request is
//! routed to its block's bank and pays that bank's distance-dependent
//! latency. There is **no replication and no migration** — the paper
//! notes that realistic CMP-DNUCA performs worse than CMP-SNUCA, so
//! only SNUCA is evaluated.
//!
//! L1 coherence is directory-style presence bits, exactly as in the
//! uniform-shared baseline.

use cmp_coherence::Bus;
use cmp_latency::{LatencyBook, SnucaLatencies};
use cmp_mem::{AccessKind, BlockAddr, CacheGeometry, CoreId, Cycle, Storage};

use crate::org::{AccessClass, AccessResponse, CacheOrg, InvalScratch, OrgStats};
use crate::tag_array::TagArray;

#[derive(Clone, Copy, Debug, Default)]
struct SnucaEntry {
    dirty: bool,
    l1_presence: u64,
}

/// The banked non-uniform shared L2.
///
/// # Example
///
/// ```
/// use cmp_cache::{CacheOrg, InvalScratch, Snuca};
/// use cmp_coherence::Bus;
/// use cmp_latency::LatencyBook;
/// use cmp_mem::{AccessKind, BlockAddr, CoreId};
///
/// let mut l2 = Snuca::paper(&LatencyBook::paper());
/// let mut bus = Bus::paper();
/// let mut inv = InvalScratch::new();
/// l2.access(CoreId(0), BlockAddr(0), AccessKind::Read, 0, &mut bus, &mut inv);
/// let hit = l2.access(CoreId(0), BlockAddr(0), AccessKind::Read, 100, &mut bus, &mut inv);
/// assert!(hit.class.is_hit());
/// assert!(hit.latency < 65); // mostly faster than the 59-cycle uniform cache
/// ```
pub struct Snuca {
    tags: TagArray<SnucaEntry>,
    latencies: SnucaLatencies,
    /// Per-core latency threshold under which a bank counts as
    /// "closest" for the hit-distance statistics.
    near_threshold: Vec<Cycle>,
    cores: usize,
    memory_latency: Cycle,
    stats: OrgStats,
}

impl Snuca {
    /// Creates the paper-scale configuration: 8 MB in 16 banks.
    pub fn paper(book: &LatencyBook) -> Self {
        Self::sized(book, cmp_mem::L2_TOTAL_BYTES)
    }

    /// The banked organization at an explicit total capacity; the bank
    /// *latency* grid comes from `book.snuca` (scaled to the core
    /// count), so the "nearest quartile" closeness threshold adapts to
    /// any bank grid.
    pub fn sized(book: &LatencyBook, total_bytes: usize) -> Self {
        let cores = book.cores();
        let latencies = book.snuca.clone();
        let near_threshold = CoreId::all(cores)
            .map(|c| {
                let mut lats: Vec<Cycle> =
                    (0..latencies.banks()).map(|b| latencies.latency(c, b)).collect();
                lats.sort_unstable();
                lats[lats.len() / 4] // nearest quartile
            })
            .collect();
        Snuca {
            tags: TagArray::with_storage(
                CacheGeometry::new(total_bytes, cmp_mem::L2_BLOCK_BYTES, 32),
                Storage::for_l2(total_bytes),
            ),
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

    /// Hit latency for `core` accessing `block`'s bank.
    pub fn bank_latency(&self, core: CoreId, block: BlockAddr) -> Cycle {
        self.latencies.latency(core, self.latencies.bank_of(block))
    }
}

impl CacheOrg for Snuca {
    fn name(&self) -> &'static str {
        "snuca"
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
        let lat = self.bank_latency(core, block);
        let resp;
        if let Some(way) = self.tags.lookup(block) {
            self.tags.touch(set, way);
            let closest = lat <= self.near_threshold[core.index()];
            resp = AccessResponse::simple(lat, AccessClass::Hit { closest });
            let entry = self.tags.entry_mut(set, way).expect("hit entry exists");
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
            resp = AccessResponse::simple(lat + self.memory_latency, AccessClass::MissCapacity);
            let victim_way = self.tags.victim_by(set, |e| u32::from(e.is_some()));
            if let Some((victim_block, payload)) = self.tags.evict(set, victim_way) {
                if payload.dirty {
                    self.stats.writebacks += 1;
                }
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
                SnucaEntry { dirty: kind.is_write(), l1_presence: Self::core_bit(core) },
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

impl std::fmt::Debug for Snuca {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snuca")
            .field("banks", &self.latencies.banks())
            .field("occupied", &self.tags.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_snuca() -> Snuca {
        Snuca::paper(&LatencyBook::paper())
    }

    use crate::org::CollectedResponse;

    fn rd(l2: &mut Snuca, core: u8, block: u64) -> CollectedResponse {
        let mut bus = Bus::paper();
        l2.access_collected(CoreId(core), BlockAddr(block), AccessKind::Read, 0, &mut bus)
    }

    #[test]
    fn hit_latency_varies_by_bank() {
        let mut l2 = paper_snuca();
        let mut latencies = std::collections::BTreeSet::new();
        for b in 0..16u64 {
            rd(&mut l2, 0, b);
            latencies.insert(rd(&mut l2, 0, b).latency);
        }
        assert!(latencies.len() > 3, "expected a spread of bank latencies, got {latencies:?}");
    }

    #[test]
    fn near_banks_classify_as_closest() {
        let mut l2 = paper_snuca();
        let (mut near, mut far) = (0u64, 0u64);
        for b in 0..16u64 {
            rd(&mut l2, 0, b);
            match rd(&mut l2, 0, b).class {
                AccessClass::Hit { closest: true } => near += 1,
                AccessClass::Hit { closest: false } => far += 1,
                _ => panic!("expected hit"),
            }
        }
        assert!(near >= 2 && far >= 8, "near={near} far={far}");
    }

    #[test]
    fn mean_hit_latency_beats_uniform_shared() {
        let mut l2 = paper_snuca();
        let mut total = 0u64;
        for b in 0..64u64 {
            rd(&mut l2, 0, b);
            total += rd(&mut l2, 0, b).latency;
        }
        let mean = total as f64 / 64.0;
        assert!(mean < 55.0, "SNUCA mean {mean} should beat the 59-cycle uniform cache");
        assert!(mean > 20.0, "SNUCA mean {mean} should lose to the 10-cycle private cache");
    }

    #[test]
    fn no_replication_single_copy_semantics() {
        let mut l2 = paper_snuca();
        rd(&mut l2, 0, 7);
        let other = rd(&mut l2, 3, 7);
        assert!(other.class.is_hit(), "other cores hit the single copy");
        // The hit latency for P3 is that core's distance to the bank,
        // not a local copy.
        assert_eq!(other.latency, l2.bank_latency(CoreId(3), BlockAddr(7)));
    }

    #[test]
    fn write_invalidates_remote_l1s() {
        let mut l2 = paper_snuca();
        rd(&mut l2, 0, 7);
        rd(&mut l2, 1, 7);
        let mut bus = Bus::paper();
        let w = l2.access_collected(CoreId(0), BlockAddr(7), AccessKind::Write, 0, &mut bus);
        assert_eq!(w.l1_invalidate, vec![(CoreId(1), BlockAddr(7))]);
    }
}
